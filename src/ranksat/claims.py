"""The paper's claim batches, each with its parameters written once.

Every batch is a generator of (label, ok) pairs.  `ranksat reproduce` prints
them as PASS/FAIL lines and the acceptance test asserts them, so both read
the same grids, seeds and samples.  The generators are lazy: a consumer may
time each claim as it arrives or stop at the first failure.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .constructions import (
    MooreParams,
    case_system,
    hscattered_moore,
    moore_system,
    normalized_alphas,
    normalized_betas,
    normalized_pairs,
)
from .errors import InvalidParams, OddCharacteristic
from .gf import Field, field_create, prime_power
from .identities import (
    AppendixContext,
    case3_witness,
    delta_sets,
    verify_delta_unsaturated,
    verify_gamma_unsaturated,
    verify_identities,
)
from .linset import Point, is_h_scattered, linear_set, max_h_scattered_bound
from .rankcov import (
    is_rank_saturating,
    known_value,
    lower_bound,
    one_saturated,
    saturating_index,
    upper_bound,
)
from .search import SearchTask, min_rank_search, search_table

Claims = Iterator[tuple[str, bool]]

# (p, a, m, rho, t): Moore towers in V(rho*t, q^m), q = p^a
MOORE_GRID = [(2, 1, 2, 2, 2), (2, 1, 3, 2, 2), (3, 1, 2, 2, 2),
              (2, 1, 4, 2, 2), (2, 1, 3, 3, 2), (2, 2, 3, 2, 2)]

# (p, a, m, h, t): h-scattered towers in V((h+1)*t, q^m)
HSCATTERED_GRID = [(2, 1, 3, 1, 1), (3, 1, 3, 1, 1),
                   (2, 1, 4, 2, 1), (2, 1, 4, 1, 2)]


def _tower(q: int, m: int = 4) -> Field:
    pp = prime_power(q)
    if pp is None:
        raise InvalidParams(f"q={q} is not a prime power")
    return field_create(pp[0], pp[1], m)


def moore_grid() -> Claims:
    """Moore towers reach rank m(t-1)+rho and saturate at exactly rho."""
    for (p, a, m, rho, t) in MOORE_GRID:
        fld = field_create(p, a, m)
        u = moore_system(MooreParams(fld, rho, t))
        label = f"moore q={fld.q} m={m} rho={rho} t={t}"
        yield f"{label} rank", u.rank == m * (t - 1) + rho
        yield f"{label} index", saturating_index(u) == rho


def hscattered_grid() -> Claims:
    """h-scattered towers attain floor(km/(h+1)) and pass the full sweep."""
    for (p, a, m, h, t) in HSCATTERED_GRID:
        fld = field_create(p, a, m)
        u = hscattered_moore(fld, h, t)
        label = f"hscattered q={fld.q} m={m} h={h} t={t}"
        yield f"{label} rank", u.rank == max_h_scattered_bound((h + 1) * t, m, h)
        yield f"{label} verdict", is_h_scattered(u, h)[0]


def bounds_table() -> Claims:
    """Known values lie inside the generic bounds; the searched table
    s(k, rho) at q=2, m=2 is monotone and subadditive."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(2, 11):
            for k in range(2, 9):
                for rho in range(1, min(k, m) + 1):
                    kv = known_value(q, m, k, rho)
                    if kv is not None:
                        yield (f"bounds q={q} m={m} k={k} rho={rho}",
                               lower_bound(q, m, k, rho) <= kv.lo <= kv.hi
                               <= upper_bound(m, k, rho))
    s = {kr: v for kr, v in search_table(field_create(2, 1, 2), 3).items()
         if v is not None}
    for (k, rho), v in s.items():
        if (k, rho + 1) in s:
            yield f"monotone s({k},{rho + 1}) <= s({k},{rho})", s[(k, rho + 1)] <= v
        if (k + 1, rho) in s:
            yield f"strict s({k},{rho}) < s({k + 1},{rho})", v < s[(k + 1, rho)]
        if (k + 1, rho + 1) in s:
            yield (f"diagonal s({k + 1},{rho + 1}) <= s({k},{rho}) + 1",
                   s[(k + 1, rho + 1)] <= v + 1)
        for (k2, rho2), v2 in s.items():
            if (k + k2, rho + rho2) in s:
                yield (f"subadditive s({k + k2},{rho + rho2}) <= "
                       f"s({k},{rho}) + s({k2},{rho2})",
                       s[(k + k2, rho + rho2)] <= v + v2)


def case_sweep(q: int) -> Claims:
    """Cases 1-4 of the rank-4 normal forms in V(3, q^4) are not 2-saturating.

    Even q only: the case-3 witness scan covers characteristic 2."""
    fld = _tower(q)
    if fld.p != 2:
        raise OddCharacteristic(f"the case sweep covers even q, not q={q}")
    u1 = case_system(fld, 1)
    yield (f"case1 q={q} (0:0:1) unsaturated",
           not one_saturated(fld, linear_set(u1).points, Point(fld, (0, 0, 1))))
    u2 = case_system(fld, 2, alpha=fld.generator)
    yield (f"case2 q={q} (0:1:0) unsaturated",
           not one_saturated(fld, linear_set(u2).points, Point(fld, (0, 1, 0))))
    for alpha in normalized_alphas(fld):
        yield f"case3 q={q} alpha={alpha}", case3_witness(fld, alpha).ok
    for alpha, beta in normalized_pairs(fld):
        u = case_system(fld, 4, alpha=alpha, beta=beta)
        yield (f"case4 q={q} alpha={alpha} beta={beta} not 2-saturating",
               not is_rank_saturating(u, 2))


def appendix_identities(q: int) -> Claims:
    """The identity chain on derived forms at every normalized (alpha, beta):
    every C at q = 2, a seeded sample of C otherwise, each checked over the
    exhaustive (x, y) grid."""
    fld = _tower(q)
    n = fld.order
    grid = (np.repeat(np.arange(n, dtype=np.int64), n),
            np.tile(np.arange(n, dtype=np.int64), n))
    rng = np.random.default_rng(11)
    for alpha in normalized_alphas(fld):
        for beta in normalized_betas(fld):
            ctx = AppendixContext(fld, alpha, beta)
            cs = (range(n) if q == 2 else
                  rng.choice(n, size=64, replace=False))
            ok = all(verify_identities(ctx, int(c), numeric=True, grid=grid).ok_derived
                     for c in cs)
            yield f"identities q={q} alpha={alpha} beta={beta}", ok


def gamma(q: int) -> Claims:
    """Every member of Gamma is unsaturated, for every alpha != 1 and beta.
    The label ends in size=|Gamma|."""
    fld = _tower(q)
    for alpha in normalized_alphas(fld):
        if alpha == 1:
            continue
        for beta in normalized_betas(fld):
            rep = verify_gamma_unsaturated(AppendixContext(fld, alpha, beta))
            yield (f"gamma-unsat q={q} alpha={alpha} beta={beta} "
                   f"size={len(rep.gamma)}", rep.ok)


def delta_q64() -> Claims:
    """At q = 64 every trace-condition set is nonempty, and every member of
    the sets of five sampled betas certifies a scattered image."""
    fld = field_create(2, 6, 4, table_threshold=1 << 24)
    betas = fld.subfield_elements("mid")[1:]
    yield "delta0 q=64 has 63 nonzero betas", len(betas) == 63
    d0 = {}
    for beta in betas:
        d0[beta] = delta_sets(fld, beta, 0)
        yield f"delta0 beta={beta} nonempty", len(d0[beta]) > 0
    sample = betas[::13][:5]
    yield "delta0 5 betas sampled", len(sample) == 5
    for beta in sample:
        for z in d0[beta]:
            rep = verify_delta_unsaturated(fld, beta, 0, z, strict=False)
            yield f"delta0 beta={beta} z={z} scattered", rep.scattered


def headline_search() -> Claims:
    """The canonical search in V(3, 2^4) finds no 2-saturating rank-4 system
    and a rank-5 one, so the minimal rank is 5."""
    res = min_rank_search(SearchTask(field_create(2, 1, 4), 3, 2, 4, 5,
                                     reduction="canonical"))
    rank4 = res.outcomes[0]
    yield (f"search q=2 m=4 k=3 rho=2 rank4 none (examined {rank4.examined})",
           rank4.found is None and rank4.examined > 0)
    yield ("search q=2 m=4 k=3 rho=2 rank5 found",
           len(res.outcomes) > 1 and res.outcomes[1].found is not None)
    yield f"search q=2 m=4 k=3 rho=2 value s={res.value}", res.value == 5
