"""Acceptance gate: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is exact (no numeric tolerances anywhere).  The
criteria that are also `ranksat reproduce` suites read their claims from
`ranksat.claims`, so both check the same parameters.
"""

import random
import time

import numpy as np
import pytest

from ranksat import claims
from ranksat.claims import MOORE_GRID
from ranksat.constructions import (
    MooreParams,
    contains_vector,
    hscattered_moore,
    moore_saturate_witness,
    moore_system,
    thin_to_saturating,
)
from ranksat.gf import field_create
from ranksat.linalg import fqm_rank, system_create
from ranksat.linpoly import LinPoly
from ranksat.rankcov import (
    Code,
    code_from_system,
    covering_radius,
    saturates_within,
    saturating_index,
)
from ranksat.search import SearchTask, min_rank_search


def _verdict(num, label, ok, t0):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} {label} ({time.time() - t0:.1f}s)"
    print(line, flush=True)
    assert ok, line


def _all_pass(batch) -> bool:
    """Every claim of the batch holds; stops at the first that does not."""
    return all(ok for _label, ok in batch)


def test_criterion_01_moore_grid():
    t0 = time.time()
    ok = True
    point_t0 = t0
    for label, good in claims.moore_grid():
        ok &= good
        if label.endswith(" index"):  # the last claim of a grid point
            ok &= time.time() - point_t0 <= 60
            point_t0 = time.time()
    _verdict(1, "Moore grid: rank m(t-1)+rho and index exactly rho", ok, t0)


def test_criterion_02_shifted_variants():
    t0 = time.time()
    fld = field_create(2, 1, 5)
    base = moore_system(MooreParams(fld, 2, 2))
    base_rank, base_idx = base.rank, saturating_index(base)
    ok = base_rank == 7 and base_idx == 2
    for s in (1, 2, 3, 4):
        u = moore_system(MooreParams(fld, 2, 2, shifts=(s,)))
        ok &= u.rank == base_rank and saturating_index(u) == base_idx
    _verdict(2, "shifted variants (m=5, s=1..4): same rank and index", ok, t0)


def test_criterion_03_witness_solver():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for (p, a, m, rho, t) in MOORE_GRID:
        fld = field_create(p, a, m)
        params = MooreParams(fld, rho, t)
        u = moore_system(params)
        k = rho * t
        for _ in range(1000):
            v = [rng.randrange(fld.order) for _ in range(k)]
            ws = moore_saturate_witness(params, v)
            ok &= len(ws) == rho
            ok &= all(contains_vector(u, w) for w in ws)
            rows = [list(w) for w in ws]
            ok &= fqm_rank(fld, rows + [v]) == fqm_rank(fld, rows)
            if not ok:
                break
    _verdict(3, "witness solver: 1000 random targets per grid point, 100%", ok, t0)


def test_criterion_04_duality():
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    for (p, a, m, k) in ((2, 1, 3, 2), (2, 1, 2, 3), (3, 1, 2, 2)):
        fld = field_create(p, a, m)
        checked = 0
        while checked < 200:
            n_gens = rng.randrange(1, min(6, m * k) + 1)
            gens = [[rng.randrange(fld.order) for _ in range(k)]
                    for _ in range(n_gens)]
            u = system_create(fld, k, gens)
            if u.is_zero or u.rank > 6:
                continue
            checked += 1
            idx = saturating_index(u)
            if idx is None:
                continue
            cr = covering_radius(code_from_system(u).dual())
            ok &= cr == idx
            if not ok:
                break
    _verdict(4, "duality: index equals dual covering radius, 200 per triple", ok, t0)


def test_criterion_05_hscattered():
    t0 = time.time()
    ok = _all_pass(claims.hscattered_grid())
    _verdict(5, "h-scattered towers attain floor(km/(h+1)) and verify", ok, t0)


def test_criterion_06_thinning_pipeline():
    t0 = time.time()
    fld = field_create(2, 1, 4)
    w = hscattered_moore(fld, h=1, t=2)  # rank 8 in V(4, 16)
    u = thin_to_saturating(w, 1)
    ok = u.rank == 7
    ok &= saturates_within(u, 2)  # over the 4369 points of PG(3, 16)
    _verdict(6, "thinning pipeline: rank 7, saturates within 2 in PG(3,16)", ok, t0)


@pytest.mark.parametrize("q,a", [(2, 1), (4, 2)])
def test_criterion_07_case_sweep(q, a):  # a names the tower q = 2^a in the id
    t0 = time.time()
    ok = _all_pass(claims.case_sweep(q))
    _verdict(7, f"case sweep q={q}: cases 1-4 all certify non-saturation", ok, t0)


def test_criterion_08_headline_search():
    t0 = time.time()
    ok = _all_pass(claims.headline_search())
    _verdict(8, "headline search (canonical): no rank 4, rank 5 achieved, s=5",
             ok, t0)


def test_criterion_09_identities():
    t0 = time.time()
    # q = 2: every (alpha, beta), every C, exhaustive (x, y)
    ok = _all_pass(claims.appendix_identities(2))
    q2_done = time.time() - t0
    assert q2_done <= 300, f"q=2 sweep took {q2_done:.0f}s (cap 300s)"
    # q = 4: every (alpha, beta), 64 sampled C, exhaustive (x, y)
    ok = ok and _all_pass(claims.appendix_identities(4))
    _verdict(9, "identity chain: derived forms, zero violations at q=2 and q=4",
             ok, t0)


def test_criterion_10_gamma_soundness():
    t0 = time.time()
    ok = True
    sizes = {}
    for q in (2, 4, 8):
        for label, good in claims.gamma(q):
            ok &= good
            sizes.setdefault(q, []).append(int(label.rsplit("size=", 1)[1]))
            if not ok:
                break
    note = {q: (min(v), max(v)) for q, v in sizes.items()}
    print(f"  gamma sizes (min, max) per q: {note}; "
          f"cube-order prediction would be q^3")
    _verdict(10, "gamma soundness: every member unsaturated at q=2,4,8", ok, t0)


def test_criterion_11_delta_q64():
    t0 = time.time()
    ok = _all_pass(claims.delta_q64())
    _verdict(11, "q=64: all 63 trace-condition sets nonempty; sampled scans "
                 "scattered", ok, t0)


def test_criterion_12_tables():
    t0 = time.time()
    ok = _all_pass(claims.bounds_table())
    elapsed = time.time() - t0
    _verdict(12, "tables: known values inside bounds; monotonicity and "
                 "subadditivity hold", ok and elapsed <= 60, t0)


def test_criterion_13_oracle_cross_checks():
    t0 = time.time()
    ok = True
    # naive vs canonical at (q=2, m=2, k=2), every rho
    fld = field_create(2, 1, 2)
    for rho in (1, 2):
        rn = min_rank_search(SearchTask(fld, 2, rho, rho, 4, reduction="naive"))
        rc = min_rank_search(SearchTask(fld, 2, rho, rho, 4, reduction="canonical"))
        ok &= rn.value == rc.value
        ok &= ({o.rank: o.found is not None for o in rn.outcomes}
               == {o.rank: o.found is not None for o in rc.outcomes})
    # both covering-radius paths on 100 random small codes
    rng = random.Random(5)
    fields = [field_create(2, 1, 2), field_create(2, 1, 3), field_create(3, 1, 2)]
    done = 0
    while done < 100:
        f = fields[done % 3]
        n = rng.randrange(2, 4)
        kc = rng.randrange(1, n)
        code = Code(f, n, [[rng.randrange(f.order) for _ in range(n)]
                           for _ in range(kc)])
        if code.dim == 0:
            continue
        done += 1
        ok &= covering_radius(code, "syndrome") == covering_radius(code, "full")
    # Dickson determinant vs exhaustive bijectivity, fields up to 2^12
    for (p, a, m) in ((2, 1, 4), (2, 2, 3), (3, 1, 4), (2, 3, 4)):
        f = field_create(p, a, m)
        assert f.order <= 1 << 12
        xs = np.arange(f.order, dtype=np.int64)
        for _ in range(500):
            lp = LinPoly(f, [rng.randrange(f.order) for _ in range(f.m)])
            image = np.unique(lp.eval_vec(xs))
            bij = len(image) == f.order
            ok &= (lp.dickson_det() != 0) == bij == (lp.kernel_dim() == 0)
            if not ok:
                break
    _verdict(13, "oracle cross-checks: searches, covering paths, Dickson "
                 "determinants all agree", ok, t0)
