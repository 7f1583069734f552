"""Explicit systems: Moore towers, h-scattered families, case systems.

The Moore construction places t-1 Frobenius-tower blocks and one prime-field
block, reaching rank m(t-1)+rho in V(rho*t, q^m); its witness solver follows
the constructive span argument (rank split of the tail block, the 0/1/alpha
coefficient matrix, then one Moore-matrix solve per tower block) and every
returned witness is re-verified by an independent membership check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InternalInconsistency,
    InvalidCaseParams,
    InvalidParams,
    RankTooSmall,
    ShiftNotCoprime,
)
from .gf import Field
from .linalg import System, fqm_rank, fq_span_dim, solve, system_create
from .linset import is_scattered


@dataclass(frozen=True)
class MooreParams:
    """Parameters of the block-tower construction: k = rho*t."""
    field: Field
    rho: int
    t: int
    shifts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rho < 1 or self.t < 1:
            raise InvalidParams(f"rho={self.rho}, t={self.t} must be >= 1")
        if self.rho > self.field.m:
            raise InvalidParams(
                f"rho={self.rho} exceeds m={self.field.m}; "
                "the independent-family step needs m >= rho")
        shifts = self.shifts or tuple([1] * (self.t - 1))
        if len(shifts) != self.t - 1:
            raise InvalidParams(f"need {self.t - 1} shifts, got {len(shifts)}")
        for s in shifts:
            if math.gcd(self.field.m, s) != 1:
                raise ShiftNotCoprime(f"gcd(m={self.field.m}, s={s}) != 1")
        object.__setattr__(self, "shifts", tuple(shifts))

    @property
    def k(self) -> int:
        return self.rho * self.t


def moore_system(params: MooreParams) -> System:
    """The rank m(t-1)+rho system of Frobenius-tower blocks plus F_q tail."""
    fld, rho, t = params.field, params.rho, params.t
    k = params.k
    gens = []
    for j in range(t - 1):
        s = params.shifts[j]
        for b in fld.power_basis:
            vec = [0] * k
            for l in range(rho):
                vec[j * rho + l] = fld.frobenius(b, s * l)
            gens.append(vec)
    for l in range(rho):
        vec = [0] * k
        vec[(t - 1) * rho + l] = 1
        gens.append(vec)
    u = system_create(fld, k, gens)
    expect = fld.m * (t - 1) + rho
    if u.rank != expect:
        raise InternalInconsistency(f"moore rank {u.rank} != {expect}")
    return u


def contains_vector(u: System, vec: Sequence[int]) -> bool:
    from .linalg import expand_vector, fq_rank
    rows = list(u.canonical)
    return fq_rank(u.field, rows + [expand_vector(u.field, list(vec))]) == u.rank


def moore_saturate_witness(params: MooreParams, v: Sequence[int]) -> list[tuple[int, ...]]:
    """rho vectors of the Moore system whose big-field span contains v.

    Follows the constructive argument for unit shifts: split the tail block
    by its F_q-rank, fill the tail coefficients, extend to an independent
    family, then solve one Moore system per tower block on the base-field
    expansion.  The result is checked by an independent membership test
    before returning.
    """
    fld, rho, t = params.field, params.rho, params.t
    if any(s != 1 for s in params.shifts):
        raise InvalidParams("the witness solver covers unit shifts only")
    k = params.k
    v = [fld.check(z) for z in v]
    if len(v) != k:
        raise InvalidParams(f"target of length {len(v)}, ambient {k}")
    u = moore_system(params)

    if contains_vector(u, v):
        out = [tuple(v)]
        for b in u.basis:
            if len(out) == rho:
                break
            out.append(tuple(b))
        while len(out) < rho:
            out.append(tuple([0] * k))
        _verify_witness(fld, out, v)
        return out

    tail = v[(t - 1) * rho:]
    # greedy maximal F_q-independent subset of the tail entries
    idx: list[int] = []
    for i, z in enumerate(tail):
        if fq_span_dim(fld, [tail[j] for j in idx] + [z]) > len(idx):
            idx.append(i)
    s = len(idx)
    lam = [tail[i] for i in idx]
    for z in range(fld.order):
        if len(lam) == rho:
            break
        if fq_span_dim(fld, lam + [z]) > len(lam):
            lam.append(z)
    if len(lam) < rho:
        raise InternalInconsistency("could not extend to an independent family")

    # tail coefficients of the witnesses: identity block on idx, alpha fills
    lam_cols = [list(fld.fq_coords(z)) for z in lam[:s]]
    tail_coeffs = [[0] * rho for _ in range(rho)]  # tail_coeffs[i][l]
    for h, pos in enumerate(idx):
        tail_coeffs[h][pos] = 1
    for l in range(rho):
        if l in idx:
            continue
        alpha = solve(fld, [lam_cols[h] for h in range(s)],
                          list(fld.fq_coords(tail[l])))
        if alpha is None:
            raise InternalInconsistency("tail dependency solve failed")
        for h in range(s):
            tail_coeffs[h][l] = alpha[h]

    # per tower block: solve sum_i lam_i * x^(i)^(q^l) = Y_l over F_q
    xblocks: list[list[int]] = []  # xblocks[j][i]
    basis = fld.power_basis
    for j in range(t - 1):
        y = v[j * rho:(j + 1) * rho]
        cols = []
        for i in range(rho):
            for b in basis:
                col = []
                for l in range(rho):
                    col.extend(fld.fq_coords(fld.mul(lam[i], fld.frobenius(b, l))))
                cols.append(col)
        target = []
        for l in range(rho):
            target.extend(fld.fq_coords(y[l]))
        sol = solve(fld, cols, target)
        if sol is None:
            raise InternalInconsistency("Moore block solve failed")
        xs = []
        for i in range(rho):
            xs.append(fld.from_fq_coords(sol[i * fld.m:(i + 1) * fld.m]))
        xblocks.append(xs)

    witnesses = []
    for i in range(rho):
        vec = [0] * k
        for j in range(t - 1):
            for l in range(rho):
                vec[j * rho + l] = fld.frobenius(xblocks[j][i], l)
        for l in range(rho):
            vec[(t - 1) * rho + l] = tail_coeffs[i][l] if i < len(tail_coeffs) else 0
        witnesses.append(tuple(vec))
    for w in witnesses:
        if not contains_vector(u, w):
            raise InternalInconsistency("witness left the system")
    _verify_witness(fld, witnesses, v)
    return witnesses


def _verify_witness(field: Field, witnesses: Sequence[Sequence[int]],
                    v: Sequence[int]):
    rows = [list(w) for w in witnesses]
    base = fqm_rank(field, rows)
    if fqm_rank(field, rows + [list(v)]) != base:
        raise InternalInconsistency("membership post-check failed")


# ----------------------------------------------------------------------
# h-scattered towers and the thinning pipeline
# ----------------------------------------------------------------------

def hscattered_moore(fld: Field, h: int, t: int) -> System:
    """Frobenius towers of height h+1: rank t*m = floor(km/(h+1)) in V((h+1)t, q^m)."""
    if h < 1 or t < 1:
        raise InvalidParams(f"h={h}, t={t} must be >= 1")
    if fld.m < h + 1:
        raise InvalidParams(f"need m >= h+1, got m={fld.m}, h={h}")
    k = (h + 1) * t
    gens = []
    for j in range(t):
        for b in fld.power_basis:
            vec = [0] * k
            for l in range(h + 1):
                vec[j * (h + 1) + l] = fld.frobenius(b, l)
            gens.append(vec)
    u = system_create(fld, k, gens)
    if u.rank != t * fld.m:
        raise InternalInconsistency(f"tower rank {u.rank} != {t * fld.m}")
    return u


def thin_to_saturating(w: System, h: int) -> System:
    """First canonical generators of an h-scattered space, cut to the
    smallest rank that already forces saturation within h+1."""
    fld = w.field
    target = (fld.m * (w.k - 1)) // (h + 1) + 1
    if w.rank < target:
        raise RankTooSmall(f"rank {w.rank} < required {target}")
    sub = system_create(fld, w.k, w.basis[:target])
    if sub.rank != target:
        raise InternalInconsistency("thinning changed the rank")
    return sub


# ----------------------------------------------------------------------
# the ambient-4 case family and the rank-5 example
# ----------------------------------------------------------------------

def _graph_system(fld: Field, f_coeffs: dict[int, int],
                  g_coeffs: dict[int, int]) -> System:
    """{(x, f(x), g(x))} for q-polynomial maps given as {power: coeff}."""
    gens = []
    for b in fld.power_basis:
        fx = 0
        for i, c in f_coeffs.items():
            fx = fld.add(fx, fld.mul(c, fld.frobenius(b, i)))
        gx = 0
        for i, c in g_coeffs.items():
            gx = fld.add(gx, fld.mul(c, fld.frobenius(b, i)))
        gens.append([b, fx, gx])
    return system_create(fld, 3, gens)


def case_system(fld: Field, case: int, alpha: int = 0, beta: int = 0) -> System:
    """The four rank-m normal forms in V(3, q^4)."""
    if fld.m != 4:
        raise InvalidCaseParams("case systems live in V(3, q^4): need m = 4")
    fld.check(alpha)
    fld.check(beta)
    if case == 1:
        return _graph_system(fld, {1: 1}, {2: 1})
    if case == 2:
        if alpha == 0:
            raise InvalidCaseParams("case 2 needs alpha != 0")
        return _graph_system(fld, {1: 1, 2: alpha}, {3: 1})
    if case == 3:
        if alpha == 0:
            raise InvalidCaseParams("case 3 needs alpha != 0")
        return _graph_system(fld, {1: 1, 3: alpha}, {2: 1})
    if case == 4:
        if alpha == 0 or beta == 0:
            raise InvalidCaseParams("case 4 needs alpha, beta != 0")
        return _graph_system(fld, {1: 1, 3: alpha}, {2: 1, 3: beta})
    raise InvalidCaseParams(f"unknown case {case}")


def normalized_alphas(fld: Field) -> tuple[int, ...]:
    """alpha in F_{q^2} with alpha^(q+1) = 1, ascending encodings."""
    if fld.m != 4:
        raise InvalidCaseParams("normalization lives in the m = 4 tower")
    q = fld.q
    n = fld.order - 1
    step = n // (q + 1)
    out = sorted({fld.pow(fld.generator, step * j) for j in range(q + 1)})
    for z in out:
        if fld.pow(z, q + 1) != 1 or fld.frobenius(z, 2) != z:
            raise InternalInconsistency("alpha normalization failed")
    return tuple(out)


def normalized_betas(fld: Field) -> tuple[int, ...]:
    """beta with beta^((q^2+1)(q-1)) = 1, ascending encodings."""
    if fld.m != 4:
        raise InvalidCaseParams("normalization lives in the m = 4 tower")
    q = fld.q
    n = fld.order - 1
    cnt = (q * q + 1) * (q - 1)
    step = n // cnt
    out = sorted({fld.pow(fld.generator, step * j) for j in range(cnt)})
    if len(out) != cnt:
        raise InternalInconsistency("beta normalization failed")
    return tuple(out)


def normalized_pairs(fld: Field) -> list[tuple[int, int]]:
    """The (q+1)*(q^2+1)*(q-1) normalized (alpha, beta) parameter pairs."""
    return [(a, b) for a in normalized_alphas(fld) for b in normalized_betas(fld)]


def rank5_example(fld: Field) -> System:
    """A rank-5 system: a scattered rank-4 space on the line X_2 = 0 plus e_3.

    The scatteredness of the in-line space is verified at construction."""
    if fld.m != 4:
        raise InvalidCaseParams("the rank-5 example lives in V(3, q^4)")
    line_part = system_create(fld, 2, [(b, fld.frobenius(b, 1))
                                       for b in fld.power_basis])
    if not is_scattered(line_part):
        raise InternalInconsistency("in-line space is not scattered")
    gens = [[b, fld.frobenius(b, 1), 0] for b in fld.power_basis]
    gens.append([0, 0, 1])
    u = system_create(fld, 3, gens)
    if u.rank != 5:
        raise InternalInconsistency(f"rank-5 example has rank {u.rank}")
    return u
