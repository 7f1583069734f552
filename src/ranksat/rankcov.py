"""Saturation checks, rank covering radius, duality, and bound tables.

The level-rho saturation scan is incremental over a bitmap of
PG(k-1, q^m).  Level 1 marks the points of L_U itself.  Level 2 marks every
point on a secant line, pairwise over L_U (the dominant desk-scale case).
Every later level uses one geometric step, projection from a point: seen
from P in L_U, the points of a line through P other than P share one index
of PG(k-2), and each such fiber holds exactly q^m points.  So an unmarked
point Q lies on a line through P that meets the marked set iff fewer than
q^m unmarked points share Q's index.  `one_saturated` is the same step
from a single center: a collision among the images is a secant through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import config
from .errors import BudgetExceeded, FieldMismatch, InvalidRho
from .gf import Field, prime_factors, prime_power
from .linalg import (
    System,
    fq_rank_batch,
    fq_span_dim,
    fqm_rref,
    spans_ambient,
)
from .linset import (
    Point,
    linear_set,
    normalize_rows,
    pg_num_points,
    point_index,
    point_unrank,
)

_PAIR_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# point saturation
# ----------------------------------------------------------------------

def _project(field: Field, center: np.ndarray,
             pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project points from a normalized center into PG(k-2).

    Returns each point's PG(k-2) index and the mask of rows equal to the
    center, whose image is undefined.  Two other points share an index iff
    they lie on one line through the center.
    """
    lead = int(np.argmax(center != 0))
    red = field.vsub(pts, field.vmul(pts[:, lead:lead + 1], center[None, :]))
    at_center = ~red.any(axis=1)
    rows, _ = normalize_rows(field, np.delete(red, lead, axis=1))
    return point_index(field, rows), at_center


def one_saturated(field: Field, pts: np.ndarray, q_point: Point) -> bool:
    """True iff q_point is in the set or on a secant line of it."""
    idx, at_center = _project(field, np.asarray(q_point.coords, dtype=np.int64),
                              np.asarray(pts, dtype=np.int64))
    return bool(at_center.any()) or len(np.unique(idx)) < len(idx)


def _mark_secants(field: Field, pts: np.ndarray, marked: np.ndarray):
    """Set the bitmap on every point of every line through two set points."""
    n = len(pts)
    if n < 2:
        return
    ii, jj = np.triu_indices(n, 1)
    elems = np.arange(field.order, dtype=np.int64)
    for start in range(0, len(ii), max(1, _PAIR_CHUNK // field.order)):
        sl = slice(start, start + max(1, _PAIR_CHUNK // field.order))
        P = pts[ii[sl]]
        Q = pts[jj[sl]]
        # P + t*Q for all t, plus Q itself (marked already as a point of S)
        R = field.vadd(P[:, None, :], field.vmul(elems[None, :, None], Q[:, None, :]))
        R = R.reshape(-1, pts.shape[1])
        rows, ok = normalize_rows(field, R)
        marked[point_index(field, rows[ok])] = True


def saturating_index(u: System, budget: Optional[int] = None) -> Optional[int]:
    """Minimal rho with every point of PG(k-1, q^m) (rho-1)-saturated by L_U.

    Absent (None) when U does not span the ambient space over F_{q^m}: no
    rho works in that case.
    """
    report = saturation_report(u, budget=budget)
    return report.rho


@dataclass
class SaturationReport:
    """Outcome of a saturation scan with per-level unsaturated witnesses."""
    system: System
    rho: Optional[int]
    witnesses: dict[int, Point]
    coverage: dict[int, int]


def saturation_report(u: System, budget: Optional[int] = None,
                      stop_after: Optional[int] = None) -> SaturationReport:
    field = u.field
    npts = pg_num_points(field.order, u.k)
    cap = budget if budget is not None else config.POINT_BUDGET
    if npts > cap:
        raise BudgetExceeded(f"{npts} projective points exceed budget {cap}")
    if u.is_zero or not spans_ambient(u):
        return SaturationReport(u, None, {}, {})
    ls = linear_set(u)
    marked = np.zeros(npts, dtype=bool)
    marked[ls.indices()] = True
    witnesses: dict[int, Point] = {}
    coverage: dict[int, int] = {}
    rho = 1
    spts = ls.points
    while True:
        coverage[rho] = int(marked.sum())
        if marked.all():
            return SaturationReport(u, rho, witnesses, coverage)
        first_un = int(np.argmin(marked))
        witnesses[rho] = Point(field, point_unrank(field, u.k,
                                                   np.asarray([first_un]))[0])
        if stop_after is not None and rho >= stop_after:
            return SaturationReport(u, None, witnesses, coverage)
        if rho > u.k:
            raise AssertionError("spanning system must saturate by rho = k")
        if rho == 1:
            _mark_secants(field, spts, marked)
        else:
            un_idx = np.nonzero(~marked)[0]
            un_pts = point_unrank(field, u.k, un_idx)
            hit = np.zeros(len(un_idx), dtype=bool)
            # a fiber is a line through the center minus the center: q^m
            # points, so fewer unmarked ones means it meets the marked set
            for center in spts:
                idx, _ = _project(field, center, un_pts)
                hit |= np.bincount(idx)[idx] < field.order
            marked[un_idx[hit]] = True
        rho += 1


def is_rank_saturating(u: System, rho: int, budget: Optional[int] = None) -> bool:
    """Exact predicate: saturating_index(u) == rho (minimality included)."""
    report = saturation_report(u, budget=budget, stop_after=rho)
    return report.rho == rho


def saturates_within(u: System, rho: int, budget: Optional[int] = None) -> bool:
    """At-most predicate: the index exists and is <= rho."""
    report = saturation_report(u, budget=budget, stop_after=rho)
    return report.rho is not None and report.rho <= rho


# ----------------------------------------------------------------------
# codes and the rank covering radius
# ----------------------------------------------------------------------

class Code:
    """A rank-metric code given by a row-reduced generator matrix."""

    __slots__ = ("field", "n", "gen")

    def __init__(self, field: Field, n: int, rows: Sequence[Sequence[int]]):
        self.field = field
        self.n = n
        red = fqm_rref(field, [list(r) for r in rows])
        self.gen = tuple(tuple(r) for r in red)

    @property
    def dim(self) -> int:
        return len(self.gen)

    def __repr__(self):
        return f"Code(n={self.n}, dim={self.dim}, order={self.field.order})"

    def codewords(self, budget: Optional[int] = None) -> np.ndarray:
        field = self.field
        total = field.order ** self.dim
        cap = budget if budget is not None else config.COVERING_BUDGET
        if total > cap:
            raise BudgetExceeded(f"{total} codewords exceed budget {cap}")
        out = np.zeros((total, self.n), dtype=np.int64)
        idx = np.arange(total)
        for i, row in enumerate(self.gen):
            coeff = (idx // field.order ** i) % field.order
            out = field.vadd(out, field.vmul(coeff[:, None],
                                             np.asarray(row, dtype=np.int64)[None, :]))
        return out

    def dual(self) -> "Code":
        """Right kernel w.r.t. the standard inner product."""
        field, n = self.field, self.n
        rows = [list(r) for r in self.gen]
        red = fqm_rref(field, rows)
        pivots = []
        for r in red:
            pivots.append(next(i for i, z in enumerate(r) if z))
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for j in free:
            vec = [0] * n
            vec[j] = 1
            for r, piv in zip(red, pivots):
                vec[piv] = field.neg(r[j])
            basis.append(vec)
        return Code(field, n, basis)


def code_from_system(u: System) -> Code:
    """The code whose generator's columns are the canonical F_q-basis of U."""
    if u.rank < 1:
        raise ValueError("code_from_system needs rank >= 1")
    rows = [[u.basis[j][i] for j in range(u.rank)] for i in range(u.k)]
    return Code(u.field, u.rank, rows)


def rank_weight(field: Field, x: Sequence[int]) -> int:
    """F_q-dimension of the span of the vector's entries."""
    return fq_span_dim(field, list(x))


def rank_weight_batch(field: Field, xs: np.ndarray) -> np.ndarray:
    coords = field.fq_coords_vec(np.asarray(xs, dtype=np.int64))
    return fq_rank_batch(field, coords)


def _all_vectors(field: Field, n: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((len(idx), n), dtype=np.int64)
    for i in range(n):
        out[:, i] = (idx // field.order ** i) % field.order
    return out


def covering_radius(code: Code, method: str = "syndrome",
                    budget: Optional[int] = None) -> int:
    """max over ambient x of min over codewords c of rank_weight(x - c).

    method 'syndrome' sweeps the ambient space once, folding minima per
    coset; method 'full' enumerates codewords explicitly per chunk.  Both
    paths are kept for cross-checking.
    """
    field, n = code.field, code.n
    total = field.order ** n
    cap = budget if budget is not None else config.COVERING_BUDGET
    if total > cap:
        raise BudgetExceeded(f"{total} ambient vectors exceed budget {cap}")
    if code.dim == n:
        return 0
    if method == "full":
        return _covering_radius_full(code)
    if method != "syndrome":
        raise ValueError(f"unknown method {method!r}")
    dualgen = code.dual().gen
    r = len(dualgen)
    hmat = np.asarray(dualgen, dtype=np.int64)
    mins = np.full(field.order ** r, np.iinfo(np.int64).max, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, n * field.m))
    for start in range(0, total, chunk):
        xs = _all_vectors(field, n, start, min(start + chunk, total))
        rw = rank_weight_batch(field, xs)
        syn = np.zeros((len(xs), r), dtype=np.int64)
        for j in range(r):
            acc = np.zeros(len(xs), dtype=np.int64)
            for i in range(n):
                acc = field.vadd(acc, field.vmul(xs[:, i], int(hmat[j, i])))
            syn[:, j] = acc
        key = np.zeros(len(xs), dtype=np.int64)
        for j in range(r):
            key = key * field.order + syn[:, j]
        np.minimum.at(mins, key, rw)
    assert mins.max() < np.iinfo(np.int64).max
    return int(mins.max())


def _covering_radius_full(code: Code) -> int:
    field, n = code.field, code.n
    words = code.codewords()
    total = field.order ** n
    best = 0
    chunk = max(1, (1 << 20) // max(1, len(words)))
    for start in range(0, total, chunk):
        xs = _all_vectors(field, n, start, min(start + chunk, total))
        mn = np.full(len(xs), np.iinfo(np.int64).max, dtype=np.int64)
        for c in words:
            diff = field.vsub(xs, c[None, :])
            mn = np.minimum(mn, rank_weight_batch(field, diff))
        best = max(best, int(mn.max()))
    return best


# ----------------------------------------------------------------------
# bounds and known values
# ----------------------------------------------------------------------

def _check_rho(k: int, m: int, rho: int):
    if not 1 <= rho <= min(k, m):
        raise InvalidRho(f"rho={rho} outside [1, min(k={k}, m={m})]")


def lower_bound(q: int, m: int, k: int, rho: int) -> int:
    """The three-branch lower bound on the minimal saturating rank."""
    _check_rho(k, m, rho)
    if q > 2:
        return -(-m * k // rho) - m + rho
    if rho > 1:
        return -(-(m * k - 1) // rho) - m + rho
    return m * (k - 1) + 1


def upper_bound(m: int, k: int, rho: int) -> int:
    _check_rho(k, m, rho)
    return m * (k - rho) + rho


@dataclass(frozen=True)
class KnownValue:
    lo: int
    hi: int
    source: str


def known_value(q: int, m: int, k: int, rho: int) -> Optional[KnownValue]:
    """Conclusion-table rows with their applicability conditions evaluated.

    Returns the intersection of every applicable row as (lo, hi, sources),
    or None when no row applies.
    """
    _check_rho(k, m, rho)
    rows: list[KnownValue] = []
    pp = prime_power(q)

    if rho >= 1 and k % rho == 0:
        t = k // rho
        v = m * (t - 1) + rho
        rows.append(KnownValue(v, v, "moore(k=rho*t)"))
    if rho == 1:
        v = m * (k - 1) + 1
        rows.append(KnownValue(v, v, "rho=1"))
    if rho == k:
        rows.append(KnownValue(k, k, "rho=k"))
    if m == 2 and rho == 2 and k >= 2:
        rows.append(KnownValue(k, k, "m=2"))
    if m == 3 and k == 3 and rho == 2:
        rows.append(KnownValue(4, 4, "m=3,k=3"))
    if k == 3 and rho == 2 and m % 2 == 0 and m >= 8:
        r = m // 2
        if r >= 4 and r % 6 not in (3, 5):
            rows.append(KnownValue(r + 2, r + 2, "m=2r,r!=3,5 mod 6"))
        if r % 2 == 1 and all(p > q * q - q + 1 for p in prime_factors(r)):
            rows.append(KnownValue(r + 2, r + 2, "m=2r,gcd-factorial"))
        if r % 2 == 1 and pp is not None:
            p, e = pp
            if (p % 2 == 1 and q % 5 in (2, 3)) or (p == 2 and e % 2 == 1 and e >= 3):
                rows.append(KnownValue(r + 2, r + 2, "m=2r,r odd,q form"))
        if r >= 4:
            rows.append(KnownValue(lower_bound(q, m, k, rho), r + 3,
                                   "m=2r upper r+3"))
    if m == 10 and k == 3 and rho == 2 and pp is not None:
        p, e = pp
        if (p in (2, 3) and math.gcd(e % 15, 15) == 1) or (p == 5 and e % 15 == 1):
            rows.append(KnownValue(7, 7, "m=10 tower"))
        if (p % 2 == 1 and q % 5 in (2, 3)) or (p == 2 and e % 2 == 1 and e >= 3):
            rows.append(KnownValue(7, 7, "m=10 q form"))
    if m == k and m % 2 == 0 and m >= 4 and rho == k - 1:
        rows.append(KnownValue(k + 1, k + 1, "k=m=2r,rho=2r-1"))
    if m == 4 and k == 3 and rho == 2:
        rows.append(KnownValue(lower_bound(q, m, k, rho), 5, "rank5 example"))
        if q in (2, 3):
            rows.append(KnownValue(5, 5, "computed q=2,3"))
        elif q % 2 == 0 and q >= 64:
            rows.append(KnownValue(5, 5, "even q large (asymptotic)"))
    if rho == k - 1 and m % (k - 1) == 0 and k >= 2 and m // (k - 1) >= 1:
        r = m // (k - 1)
        rows.append(KnownValue(lower_bound(q, m, k, rho), 2 * k + r - 2,
                               "cutting blocking sets"))
    # subgeometry family: m = t*r, rho = t(r-1)+1, k = rho + h
    for t in range(2, m + 1):
        if m % t:
            continue
        r = m // t
        if r < 2:
            continue
        if rho == t * (r - 1) + 1 and k >= rho:
            h = k - rho
            rows.append(KnownValue(lower_bound(q, m, k, rho), t * h + rho,
                                   "subgeometries"))
    if m % 2 == 0 and m >= 4 and rho == m - 2 and rho >= 1:
        # k = r(m-2)/2 for odd r >= 3
        num = 2 * k
        if num % (m - 2) == 0:
            r = num // (m - 2)
            cond = (r == 3 and (m < 12 if q > 2 else m < 10)) or (r > 3 and r % 2 == 1)
            if r >= 3 and r % 2 == 1 and cond:
                rows.append(KnownValue(m * r // 2 - 2, m * r // 2 - 1,
                                       "max (m-3)-scattered"))
    if rho == 2 and (m * k) % 2 == 0 and k >= 2:
        lo = -(-m * (k - 2) // 2) + 2
        rows.append(KnownValue(lo, m * (k - 1) // 2 + 1, "h=1 scattered"))
    if m == 5 and k == 3 and rho == 2 and pp is not None and pp[0] in (2, 3, 5):
        rows.append(KnownValue(5, 6, "m=5 towers"))

    if not rows:
        return None
    # clip to the generic bounds: some literature rows are weaker than them
    lo = max([r.lo for r in rows] + [lower_bound(q, m, k, rho)])
    hi = min([r.hi for r in rows] + [upper_bound(m, k, rho)])
    if lo > hi:
        raise FieldMismatch(
            f"inconsistent known-value rows at (q={q}, m={m}, k={k}, rho={rho})")
    src = ";".join(sorted({r.source for r in rows if r.lo == lo or r.hi == hi}))
    return KnownValue(lo, hi, src)

