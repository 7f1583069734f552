"""Linear algebra over F_q and F_{q^m}.

A System is an F_q-subspace of F_{q^m}^k held in a canonical form: the
reduced row echelon form over F_q of its n x (m*k) base-field expansion,
taken w.r.t. the power basis 1, g, .., g^{m-1} of the field generator.
Two Systems are equal as subspaces iff their canonical forms are equal.

An FqmSubspace is an F_{q^m}-subspace in reduced echelon form over the big
field.  Batched rank kernels (bit-packed for q = 2, table-driven otherwise)
back the performance-critical weight and covering-radius scans.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import config
from .errors import FieldMismatch
from .gf import Field


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over F_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


# ----------------------------------------------------------------------
# scalar elimination: RREF, linear solves and determinants
# ----------------------------------------------------------------------

def _eliminate(field: Field, rows: list[list[int]], ncols: int,
               want_det: bool = False) -> tuple[int, list[int], int]:
    """Gauss-Jordan elimination in place, pivoting on the first ncols columns.

    Returns (rank, pivot columns, d): rows[:rank] are then the reduced pivot
    rows, and with want_det, d is the product of the pivots times the sign
    of the row swaps (the determinant when the input is square of full rank).
    """
    mul, sub = field.mul, field.sub
    nrows = len(rows)
    pivots: list[int] = []
    d = 1
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            if want_det:
                d = field.neg(d)
        prow = rows[rank]
        a = prow[col]
        if want_det:
            d = mul(d, a)
        if a != 1:
            s = field.inv(a)
            prow = rows[rank] = [mul(v, s) for v in prow]
        for r in range(nrows):
            if r != rank:
                c = rows[r][col]
                if c:
                    rows[r] = [sub(v, mul(c, w)) for v, w in zip(rows[r], prow)]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots, d


def fq_rref(field: Field, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Reduced row echelon form over F_q; zero rows dropped."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    rank, _, _ = _eliminate(field, rows, len(rows[0]))
    return rows[:rank]


def solve(field: Field, cols: Sequence[Sequence[int]],
          target: Sequence[int]) -> Optional[list[int]]:
    """A solution x of sum_i x_i * cols[i] = target, or None if inconsistent.

    The particular solution: pivot variables are read from the reduced
    target column and free variables are 0.
    """
    n = len(cols)
    aug = [[col[r] for col in cols] + [t] for r, t in enumerate(target)]
    rank, pivots, _ = _eliminate(field, aug, n)
    if any(row[n] for row in aug[rank:]):
        return None
    sol = [0] * n
    for row, col in zip(aug, pivots):
        sol[col] = row[n]
    return sol


def det(field: Field, mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square matrix over the big field."""
    rows = [list(r) for r in mat]
    rank, _, d = _eliminate(field, rows, len(rows), want_det=True)
    return d if rank == len(rows) else 0


def fq_rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    return len(fq_rref(field, rows))


def fqm_rref(field: Field, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """RREF over the big field F_{q^m} (same routine, full arithmetic)."""
    return fq_rref(field, rows)  # entry arithmetic is identical


# ----------------------------------------------------------------------
# batched ranks
# ----------------------------------------------------------------------

def gf2_rank_batch(mat: np.ndarray, ncols: int) -> np.ndarray:
    """Ranks of a batch of GF(2) matrices given as bit-packed rows.

    mat has shape (B, n) with each entry an integer bitmask of ncols bits.
    """
    mat = mat.astype(np.int64).copy()
    B, n = mat.shape
    done = np.zeros(B, dtype=np.int64)
    bidx = np.arange(B)
    ridx = np.arange(n)
    for c in range(ncols):
        bit = (mat >> c) & 1
        cand = (bit == 1) & (ridx[None, :] >= done[:, None])
        has = cand.any(axis=1)
        piv = np.argmax(cand, axis=1)
        # swap pivot row into slot `done`
        sel = bidx[has]
        pr, dr = piv[has], done[has]
        tmp = mat[sel, pr].copy()
        mat[sel, pr] = mat[sel, dr]
        mat[sel, dr] = tmp
        # eliminate the column everywhere except the pivot slot
        pivrow = np.zeros(B, dtype=np.int64)
        pivrow[sel] = mat[sel, dr]
        bit = (mat >> c) & 1
        elim = bit * pivrow[:, None]
        elim[sel, dr] = 0
        mat ^= elim
        done += has
        if done.min() >= n:
            break
    return done


def fq_rank_batch(field: Field, mats: np.ndarray) -> np.ndarray:
    """Ranks over F_q of a batch of matrices (B, n, c) of subfield encodings."""
    B, n, ncols = mats.shape
    if field.q == 2:
        packed = np.zeros((B, n), dtype=np.int64)
        for c in range(ncols):
            packed |= (mats[:, :, c] & 1) << c
        return gf2_rank_batch(packed, ncols)
    mats = mats.astype(np.int64).copy()
    done = np.zeros(B, dtype=np.int64)
    bidx = np.arange(B)
    ridx = np.arange(n)
    for c in range(ncols):
        col = mats[:, :, c]
        cand = (col != 0) & (ridx[None, :] >= done[:, None])
        has = cand.any(axis=1)
        piv = np.argmax(cand, axis=1)
        sel = bidx[has]
        pr, dr = piv[has], done[has]
        tmp = mats[sel, pr].copy()
        mats[sel, pr] = mats[sel, dr]
        mats[sel, dr] = tmp
        # normalize pivot rows
        pv = mats[sel, dr, c]
        mats[sel, dr] = field.vmul(mats[sel, dr], field.vinv(pv)[:, None])
        # eliminate below and above
        pivrow = np.zeros((B, ncols), dtype=np.int64)
        pivrow[sel] = mats[sel, dr]
        factor = mats[:, :, c].copy()
        if len(sel):
            factor[sel, dr] = 0
        factor[~has] = 0
        mats = field.vsub(mats, field.vmul(factor[:, :, None], pivrow[:, None, :]))
        done += has
        if done.min() >= n:
            break
    return done


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------

class System:
    """An F_q-subspace of F_{q^m}^k in canonical base-field row-reduced form."""

    __slots__ = ("field", "k", "canonical", "rank", "basis", "is_zero")

    def __init__(self, field: Field, k: int, canonical_rows: Sequence[Sequence[int]]):
        self.field = field
        self.k = k
        self.canonical = tuple(tuple(r) for r in canonical_rows)
        self.rank = len(self.canonical)
        self.is_zero = self.rank == 0
        m = field.m
        basis = []
        for row in self.canonical:
            vec = tuple(field.from_fq_coords(row[j * m:(j + 1) * m]) for j in range(k))
            basis.append(vec)
        self.basis = tuple(basis)

    def __eq__(self, other):
        return (isinstance(other, System) and self.field.same_as(other.field)
                and self.k == other.k and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.k, self.canonical))

    def __repr__(self):
        return f"System(k={self.k}, rank={self.rank}, q={self.field.q}^m={self.field.m})"

    def vectors(self) -> np.ndarray:
        """All q^rank vectors of the subspace, shape (q^rank, k)."""
        field, n = self.field, self.rank
        total = field.q ** n
        config.check_budget("VECTOR_BUDGET", total, "subspace vectors")
        mids = np.asarray(field.subfield_elements("mid"), dtype=np.int64)
        out = np.zeros((total, self.k), dtype=np.int64)
        idx = np.arange(total)
        gens = np.asarray(self.basis, dtype=np.int64)
        for i in range(n):
            coeff = mids[(idx // (field.q ** i)) % field.q]
            out = field.vadd(out, field.vmul(coeff[:, None], gens[i][None, :]))
        return out

    def expanded_rows(self) -> list[list[int]]:
        return [list(r) for r in self.canonical]


def expand_vector(field: Field, vec: Sequence[int]) -> list[int]:
    """Base-field expansion of one vector: k blocks of m F_q-coordinates."""
    out = []
    for z in vec:
        out.extend(field.fq_coords(z))
    return out


def system_create(field: Field, k: int, generators: Iterable[Sequence[int]]) -> System:
    """Build the System spanned over F_q by the given vectors.

    Dependent generators are discarded by the row reduction; the zero
    subspace is allowed and flagged via System.is_zero.
    """
    rows = []
    for g in generators:
        g = list(g)
        if len(g) != k:
            raise FieldMismatch(f"generator of length {len(g)}, ambient k={k}")
        for z in g:
            field.check(z)
        rows.append(expand_vector(field, g))
    return System(field, k, fq_rref(field, rows))


class FqmSubspace:
    """An h-dimensional F_{q^m}-subspace of F_{q^m}^k, canonical echelon basis."""

    __slots__ = ("field", "k", "rows")

    def __init__(self, field: Field, k: int, rows: Sequence[Sequence[int]]):
        self.field = field
        self.k = k
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, FqmSubspace) and self.field.same_as(other.field)
                and self.k == other.k and self.rows == other.rows)

    def __hash__(self):
        return hash((self.k, self.rows))

    def __repr__(self):
        return f"FqmSubspace(k={self.k}, dim={self.dim})"

    def fq_expansion_rows(self) -> list[list[int]]:
        """The underlying F_q-space: m scalar multiples of each basis row."""
        field = self.field
        out = []
        for row in self.rows:
            for i in range(field.m):
                scaled = [field.mul(field.power_basis[i], z) for z in row]
                out.append(expand_vector(field, scaled))
        return out


def fqm_subspace(field: Field, k: int, rows: Iterable[Sequence[int]]) -> FqmSubspace:
    red = fqm_rref(field, [list(r) for r in rows])
    return FqmSubspace(field, k, red)


def dim_intersection(u: System, w: FqmSubspace) -> int:
    """dim_Fq(U intersect W) via the joint base-field system."""
    if not u.field.same_as(w.field) or u.k != w.k:
        raise FieldMismatch("intersection needs matching field and ambient")
    w_rows = w.fq_expansion_rows()
    stacked = list(u.canonical) + w_rows
    total = fq_rank(u.field, stacked)
    return u.rank + w.dim * u.field.m - total


def fq_span_dim(field: Field, elements: Iterable[int]) -> int:
    """F_q-dimension of the span of the given big-field elements."""
    rows = [list(field.fq_coords(z)) for z in elements]
    return fq_rank(field, rows)


def fqm_rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    return len(fqm_rref(field, rows))


def echelon_blocks(nrows: int, ncols: int, base: int,
                   chunk: int) -> Iterator[np.ndarray]:
    """Every nrows x ncols reduced echelon matrix of rank nrows, as digits.

    Yields int64 arrays of shape (T, nrows, ncols) with T <= chunk, unit
    pivots and free entries in range(base).  Pivot patterns come in
    itertools.combinations order; within a pattern, the free entries, row by
    row and left to right, are the little-endian base-`base` digits of a
    counter running from 0.  Callers map digits to field elements.
    """
    for pivots in itertools.combinations(range(ncols), nrows):
        free = [(i, j) for i in range(nrows) for j in range(pivots[i] + 1, ncols)
                if j not in pivots]
        total = base ** len(free)
        for start in range(0, total, chunk):
            v = np.arange(start, min(start + chunk, total), dtype=np.int64)
            block = np.zeros((len(v), nrows, ncols), dtype=np.int64)
            block[:, range(nrows), pivots] = 1
            for (i, j) in free:
                v, block[:, i, j] = np.divmod(v, base)
            yield block


def spans_ambient(u: System) -> bool:
    """Does U span F_{q^m}^k over the big field?"""
    return fqm_rank(u.field, [list(b) for b in u.basis]) == u.k
