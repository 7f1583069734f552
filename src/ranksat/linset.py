"""Linear sets L_U in PG(k-1, q^m): points, weights, scatteredness, projection.

A point is a projective coordinate tuple normalized so the first nonzero
coordinate is 1; a perfect ranking of normalized tuples indexes bitmaps in
the saturation scans.  Weights are held sparsely: only points of weight at
least 2 are stored (scattered sets dominate usage).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import config
from .errors import (
    CenterInsideLinearSet,
    CenterOnHyperplane,
    FieldMismatch,
)
from .gf import Field
from .linalg import (
    FqmSubspace,
    System,
    dim_intersection,
    echelon_blocks,
    fq_rank_batch,
    fqm_rank,
    fqm_subspace,
    gaussian_binomial,
    solve,
    spans_ambient,
    system_create,
)


class Point:
    """A point of PG(k-1, q^m), first nonzero coordinate normalized to 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        vec = [field.check(int(z)) for z in coords]
        lead = next((i for i, z in enumerate(vec) if z), None)
        if lead is None:
            raise ValueError("the zero vector spans no point")
        s = field.inv(vec[lead])
        self.field = field
        self.coords = tuple(field.mul(s, z) for z in vec)

    def __eq__(self, other):
        return isinstance(other, Point) and self.coords == other.coords \
            and self.field.same_as(other.field)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Point{self.coords}"

    def as_subspace(self) -> FqmSubspace:
        return fqm_subspace(self.field, len(self.coords), [list(self.coords)])


def pg_num_points(order: int, k: int) -> int:
    return (order ** k - 1) // (order - 1)


# -- vectorized point machinery ------------------------------------------

def normalize_rows(field: Field, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale rows so the first nonzero coordinate is 1.

    Returns (normalized rows, mask of nonzero rows); zero rows pass through.
    """
    vecs = np.asarray(vecs, dtype=np.int64)
    nz = vecs != 0
    ok = nz.any(axis=1)
    lead = np.argmax(nz, axis=1)
    rows = np.arange(len(vecs))
    leadvals = vecs[rows, lead]
    inv = np.ones(len(vecs), dtype=np.int64)
    inv[ok] = field.vinv(leadvals[ok])
    return field.vmul(vecs, inv[:, None]), ok


def point_index(field: Field, coords: np.ndarray) -> np.ndarray:
    """Perfect ranking of normalized points (stable across versions)."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim == 1:
        coords = coords[None, :]
    k = coords.shape[1]
    order = field.order
    lead = np.argmax(coords != 0, axis=1)
    offsets = np.zeros(k + 1, dtype=np.int64)
    for j in range(k):
        offsets[j + 1] = offsets[j] + order ** (k - 1 - j)
    idx = offsets[lead].copy()
    for j in range(1, k):
        sel = lead < j
        idx[sel] += coords[sel, j] * order ** (k - 1 - j)
    return idx


def point_unrank(field: Field, k: int, idx: np.ndarray) -> np.ndarray:
    """Inverse of point_index."""
    idx = np.asarray(idx, dtype=np.int64)
    order = field.order
    offsets = np.zeros(k + 1, dtype=np.int64)
    for j in range(k):
        offsets[j + 1] = offsets[j] + order ** (k - 1 - j)
    lead = np.searchsorted(offsets, idx, side="right") - 1
    rem = idx - offsets[lead]
    out = np.zeros((len(idx), k), dtype=np.int64)
    out[np.arange(len(idx)), lead] = 1
    for j in range(1, k):
        sel = lead < j
        out[sel, j] = (rem[sel] // order ** (k - 1 - j)) % order
    return out


class LinearSet:
    """The point set of a System, with its weight index."""

    def __init__(self, system: System, points: np.ndarray, index: np.ndarray,
                 weights: dict[int, int]):
        self.system = system
        self.points = points              # (N, k) normalized coordinate rows
        self._index = index               # point_index of each row, ascending
        self._weights = weights           # point_index -> weight, only w >= 2
        self._index_set = frozenset(int(i) for i in self._index)

    def __len__(self):
        return len(self.points)

    @property
    def field(self) -> Field:
        return self.system.field

    def indices(self) -> np.ndarray:
        return self._index

    def contains(self, p: Point) -> bool:
        idx = int(point_index(self.field, np.asarray([p.coords]))[0])
        return idx in self._index_set

    def weight_of(self, p: Point) -> int:
        idx = int(point_index(self.field, np.asarray([p.coords]))[0])
        if idx in self._weights:
            return self._weights[idx]
        return 1 if idx in self._index_set else 0

    def weight_index(self) -> dict[int, int]:
        """Full point-index -> weight map (weight-1 entries materialized)."""
        out = {int(i): 1 for i in self._index}
        out.update(self._weights)
        return out


def linear_set(u: System) -> LinearSet:
    """Enumerate, normalize and deduplicate the points of L_U with weights."""
    if u.rank < 1:
        raise ValueError("linear_set needs rank >= 1")
    field = u.field
    q = field.q
    vecs = u.vectors()
    rows, ok = normalize_rows(field, vecs)
    rows = rows[ok]
    idx = point_index(field, rows)
    uniq, first, counts = np.unique(idx, return_index=True, return_counts=True)
    pts = rows[first]
    weights = {}
    for i, cnt in zip(uniq, counts):
        # a point of weight w carries q^w - 1 nonzero vectors of U
        mult = int(cnt)
        if mult > q - 1:
            w = 1
            while q ** w - 1 < mult:
                w += 1
            if q ** w - 1 != mult:
                raise AssertionError("inconsistent point multiplicity")
            weights[int(i)] = w
    return LinearSet(u, pts, uniq, weights)


def weight(u: System, lam: Union[FqmSubspace, Point]) -> int:
    """dim_Fq(U intersect T) for T the vector space underlying lam."""
    if isinstance(lam, Point):
        lam = lam.as_subspace()
    return dim_intersection(u, lam)


def is_scattered(u: System) -> bool:
    """True iff |L_U| is maximal, i.e. every point has weight 1."""
    ls = linear_set(u)
    q = u.field.q
    return len(ls) == (q ** u.rank - 1) // (q - 1)


def max_h_scattered_bound(k: int, m: int, h: int) -> int:
    if not 0 < h < k:
        raise ValueError(f"need 0 < h < k, got h={h}, k={k}")
    return (k * m) // (h + 1)


def is_h_scattered(u: System, h: int) -> tuple[bool, Optional[FqmSubspace]]:
    """Spanning check plus the sweep over all h-subspaces W.

    Returns (verdict, witness): the first W with dim_Fq(W meet U) > h when
    the verdict is False, else None.
    """
    field = u.field
    if not 0 < h < u.k:
        raise ValueError(f"need 0 < h < k, got h={h}, k={u.k}")
    if not spans_ambient(u):
        return False, None
    config.check_budget("SUBSPACE_BUDGET", gaussian_binomial(u.k, h, field.order),
                        f"{h}-subspaces")
    # batched sweep: stack U's expansion under each W's and compare ranks
    witness = _h_scattered_sweep(u, h)
    return witness is None, witness


def _h_scattered_sweep(u: System, h: int) -> Optional[FqmSubspace]:
    field = u.field
    k, m = u.k, field.m
    urows = np.asarray(u.expanded_rows(), dtype=np.int64)  # (n, k*m)
    basis = np.asarray(field.power_basis, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, (u.rank + h * m) * k * m))
    for rows in echelon_blocks(h, k, field.order, chunk):
        T = len(rows)
        # expand the F_q-space underlying each W: m scalings per basis row
        scaled = field.vmul(rows[:, :, None, :], basis[None, None, :, None])
        scaled = scaled.reshape(T, h * m, k)
        wexp = field.fq_coords_vec(scaled).reshape(T, h * m, k * m)
        stacked = np.concatenate(
            [np.broadcast_to(urows, (T, u.rank, k * m)), wexp], axis=1)
        ranks = fq_rank_batch(field, stacked)
        dims = u.rank + h * m - ranks
        bad = np.nonzero(dims > h)[0]
        if len(bad):
            b = int(bad[0])
            return fqm_subspace(field, k, [list(map(int, r)) for r in rows[b]])
    return None


def project(u: System, center: Point, hyperplane: FqmSubspace) -> System:
    """Image of U under projection from the center onto the hyperplane.

    The center must avoid L_U (rank is then preserved) and may not lie on
    the hyperplane; the result is expressed in the hyperplane's basis, an
    ambient of dimension k-1.
    """
    field = u.field
    k = u.k
    if hyperplane.dim != k - 1:
        raise ValueError("projection target must be a hyperplane")
    if weight(u, center) != 0:
        raise CenterInsideLinearSet(f"{center} lies in the linear set")
    hrows = [list(r) for r in hyperplane.rows]
    if fqm_rank(field, hrows + [list(center.coords)]) != k:
        raise CenterOnHyperplane(f"{center} lies on the projection hyperplane")
    # solve [h_1 .. h_{k-1} P]^T a = u for each generator u
    cols = hrows + [list(center.coords)]
    images = []
    for gen in u.basis:
        sol = solve(field, cols, list(gen))
        if sol is None:
            raise FieldMismatch("projection solve inconsistent")
        images.append(sol[:k - 1])
    out = system_create(field, k - 1, images)
    assert out.rank == u.rank, "projection from a weight-0 center preserves rank"
    return out


def coordinate_hyperplane_avoiding(field: Field, k: int, center: Point) -> FqmSubspace:
    """The coordinate hyperplane X_i = 0 with the smallest i off the center."""
    lead = next(i for i, z in enumerate(center.coords) if z)
    rows = [[1 if j == t else 0 for j in range(k)] for t in range(k) if t != lead]
    return fqm_subspace(field, k, rows)
