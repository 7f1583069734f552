"""q-linearized polynomials and their Dickson matrices.

A LinPoly holds m coefficients c_0..c_{m-1} for the map x -> sum c_i x^(q^i).
Its Dickson matrix has (i, j) entry c_{(j-i) mod m}^(q^i); the matrix is
nonsingular exactly when the map is bijective, which pairs the determinant
with the base-field kernel rank as a two-route check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import Field
from .linalg import det, fq_rank


class LinPoly:
    """sum_i coeffs[i] * x^(q^i) over F_{q^m}."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        coeffs = [field.check(c) for c in coeffs]
        if len(coeffs) > field.m:
            raise ValueError(f"at most m={field.m} coefficients, got {len(coeffs)}")
        coeffs = coeffs + [0] * (field.m - len(coeffs))
        self.field = field
        self.coeffs = tuple(coeffs)

    def __repr__(self):
        return f"LinPoly{self.coeffs}"

    def __call__(self, x: int) -> int:
        fld = self.field
        out = 0
        for i, c in enumerate(self.coeffs):
            if c:
                out = fld.add(out, fld.mul(c, fld.frobenius(x, i)))
        return out

    def eval_vec(self, xs: np.ndarray) -> np.ndarray:
        fld = self.field
        xs = np.asarray(xs, dtype=np.int64)
        out = np.zeros(xs.shape, dtype=np.int64)
        for i, c in enumerate(self.coeffs):
            if c:
                out = fld.vadd(out, fld.vmul(np.int64(c), fld.vfrob(xs, i)))
        return out

    def kernel_dim(self) -> int:
        """F_q-dimension of the kernel, via the base-field matrix rank."""
        fld = self.field
        rows = [list(fld.fq_coords(self(b))) for b in fld.power_basis]
        return fld.m - fq_rank(fld, rows)

    def dickson_matrix(self) -> list[list[int]]:
        fld, m = self.field, self.field.m
        return [[fld.frobenius(self.coeffs[(j - i) % m], i) for j in range(m)]
                for i in range(m)]

    def dickson_det(self) -> int:
        return det(self.field, self.dickson_matrix())


def det_vec(field: Field, mat: list[list[np.ndarray]]) -> np.ndarray:
    """Determinant of a small matrix of equally-shaped arrays (cofactor expansion)."""
    n = len(mat)
    if n == 1:
        return np.asarray(mat[0][0], dtype=np.int64)
    out = None
    for j in range(n):
        minor = [[mat[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = field.vmul(np.asarray(mat[0][j], dtype=np.int64), det_vec(field, minor))
        if j % 2 == 1:
            term = field.vneg(term)
        out = term if out is None else field.vadd(out, term)
    return out
