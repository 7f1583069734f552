"""Table-free reference arithmetic and brute-force checkers.

Everything here is textbook polynomial arithmetic over F_p modulo the
field's modulus, written apart from `ranksat.gf`: it shares no table and no
code with the program.  The only thing taken from the program is the
modulus itself, which names the field.  Bulk work is vectorised with numpy;
small fields may build their own multiplication and power tables from the
same textbook product.

Elements are encoded like the program's field elements: the integer
sum(c_i * p^i) of the coefficients c_i of the representative polynomial.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class RefField:
    """F_p[x] / (modulus), with `deg = len(modulus) - 1`."""

    def __init__(self, p: int, modulus: Sequence[int]):
        self.p = p
        self.modulus = tuple(int(c) % p for c in modulus)
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.deg = len(self.modulus) - 1
        self.order = p ** self.deg
        self._mod_int = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else None
        self._inv_table = None
        self._mul_table = None
        self._pow_table = None

    # -- scalar arithmetic ----------------------------------------------

    def digits(self, z: int) -> list[int]:
        out = []
        for _ in range(self.deg):
            out.append(z % self.p)
            z //= self.p
        return out

    def undigits(self, ds: Sequence[int]) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + d % self.p
        return out

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        return self.undigits([a + b for a, b in zip(self.digits(x), self.digits(y))])

    def sub(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        return self.undigits([a - b for a, b in zip(self.digits(x), self.digits(y))])

    def mul(self, x: int, y: int) -> int:
        if self.p == 2:
            prod, i = 0, 0
            while y >> i:
                if (y >> i) & 1:
                    prod ^= x << i
                i += 1
            for b in range(prod.bit_length() - 1, self.deg - 1, -1):
                if (prod >> b) & 1:
                    prod ^= self._mod_int << (b - self.deg)
            return prod
        p, deg, mod = self.p, self.deg, self.modulus
        dx, dy = self.digits(x), self.digits(y)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(dx):
            for j, b in enumerate(dy):
                prod[i + j] += a * b
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(deg + 1):
                    prod[k - deg + j] -= c * mod[j]
        return self.undigits([c % p for c in prod[:deg]])

    def pow(self, z: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, z)
            z = self.mul(z, z)
            e >>= 1
        return out

    def inv(self, z: int) -> int:
        if z == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(z, self.order - 2)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def primitive_element(self) -> int:
        n = self.order - 1
        facs = prime_factors(n)
        for z in range(2, self.order):
            if all(self.pow(z, n // ell) != 1 for ell in facs):
                return z
        raise ValueError("no primitive element: modulus is not irreducible")

    # -- vectorised arithmetic -------------------------------------------

    def _vdigits(self, x: np.ndarray) -> list[np.ndarray]:
        out = []
        for _ in range(self.deg):
            out.append(x % self.p)
            x = x // self.p
        return out

    def _vundigits(self, ds: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(np.shape(ds[0]), dtype=np.int64)
        for d in reversed(ds):
            out = out * self.p + d % self.p
        return out

    def vadd(self, x, y) -> np.ndarray:
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        if self.p == 2:
            return x ^ y
        return self._vundigits([a + b for a, b in zip(self._vdigits(x), self._vdigits(y))])

    def vsub(self, x, y) -> np.ndarray:
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        if self.p == 2:
            return x ^ y
        return self._vundigits([a - b for a, b in zip(self._vdigits(x), self._vdigits(y))])

    def vmul(self, x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.int64),
                                   np.asarray(y, dtype=np.int64))
        deg = self.deg
        if self.p == 2:
            acc = np.zeros(x.shape, dtype=np.int64)
            for i in range(deg):
                acc ^= np.where((y >> i) & 1 == 1, x << i, 0)
            for b in range(2 * deg - 2, deg - 1, -1):
                acc ^= np.where((acc >> b) & 1 == 1, self._mod_int << (b - deg), 0)
            return acc
        p, mod = self.p, self.modulus
        dx, dy = self._vdigits(x), self._vdigits(y)
        prod = [np.zeros(x.shape, dtype=np.int64) for _ in range(2 * deg - 1)]
        for i in range(deg):
            for j in range(deg):
                prod[i + j] = prod[i + j] + dx[i] * dy[j]
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k] % p
            for j in range(deg + 1):
                prod[k - deg + j] = prod[k - deg + j] - c * mod[j]
        return self._vundigits([c % p for c in prod[:deg]])

    def vpow(self, x, e: int) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        out = np.ones(x.shape, dtype=np.int64)
        while e:
            if e & 1:
                out = self.vmul(out, x)
            x = self.vmul(x, x)
            e >>= 1
        return out

    # -- tables for small fields, built from the textbook product -----------

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def inv_table(self) -> np.ndarray:
        """inv_table()[z] = z^-1 (and 0 -> 0); small fields only."""
        if self._inv_table is None:
            t = self.vpow(self.elements(), self.order - 2)
            t[0] = 0
            self._inv_table = t
        return self._inv_table

    def mul_table(self) -> np.ndarray:
        if self._mul_table is None:
            e = self.elements()
            self._mul_table = self.vmul(e[:, None], e[None, :])
        return self._mul_table

    def pow_table(self) -> np.ndarray:
        """pow_table()[z, e] = z^e for 0 <= e < order, with 0^0 = 1."""
        if self._pow_table is None:
            n = self.order
            e = self.elements()
            t = np.ones((n, n), dtype=np.int64)
            for k in range(1, n):
                t[:, k] = self.vmul(t[:, k - 1], e)
            self._pow_table = t
        return self._pow_table

    def fold_exponent(self, e: int) -> int:
        """An exponent in [0, order) giving the same function as z^e."""
        return 0 if e == 0 else (e - 1) % (self.order - 1) + 1

    def subfield(self, q: int) -> np.ndarray:
        """The elements z with z^q = z, ascending (small fields only)."""
        e = self.elements()
        return e[self.vpow(e, q) == e]


# ----------------------------------------------------------------------
# F_2-linear maps of a binary field, applied through byte tables
# ----------------------------------------------------------------------

class BinaryLinearMap:
    """The F_2-linear map of F_{2^n} sending bit i to images[i]."""

    def __init__(self, images: Sequence[int]):
        self.n = len(images)
        self.tables = []
        for c in range((self.n + 7) // 8):
            t = np.zeros(256, dtype=np.int64)
            for byte in range(256):
                acc = 0
                for b in range(8):
                    i = 8 * c + b
                    if (byte >> b) & 1 and i < self.n:
                        acc ^= images[i]
                t[byte] = acc
            self.tables.append(t)

    @classmethod
    def of(cls, field: RefField, fn) -> "BinaryLinearMap":
        return cls([fn(1 << i) for i in range(field.deg)])

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(x), dtype=np.int64)
        for c, t in enumerate(self.tables):
            out ^= t[(x >> (8 * c)) & 0xFF]
        return out


class BinaryVectorOps:
    """Bulk products and inverses in F_{2^n} for arrays too large for tables."""

    def __init__(self, field: RefField):
        if field.p != 2:
            raise ValueError("binary fields only")
        self.field = field
        self._frob: dict[int, BinaryLinearMap] = {}

    def frob(self, x: np.ndarray, j: int) -> np.ndarray:
        """x^(2^j), a linear map."""
        m = self._frob.get(j)
        if m is None:
            f = self.field
            m = BinaryLinearMap.of(f, lambda z: f.pow(z, 1 << j))
            self._frob[j] = m
        return m.apply(x)

    def inv(self, x: np.ndarray) -> np.ndarray:
        """Itoh-Tsujii: a = x^(2^(n-1) - 1) by an addition chain, x^-1 = a^2."""
        n1 = self.field.deg - 1
        bits = bin(n1)[3:]
        a, k = x, 1
        for bit in bits:
            a = self.field.vmul(self.frob(a, k), a)
            k *= 2
            if bit == "1":
                a = self.field.vmul(self.frob(a, 1), x)
                k += 1
        return self.frob(a, 1)


# ----------------------------------------------------------------------
# vectors, spans, points (small fields: order <= 4096)
# ----------------------------------------------------------------------

def encode_rows(field: RefField, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        out = out * field.order + rows[:, j]
    return out


def fq_span(field: RefField, q: int, gens: Iterable[Sequence[int]], k: int) -> np.ndarray:
    """Every F_q-combination of the generators, shape (N, k), duplicates kept."""
    fq = field.subfield(q)
    cur = np.zeros((1, k), dtype=np.int64)
    for g in gens:
        g = np.asarray(g, dtype=np.int64)
        scaled = field.vmul(fq[:, None], g[None, :])          # (q, k)
        cur = field.vadd(cur[:, None, :], scaled[None, :, :]).reshape(-1, k)
    return cur


def normalize_points(field: RefField, vecs: np.ndarray) -> np.ndarray:
    """Distinct projective points of the nonzero rows, first nonzero entry 1."""
    vecs = np.asarray(vecs, dtype=np.int64)
    vecs = vecs[(vecs != 0).any(axis=1)]
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    rows = field.vmul(vecs, field.inv_table()[lead][:, None])
    return np.unique(rows, axis=0)


def row_rank(field: RefField, rows: Sequence[Sequence[int]]) -> int:
    """Rank over the whole field by Gaussian elimination."""
    rows = [list(map(int, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = field.inv(rows[rank][col])
        rows[rank] = [field.mul(s, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [field.sub(v, field.mul(c, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def in_rows(field: RefField, points: np.ndarray, point: Sequence[int]) -> bool:
    return bool((encode_rows(field, points) == encode_rows(field, np.asarray([point]))[0]).any())


def projection_collides(field: RefField, points: np.ndarray, center: Sequence[int]) -> bool:
    """Does projecting the point set from `center` identify two points (or
    hit the center itself)?  False means the center lies on no secant."""
    center = np.asarray(center, dtype=np.int64)
    j = int(np.argmax(center != 0))
    cn = field.vmul(center, field.inv_table()[center[j]])
    img = field.vsub(points, field.vmul(points[:, j:j + 1], cn[None, :]))
    if not (img != 0).any(axis=1).all():
        return True
    return len(normalize_points(field, img)) < len(points)


def secant_closure(field: RefField, points: np.ndarray) -> np.ndarray:
    """Every point on a line through two of the given points (and the points)."""
    n = len(points)
    ii, jj = np.triu_indices(n, 1)
    elems = field.elements()
    lines = field.vadd(points[ii][:, None, :],
                       field.vmul(elems[None, :, None], points[jj][:, None, :]))
    return normalize_points(field, np.concatenate([points, lines.reshape(-1, points.shape[1])]))


# ----------------------------------------------------------------------
# closed forms from the paper
# ----------------------------------------------------------------------

def lower_bound(q: int, m: int, k: int, rho: int) -> int:
    """Bonini-Borello-Byrne lower bound on the rank of a rho-saturating system."""
    if q > 2:
        return -(-m * k // rho) - m + rho
    if rho > 1:
        return -(-(m * k - 1) // rho) - m + rho
    return m * (k - 1) + 1


def upper_bound(m: int, k: int, rho: int) -> int:
    return m * (k - rho) + rho


def pg_size(order: int, k: int) -> int:
    return (order ** k - 1) // (order - 1)


def moore_span(field: RefField, q: int, rho: int, t: int) -> np.ndarray:
    """The block-tower system from its definition: t-1 blocks
    {(x, x^q, .., x^(q^(rho-1))) : x in F_{q^m}} and one block F_q^rho."""
    elems = field.elements()
    block = [elems]
    for _ in range(rho - 1):
        block.append(field.vpow(block[-1], q))
    block = np.stack(block, axis=1)
    fq = field.subfield(q)
    tail = np.stack(np.meshgrid(*([fq] * rho), indexing="ij"), axis=-1).reshape(-1, rho)
    parts = [block] * (t - 1) + [tail]
    cur = np.zeros((1, 0), dtype=np.int64)
    for part in parts:
        cur = np.concatenate([np.repeat(cur, len(part), axis=0),
                              np.tile(part, (len(cur), 1))], axis=1)
    return cur
