"""Slow, independent reference implementations used as test oracles.

Everything here works on explicit little-endian coefficient lists over F_p
with textbook algorithms and no tables, so it shares no code path with the
package under test.
"""

from __future__ import annotations


class RefField:
    """Reference F_p[x]/(modulus) arithmetic on integer encodings."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = list(modulus)
        self.deg = len(modulus) - 1
        self.order = p ** self.deg

    def digits(self, z):
        out = []
        for _ in range(self.deg):
            out.append(z % self.p)
            z //= self.p
        return out

    def undigits(self, ds):
        out = 0
        for d in reversed(ds):
            out = out * self.p + d % self.p
        return out

    def add(self, x, y):
        dx, dy = self.digits(x), self.digits(y)
        return self.undigits([(u + v) % self.p for u, v in zip(dx, dy)])

    def neg(self, x):
        return self.undigits([(-d) % self.p for d in self.digits(x)])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        dx, dy = self.digits(x), self.digits(y)
        prod = [0] * (2 * self.deg)
        for i, ci in enumerate(dx):
            for j, cj in enumerate(dy):
                prod[i + j] = (prod[i + j] + ci * cj) % self.p
        # long division by the monic modulus
        for top in range(len(prod) - 1, self.deg - 1, -1):
            c = prod[top]
            if c:
                for i in range(self.deg + 1):
                    prod[top - self.deg + i] = (
                        prod[top - self.deg + i] - c * self.modulus[i]) % self.p
        return self.undigits(prod[:self.deg])

    def pow(self, z, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, z)
            z = self.mul(z, z)
            e >>= 1
        return r

    def inv(self, z):
        return self.pow(z, self.order - 2)


def ref_rank_mod_p(rows, p):
    """Row rank of a matrix over F_p (lists of ints)."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * s) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col]
                rows[r] = [(v - c * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def ref_fq_rank(field, rows):
    """Rank over F_q of a matrix whose entries live in the middle subfield."""
    rows = [list(r) for r in rows]
    rank = 0
    if not rows:
        return 0
    ncols = len(rows[0])
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = field.inv(rows[rank][col])
        rows[rank] = [field.mul(v, s) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [field.sub(v, field.mul(c, w))
                           for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def ref_point_saturated(field, points, target, rho):
    """Is target in the span of at most rho of the points, over `field`?

    Depth-first growth of independent subsets with a span test at each
    node; points and target are coordinate sequences of field encodings.
    """
    points = [list(p) for p in points]
    target = list(target)

    def rec(start, rows):
        if rows and ref_fq_rank(field, rows + [target]) == len(rows):
            return True
        if len(rows) == rho:
            return False
        for i in range(start, len(points)):
            grown = rows + [points[i]]
            if ref_fq_rank(field, grown) == len(grown) and rec(i + 1, grown):
                return True
        return False

    return rec(0, [])
