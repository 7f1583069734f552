"""Arithmetic in the tower F_p <= F_q = F_{p^a} <= F_{q^m} = F_{p^{am}}.

The big field is a single flat extension F_p[x]/(modulus) with the middle
field F_q realized as the fixed set of z -> z^q; one modulus, one arithmetic
path.  An element is an integer in [0, p^(a*m)) encoding the coefficients
c_0..c_{am-1} of its representative polynomial as sum(c_i * p^i).  Encoding 0
is the zero element and encoding 1 the unit.

Fields up to TABLE_THRESHOLD elements get log/antilog tables at creation for
O(1) multiplication and inversion plus numpy-vectorized bulk operations;
larger fields fall back to carry-less polynomial arithmetic (scalar only).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import config, moduli
from .errors import (
    DegreeOutOfRange,
    DivisionByZero,
    FieldMismatch,
    InternalInconsistency,
    NonPrimeCharacteristic,
    OddCharacteristic,
    ReducibleModulus,
)


# ----------------------------------------------------------------------
# F_p[x] helpers (little-endian coefficient lists), used for validation
# ----------------------------------------------------------------------

def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mod(f, mod, p):
    f = [c % p for c in f]
    d = len(mod) - 1
    while len(f) > d:
        c = f[-1]
        if c:
            off = len(f) - 1 - d
            for i in range(d + 1):
                f[off + i] = (f[off + i] - c * mod[i]) % p
        f.pop()
    return _poly_trim(f)


def _poly_mulmod(f, g, mod, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _poly_mod(out, mod, p)


def _poly_powmod(f, e, mod, p):
    r = [1]
    b = _poly_mod(f, mod, p)
    while e:
        if e & 1:
            r = _poly_mulmod(r, b, mod, p)
        b = _poly_mulmod(b, b, mod, p)
        e >>= 1
    return r


def _poly_sub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c % p
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return _poly_trim(out)


def _poly_gcd(f, g, p):
    f, g = _poly_trim([c % p for c in f]), _poly_trim([c % p for c in g])
    while g:
        inv = pow(g[-1], p - 2, p)
        r = list(f)
        while True:
            r = _poly_trim(r)
            if len(r) < len(g):
                break
            c = (r[-1] * inv) % p
            sh = len(r) - len(g)
            for i in range(len(g)):
                r[sh + i] = (r[sh + i] - c * g[i]) % p
        f, g = g, r
    return f


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n < 2^32 here)."""
    out = []
    i = 2
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            while n % i == 0:
                n //= i
        i += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p^e for a prime p, or None when q is no prime power."""
    fac = prime_factors(q)
    if len(fac) != 1:
        return None
    p, e = fac[0], 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def _is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


class BitLinearMap:
    """An F_2-linear map on bit-encoded elements, applied via byte tables.

    Built from the images of the basis bits; apply() costs a handful of
    table gathers per array element, which is the workhorse for bulk
    Frobenius, linearized-polynomial evaluation and base-field expansion
    in characteristic 2.
    """

    def __init__(self, images: Sequence[int], nbits: int):
        self.nbits = nbits
        nchunks = (nbits + 7) // 8
        self.tables = []
        for c in range(nchunks):
            t = np.zeros(256, dtype=np.int64)
            for v in range(1, 256):
                low = v & -v
                j = c * 8 + low.bit_length() - 1
                img = images[j] if j < len(images) else 0
                t[v] = t[v ^ low] ^ img
            self.tables.append(t)

    def apply(self, arr: np.ndarray) -> np.ndarray:
        out = self.tables[0][arr & 0xFF]
        for c in range(1, len(self.tables)):
            out ^= self.tables[c][(arr >> (8 * c)) & 0xFF]
        return out

    def apply_scalar(self, z: int) -> int:
        out = 0
        for c in range(len(self.tables)):
            out ^= int(self.tables[c][(z >> (8 * c)) & 0xFF])
        return out


class Field:
    """F_{p^{am}} with distinguished subfields F_p and F_q = F_{p^a}.

    Immutable after creation (tables included); all operations are pure.
    """

    def __init__(self, p: int, a: int, m: int,
                 modulus: Optional[Sequence[int]] = None,
                 table_threshold: Optional[int] = None):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"p={p} is not prime")
        if a < 1 or m < 1:
            raise DegreeOutOfRange(f"a={a}, m={m} must be positive")
        deg = a * m
        if p ** deg > config.MAX_FIELD_ORDER:
            raise DegreeOutOfRange(f"field order p^{deg} exceeds 2^32")
        if modulus is None:
            if not moduli.has_default(p, deg):
                raise DegreeOutOfRange(
                    f"no default modulus for p={p}, degree {deg} (degree > 32?)")
            modulus = moduli.default_modulus(p, deg)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != deg + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {deg} over F_{p}")
        self._check_irreducible(modulus, p, deg)

        self.p = p
        self.a = a
        self.m = m
        self.q = p ** a
        self.degree = deg
        self.order = p ** deg
        self.modulus = modulus

        if table_threshold is None:
            table_threshold = config.TABLE_THRESHOLD
        self._group_order = self.order - 1
        self._mod_int = sum(c << i for i, c in enumerate(modulus)) if p == 2 else None

        self.generator = self._find_generator()
        self._exp: Optional[np.ndarray] = None
        self._log: Optional[np.ndarray] = None
        if self.order <= table_threshold:
            self._build_tables()

        # q-power exponents reduced mod the group order, for Frobenius
        self._qpow = [pow(self.q, i, self._group_order) if self._group_order > 1 else 0
                      for i in range(m)]
        self._frob_maps: dict[int, BitLinearMap] = {}

        self.mid_generator = (self.pow(self.generator, self._group_order // (self.q - 1))
                              if self.q > 2 else 1)
        self.power_basis = tuple(self.pow(self.generator, i) for i in range(m))
        self._build_expansion()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _check_irreducible(modulus, p, deg):
        xred = _poly_mod([0, 1], modulus, p)
        xp = xred
        for _ in range(1, deg):
            xp = _poly_powmod(xp, p, modulus, p)
            g = _poly_gcd(modulus, _poly_sub(xp, xred, p), p)
            if len(g) > 1:
                raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
        xp = _poly_powmod(xp, p, modulus, p)
        if _poly_sub(xp, xred, p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")

    def _find_generator(self) -> int:
        n = self._group_order
        if n == 1:
            return 1
        factors = prime_factors(n)
        z = 2
        while z < self.order:
            if all(self._pow_raw(z, n // ell) != 1 for ell in factors):
                return z
            z += 1
        raise InternalInconsistency("no multiplicative generator found")

    def _build_tables(self):
        n = self._group_order
        if self.p == 2 and self.order > (1 << 16):
            self._build_tables_gf2_fast()
            return
        exp = np.zeros(max(n, 1), dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        cur = 1
        for i in range(n):
            exp[i] = cur
            log[cur] = i
            cur = self._mul_raw(cur, self.generator)
        self._exp, self._log = exp, log

    def _build_tables_gf2_fast(self):
        """Vectorized antilog construction for big characteristic-2 fields."""
        deg, f = self.degree, self._mod_int
        himax = 1 << (deg - 1)
        # byte tables reducing the overflow bits of a 2*deg-1 bit product
        nch = (deg - 1 + 7) // 8
        red = []
        for c in range(nch):
            t = np.zeros(256, dtype=np.int64)
            for v in range(1, 256):
                low = v & -v
                j = c * 8 + low.bit_length() - 1
                if (1 << j) < himax:
                    x = 1 << (j + deg)
                    for k in range(j + deg, deg - 1, -1):
                        if x >> k & 1:
                            x ^= f << (k - deg)
                    t[v] = t[v ^ low] ^ x
                else:
                    t[v] = t[v ^ low]
            red.append(t)
        mask = (1 << deg) - 1

        def reduce_vec(x):
            hi = x >> deg
            out = x & mask
            for c in range(nch):
                out ^= red[c][(hi >> (8 * c)) & 0xFF]
            return out

        n = self._group_order
        exp = np.zeros(n, dtype=np.int64)
        exp[0] = 1
        size = 1
        while size < n:
            c = self._mul_raw(int(exp[size - 1]), self.generator)
            blk = min(size, n - size)
            acc = np.zeros(blk, dtype=np.int64)
            cc = c
            sh = 0
            while cc:
                if cc & 1:
                    acc ^= exp[:blk] << sh
                cc >>= 1
                sh += 1
            exp[size:size + blk] = reduce_vec(acc)
            size += blk
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        self._exp, self._log = exp, log

    def _build_expansion(self):
        """Basis-change data for F_q-coordinates w.r.t. the power basis.

        The m power-basis elements g^i times the a elements h^j (h the
        middle-field generator) must form an F_p-basis of the big field;
        this doubles as the required independence check of the power basis
        over F_q.
        """
        p, a, m, deg = self.p, self.a, self.m, self.degree
        cols = []
        for i in range(m):
            for j in range(a):
                z = self.mul(self.power_basis[i], self.pow(self.mid_generator, j))
                cols.append(self._digits(z))
        # invert the deg x deg matrix over F_p (columns = cols)
        mat = [[cols[c][r] for c in range(deg)] for r in range(deg)]
        inv = [[1 if i == j else 0 for j in range(deg)] for i in range(deg)]
        for col in range(deg):
            piv = next((r for r in range(col, deg) if mat[r][col]), None)
            if piv is None:
                raise InternalInconsistency("power basis is not F_q-independent")
            mat[col], mat[piv] = mat[piv], mat[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            s = pow(mat[col][col], p - 2, p)
            mat[col] = [(v * s) % p for v in mat[col]]
            inv[col] = [(v * s) % p for v in inv[col]]
            for r in range(deg):
                if r != col and mat[r][col]:
                    c0 = mat[r][col]
                    mat[r] = [(v - c0 * w) % p for v, w in zip(mat[r], mat[col])]
                    inv[r] = [(v - c0 * w) % p for v, w in zip(inv[r], inv[col])]
        self._expand_inv = inv
        # encoding of an a-digit group back to a middle-field element
        henc = np.zeros(p ** a, dtype=np.int64)
        for v in range(p ** a):
            z = 0
            vv = v
            for j in range(a):
                d = vv % p
                vv //= p
                if d:
                    z = self.add(z, self.mul_int(self.pow(self.mid_generator, j), d))
            henc[v] = z
        self._henc = henc
        if p == 2:
            imgs = []
            for j in range(deg):
                w = 0
                for t in range(deg):
                    if inv[t][j]:
                        w |= 1 << t
                imgs.append(w)
            self._expand_map = BitLinearMap(imgs, deg)
        else:
            self._expand_np = np.array(inv, dtype=np.int64)

    # -- raw scalar arithmetic ------------------------------------------

    def _digits(self, z: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.degree):
            out.append(z % p)
            z //= p
        return out

    def _undigits(self, ds: Iterable[int]) -> int:
        out = 0
        for d in reversed(list(ds)):
            out = out * self.p + (d % self.p)
        return out

    def _mul_raw(self, x: int, y: int) -> int:
        if self.p == 2:
            f, deg = self._mod_int, self.degree
            r = 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if x >> deg & 1:
                    x ^= f
            return r
        dx, dy = self._digits(x), self._digits(y)
        prod = [0] * (2 * self.degree - 1)
        for i, ci in enumerate(dx):
            if ci:
                for j, cj in enumerate(dy):
                    prod[i + j] = (prod[i + j] + ci * cj) % self.p
        red = _poly_mod(prod, self.modulus, self.p)
        return self._undigits(red + [0] * (self.degree - len(red)))

    def _pow_raw(self, z: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, z)
            z = self._mul_raw(z, z)
            e >>= 1
        return r

    # -- scalar API ------------------------------------------------------

    def check(self, z: int) -> int:
        if not 0 <= z < self.order:
            raise FieldMismatch(f"encoding {z} outside [0, {self.order})")
        return int(z)

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        p = self.p
        out, mul = 0, 1
        while x or y:
            out += ((x + y) % p) * mul
            x //= p
            y //= p
            mul *= p
        return out

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        p = self.p
        out, mul = 0, 1
        while x:
            out += ((p - x % p) % p) * mul
            x //= p
            mul *= p
        return out

    def sub(self, x: int, y: int) -> int:
        return x ^ y if self.p == 2 else self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self._exp is None:
            return self._mul_raw(x, y)
        if x == 0 or y == 0:
            return 0
        n = self._group_order
        return int(self._exp[(int(self._log[x]) + int(self._log[y])) % n])

    def mul_int(self, x: int, c: int) -> int:
        """Multiply by a small prime-field integer (repeated addition)."""
        out = 0
        for _ in range(c % self.p):
            out = self.add(out, x)
        return out

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        if self._exp is None:
            return self._pow_raw(x, self._group_order - 1)
        n = self._group_order
        return int(self._exp[(n - int(self._log[x])) % n])

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise DivisionByZero("division by zero")
        return self.mul(x, self.inv(y))

    def pow(self, z: int, e: int) -> int:
        if z == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 1 if e == 0 else 0
        n = self._group_order
        e %= n
        if self._exp is None:
            return self._pow_raw(z, e)
        return int(self._exp[(int(self._log[z]) * e) % n])

    def frobenius(self, z: int, i: int) -> int:
        """z^(q^i) with i normalized mod m (negative i = q-th root iteration)."""
        return self.pow(z, self.q ** (i % self.m))

    def frob_abs(self, z: int, j: int) -> int:
        """z^(p^j), the absolute Frobenius iterate."""
        return self.pow(z, self.p ** (j % self.degree))

    def rel_trace_norm(self, z: int) -> tuple[int, int]:
        t = 0
        for i in range(self.m):
            t = self.add(t, self.frobenius(z, i))
        n = self.pow(z, self._group_order // (self.q - 1)) if self.q > 1 else z
        if not (self.in_mid_subfield(t) and self.in_mid_subfield(n)):
            raise InternalInconsistency("trace/norm left the middle subfield")
        return t, n

    def trace(self, z: int) -> int:
        return self.rel_trace_norm(z)[0]

    def norm(self, z: int) -> int:
        return self.rel_trace_norm(z)[1]

    def subfield_trace(self, c: int) -> int:
        """Absolute trace F_q -> F_p of a middle-subfield element."""
        t = 0
        for j in range(self.a):
            t = self.add(t, self.pow(c, self.p ** j))
        return t

    def artin_schreier_solve(self, c: int) -> Optional[tuple[int, int]]:
        """Roots of x^2 + x + c over F_q in characteristic 2, if any."""
        if self.p != 2:
            raise OddCharacteristic("Artin-Schreier solver needs characteristic 2")
        if not self.in_mid_subfield(c):
            raise FieldMismatch("constant term is not in the middle subfield")
        if self.subfield_trace(c) != 0:
            return None
        for x in self.subfield_elements("mid"):
            if self.mul(x, x) ^ x == c:
                return (x, x ^ 1)
        raise InternalInconsistency("trace-zero constant without a root")

    def in_mid_subfield(self, z: int) -> bool:
        return self.frobenius(z, 1) == z

    def subfield_elements(self, level: str) -> tuple[int, ...]:
        """Ascending encodings of F_p ('base') or F_q ('mid')."""
        if level == "base":
            return tuple(range(self.p))
        if level != "mid":
            raise ValueError(f"unknown subfield level {level!r}")
        step = self._group_order // (self.q - 1) if self.q > 1 else 0
        elems = {0}
        for j in range(self.q - 1):
            elems.add(self.pow(self.generator, step * j))
        out = tuple(sorted(elems))
        if len(out) != self.q or any(not self.in_mid_subfield(z) for z in out):
            raise InternalInconsistency("middle subfield enumeration failed")
        return out

    # -- F_q-coordinates w.r.t. the power basis ---------------------------

    def fq_coords(self, z: int) -> tuple[int, ...]:
        """Coordinates c_0..c_{m-1} in F_q with z = sum c_i * g^i."""
        if self.p == 2:
            w = self._expand_map.apply_scalar(z)
            msk = (1 << self.a) - 1
            return tuple(int(self._henc[(w >> (self.a * i)) & msk]) for i in range(self.m))
        d = np.array(self._digits(z), dtype=np.int64)
        w = (self._expand_np @ d) % self.p
        out = []
        for i in range(self.m):
            grp = 0
            for j in reversed(range(self.a)):
                grp = grp * self.p + int(w[self.a * i + j])
            out.append(int(self._henc[grp]))
        return tuple(out)

    def fq_coords_vec(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized fq_coords: shape (..., m) array of F_q encodings."""
        arr = np.asarray(arr, dtype=np.int64)
        if self.p == 2:
            w = self._expand_map.apply(arr)
            msk = (1 << self.a) - 1
            cols = [self._henc[(w >> (self.a * i)) & msk] for i in range(self.m)]
            return np.stack(cols, axis=-1)
        digs = []
        rem = arr.copy()
        for _ in range(self.degree):
            digs.append(rem % self.p)
            rem //= self.p
        d = np.stack(digs, axis=-1)
        w = (d @ self._expand_np.T) % self.p
        cols = []
        for i in range(self.m):
            grp = np.zeros(arr.shape, dtype=np.int64)
            for j in reversed(range(self.a)):
                grp = grp * self.p + w[..., self.a * i + j]
            cols.append(self._henc[grp])
        return np.stack(cols, axis=-1)

    def from_fq_coords(self, coords: Sequence[int]) -> int:
        z = 0
        for i, c in enumerate(coords):
            z = self.add(z, self.mul(c, self.power_basis[i]))
        return z

    # -- vectorized arithmetic -------------------------------------------

    def _need_tables(self):
        if self._exp is None:
            raise FieldMismatch(
                "vectorized operations need log tables; "
                "recreate the field with a larger table_threshold")

    def vadd(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return x ^ y
        p = self.p
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        mul = 1
        x, y = x.copy(), y.copy()
        for _ in range(self.degree):
            out += ((x + y) % p) * mul
            x //= p
            y //= p
            mul *= p
        return out

    def vneg(self, x: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return x.copy() if isinstance(x, np.ndarray) else x
        p = self.p
        out = np.zeros(np.shape(x), dtype=np.int64)
        mul = 1
        x = np.array(x, dtype=np.int64)
        for _ in range(self.degree):
            out += ((p - x % p) % p) * mul
            x //= p
            mul *= p
        return out

    def vsub(self, x, y):
        return x ^ y if self.p == 2 else self.vadd(x, self.vneg(y))

    def vmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        self._need_tables()
        n = self._group_order
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        out = self._exp[(self._log[x] + self._log[y]) % n]
        return np.where((x == 0) | (y == 0), 0, out)

    def vinv(self, x: np.ndarray) -> np.ndarray:
        self._need_tables()
        if np.any(x == 0):
            raise DivisionByZero("vectorized inverse of zero")
        n = self._group_order
        return self._exp[(n - self._log[x]) % n]

    def vpow(self, x: np.ndarray, e: int) -> np.ndarray:
        """Elementwise x^e; e is reduced mod the group order on nonzeros."""
        self._need_tables()
        x = np.asarray(x, dtype=np.int64)
        n = self._group_order
        if e == 0:
            return np.ones(x.shape, dtype=np.int64)
        out = self._exp[(self._log[x] * (e % n)) % n]
        return np.where(x == 0, 0, out)

    def vfrob(self, x: np.ndarray, i: int) -> np.ndarray:
        """Elementwise x^(q^i)."""
        i %= self.m
        if self.p == 2:
            fm = self._frob_maps.get(i)
            if fm is None:
                fm = self.linear_map_from_images(
                    [self.frobenius(1 << j, i) for j in range(self.degree)])
                self._frob_maps[i] = fm
            return fm.apply(np.asarray(x, dtype=np.int64))
        return self.vpow(x, self.q ** i)

    def linear_map_from_images(self, images: Sequence[int]) -> BitLinearMap:
        """Byte-table form of the F_2-linear map sending bit j to images[j]."""
        if self.p != 2:
            raise FieldMismatch("bit-linear maps require characteristic 2")
        return BitLinearMap(images, self.degree)

    # -- misc -------------------------------------------------------------

    def describe(self) -> str:
        mods = ",".join(str(c) for c in self.modulus)
        return f"field p={self.p} a={self.a} m={self.m} modulus=[{mods}]"

    def same_as(self, other: "Field") -> bool:
        return (self.p, self.a, self.m, self.modulus) == \
               (other.p, other.a, other.m, other.modulus)

    def __repr__(self):
        return f"Field(p={self.p}, a={self.a}, m={self.m}, order={self.order})"


_FIELD_CACHE: dict[tuple, Field] = {}


def field_create(p: int, a: int, m: int,
                 modulus: Optional[Sequence[int]] = None,
                 table_threshold: Optional[int] = None) -> Field:
    """Create (or fetch a cached copy of) a validated field tower."""
    key = (p, a, m, None if modulus is None else tuple(modulus), table_threshold)
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = Field(p, a, m, modulus, table_threshold)
        _FIELD_CACHE[key] = f
    return f


def parse_field_line(line: str) -> Field:
    """Inverse of Field.describe()."""
    parts = line.split()
    if not parts or parts[0] != "field":
        raise ValueError(f"not a field line: {line!r}")
    kv = dict(part.split("=", 1) for part in parts[1:])
    mod = kv["modulus"].strip("[]")
    coeffs = tuple(int(c) for c in mod.split(",")) if mod else ()
    return field_create(int(kv["p"]), int(kv["a"]), int(kv["m"]), coeffs)
