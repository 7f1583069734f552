"""Named-polynomial registry and mechanical verification of its identities.

The registry covers the certificate polynomials attached to the rank-4
family U_{alpha,beta} = {(x, x^q + a x^{q^3}, x^{q^2} + b x^{q^3})} in
V(3, q^4) for even q, plus the kernel-distinguishing polynomial families
used for the alpha = 1 subcases.  Each name is held in up to two forms:

* a tabulated closed form, transcribed from its published table (obvious
  typographical slips repaired to the evident reading), and
* a derived form, reconstructed from the defining construction where one
  exists (Dickson determinants, the F/G/H combination chain, cofactor
  division realized as interpolation).

The derived form is ground truth; tabulated-vs-derived disagreements are
reported as findings, never silently absorbed.  Everything here is for
q even, m = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AssertionFailed,
    DivisionNotExact,
    IdentityViolation,
    InvalidBeta,
    InvalidCaseParams,
    MissingBinding,
    NoWitness,
    OddCharacteristic,
    UnknownName,
)
from .gf import Field
from .linalg import solve, system_create
from .linpoly import LinPoly, det_vec
from .linset import Point, linear_set
from .rankcov import one_saturated


# ----------------------------------------------------------------------
# small symbolic layer: polynomials in x, y with function-canonical exponents
# ----------------------------------------------------------------------

def _fold(field: Field, e: int) -> int:
    """Function-canonical exponent: 0 stays, e >= 1 goes to
    ((e-1) mod (order-1)) + 1."""
    return (e - 1) % (field.order - 1) + 1 if e else 0


def _sq(fld: Field, z: int) -> int:
    return fld.mul(z, z)


def _fsum(fld: Field, *terms: int) -> int:
    out = 0
    for t in terms:
        out = fld.add(out, t)
    return out


class QPoly:
    """Polynomial in x and y over the big field, exponents folded so that
    equal dictionaries mean equal functions on the field (and conversely).

    Exponent folding sends e >= 1 to ((e-1) mod (order-1)) + 1 and keeps 0;
    with exponents in that range the monomial functions are linearly
    independent, so dictionary equality is an exhaustive identity check.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Optional[dict] = None):
        self.field = field
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    @classmethod
    def ypow(cls, field: Field, e: int, c: int = 1) -> "QPoly":
        p = cls(field)
        p.terms = {(0, _fold(field, e)): c} if c else {}
        return p

    def __add__(self, other: "QPoly") -> "QPoly":
        fld = self.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = fld.add(out.get(key, 0), c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = QPoly(fld)
        res.terms = out
        return res

    def __mul__(self, other: "QPoly") -> "QPoly":
        fld = self.field
        out: dict = {}
        for (ex1, ey1), c1 in self.terms.items():
            for (ex2, ey2), c2 in other.terms.items():
                key = (_fold(fld, ex1 + ex2), _fold(fld, ey1 + ey2))
                s = fld.add(out.get(key, 0), fld.mul(c1, c2))
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = QPoly(fld)
        res.terms = out
        return res

    def scale(self, c: int) -> "QPoly":
        fld = self.field
        res = QPoly(fld)
        if c:
            res.terms = {key: fld.mul(c, v) for key, v in self.terms.items()}
        return res

    def frob(self, i: int) -> "QPoly":
        """The q^i-th power of the polynomial, as a function."""
        fld = self.field
        e = fld.q ** i
        res = QPoly(fld)
        for (ex, ey), c in self.terms.items():
            key = (_fold(fld, ex * e), _fold(fld, ey * e))
            res.terms[key] = fld.pow(c, e)
        return res

    def x_exponents(self) -> set:
        return {ex for (ex, _ey) in self.terms}

    def by_x(self) -> dict[int, dict[int, int]]:
        out: dict[int, dict[int, int]] = {}
        for (ex, ey), c in self.terms.items():
            out.setdefault(ex, {})[ey] = c
        return out

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.terms == other.terms

    def diff(self, other: "QPoly") -> list[tuple[tuple[int, int], int, int]]:
        """Differing monomials, smallest exponent pair first."""
        keys = sorted(set(self.terms) | set(other.terms))
        out = []
        for key in keys:
            a, b = self.terms.get(key, 0), other.terms.get(key, 0)
            if a != b:
                out.append((key, a, b))
        return out

    def eval(self, x: int, y: int) -> int:
        fld = self.field
        out = 0
        for (ex, ey), c in self.terms.items():
            out = fld.add(out, fld.mul(c, fld.mul(fld.pow(x, ex), fld.pow(y, ey))))
        return out

    def eval_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        fld = self.field
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        xcache: dict[int, np.ndarray] = {}
        ycache: dict[int, np.ndarray] = {}
        out = np.zeros(np.broadcast(xs, ys).shape, dtype=np.int64)
        for (ex, ey), c in self.terms.items():
            if ex not in xcache:
                xcache[ex] = fld.vpow(xs, ex) if ex else None
            if ey not in ycache:
                ycache[ey] = fld.vpow(ys, ey) if ey else None
            term = np.full(out.shape, c, dtype=np.int64)
            if xcache[ex] is not None:
                term = fld.vmul(term, xcache[ex])
            if ycache[ey] is not None:
                term = fld.vmul(term, ycache[ey])
            out = fld.vadd(out, term)
        return out


# ----------------------------------------------------------------------
# context
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AppendixContext:
    """Even q, m = 4 parameters alpha (norm-one over F_{q^2}) and beta."""
    field: Field
    alpha: int
    beta: int

    def __post_init__(self):
        fld = self.field
        if fld.p != 2:
            raise InvalidCaseParams("the registry needs even q")
        if fld.m != 4:
            raise InvalidCaseParams("the registry lives in the m = 4 tower")
        fld.check(self.alpha)
        fld.check(self.beta)
        q = fld.q
        if fld.pow(self.alpha, q + 1) != 1 or fld.frobenius(self.alpha, 2) != self.alpha:
            raise InvalidCaseParams("alpha must lie in F_{q^2} with alpha^(q+1) = 1")
        if fld.pow(self.beta, (q * q + 1) * (q - 1)) != 1:
            raise InvalidCaseParams("beta must satisfy beta^((q^2+1)(q-1)) = 1")

    @property
    def q(self) -> int:
        return self.field.q


# ----------------------------------------------------------------------
# tabulated closed forms in the variable C
# ----------------------------------------------------------------------

def d_tabulated(ctx: AppendixContext, c: int) -> int:
    fld, q = ctx.field, ctx.q
    a, b = ctx.alpha, ctx.beta
    P = fld.pow
    M = fld.mul
    A = fld.add
    T = fld.trace
    inner = M(A(P(a, 4), 1), P(c, 4))
    inner = A(inner, M(M(M(a, P(A(a, 1), 2)), T(b)), P(c, 3)))
    t2 = A(A(M(P(a, 4), P(b, q**3 + q)), M(P(a, 2), T(P(b, q + 1)))),
           P(b, q**2 + 1))
    inner = A(inner, M(t2, P(c, 2)))
    t1 = A(A(M(P(a, 2), A(P(b, q**3 + q + 1), P(b, q**3 + q**2 + q))),
             M(a, T(b))),
           A(P(b, q**2 + q + 1), P(b, q**3 + q**2 + 1)))
    inner = A(inner, M(M(a, t1), c))
    inner = A(inner, M(P(a, 2), A(fld.norm(b), 1)))
    return M(inner, inner)


def _fac_coeffs(ctx: AppendixContext, c: int) -> list[int]:
    """q-coefficients of the pivot kernel map
    fac(y) = C^2 y^q + y^{q^2} + (C^2 a^2 + b^2) y^{q^3}."""
    fld = ctx.field
    c2 = _sq(fld, c)
    return [0, c2, 1, fld.add(fld.mul(c2, _sq(fld, ctx.alpha)), _sq(fld, ctx.beta))]


def _fac_coeffs_vec(ctx: AppendixContext, cs: np.ndarray) -> list[np.ndarray]:
    """_fac_coeffs for an array of C values, one array per q-coefficient."""
    fld = ctx.field
    cs = np.asarray(cs, dtype=np.int64)
    c2 = fld.vmul(cs, cs)
    last = fld.vadd(fld.vmul(c2, np.int64(_sq(fld, ctx.alpha))),
                    np.int64(_sq(fld, ctx.beta)))
    return [np.zeros(len(cs), dtype=np.int64), c2,
            np.ones(len(cs), dtype=np.int64), last]


def _dickson_det_vec(fld: Field, coeffs: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise Dickson determinant of sum_i coeffs[i] y^{q^i} (arrays)."""
    m = len(coeffs)
    return det_vec(fld, [[fld.vfrob(coeffs[(j - i) % m], i) for j in range(m)]
                         for i in range(m)])


def d_derived(ctx: AppendixContext, c: int) -> int:
    """Dickson determinant of the pivot map fac."""
    return LinPoly(ctx.field, _fac_coeffs(ctx, c)).dickson_det()


def _f_terms(ctx: AppendixContext) -> list[tuple[int, int]]:
    """(coefficient, C-exponent) pairs of the cubic-family certificate poly."""
    fld, q = ctx.field, ctx.q
    a, b = ctx.alpha, ctx.beta
    P = fld.pow
    M = fld.mul
    A = fld.add
    q2, q3 = q * q, q ** 3
    a2, a3, a4 = P(a, 2), P(a, 3), P(a, 4)
    return [
        (M(a3, P(b, q3)), q2 + q + 1),
        (M(a, P(b, q2)), q3 + q + 1),
        (M(a, b), q3 + q2 + q),
        (M(a3, P(b, q)), q3 + q2 + 1),
        (A(a3, M(a2, P(b, q3 + q2))), q + 1),
        (M(a4, P(b, q3 + q)), q2 + 1),
        (A(M(a2, P(b, q2 + q)), a), q3 + 1),
        (A(a3, M(a2, P(b, q + 1))), q3 + q2),
        (A(M(a2, P(b, q3 + 1)), a), q2 + q),
        (P(b, q2 + 1), q3 + q),
        (A(M(a3, P(b, q3 + q2 + q)), M(a2, P(b, q3))), 1),
        (A(M(a2, b), M(a, P(b, q3 + q2 + 1))), q),
        (A(M(a3, P(b, q3 + q + 1)), M(a2, P(b, q))), q2),
        (A(M(a2, P(b, q2)), M(a, P(b, q2 + q + 1))), q3),
        (M(a2, fld.norm(b)), 0),
    ]


def _terms_at(fld: Field, terms: list[tuple[int, int]], c: int) -> int:
    """sum of coeff * c^e over (coeff, e) pairs."""
    return _fsum(fld, *(fld.mul(coeff, fld.pow(c, e)) for coeff, e in terms))


def f_tabulated(ctx: AppendixContext, c: int) -> int:
    return _terms_at(ctx.field, _f_terms(ctx), c)


def f_tabulated_vec(ctx: AppendixContext, cs: np.ndarray) -> np.ndarray:
    fld = ctx.field
    cs = np.asarray(cs, dtype=np.int64)
    out = np.zeros(len(cs), dtype=np.int64)
    for coeff, e in _f_terms(ctx):
        out = fld.vadd(out, fld.vmul(np.int64(coeff), fld.vpow(cs, e)))
    return out


def _g_factor2_terms(ctx: AppendixContext) -> list[tuple[int, int]]:
    fld, q = ctx.field, ctx.q
    a, b = ctx.alpha, ctx.beta
    P, M, A = fld.pow, fld.mul, fld.add
    q2, q3 = q * q, q ** 3
    a2, a3, a4 = P(a, 2), P(a, 3), P(a, 4)
    s321 = A(A(a3, a2), a)
    return [
        (A(a, 1), q3 + q2 + q + 1),
        (M(s321, P(b, q3)), q2 + q + 1),
        (M(a, P(b, q2)), q3 + q + 1),
        (A(a3, M(a2, P(b, q3 + q2))), q + 1),
        (M(P(b, q), s321), q3 + q2 + 1),
        (M(A(A(a4, a3), a2), P(b, q3 + q)), q2 + 1),
        (M(A(P(b, q2 + q), 1), a2), q3 + 1),
        (M(a3, A(P(b, q3 + q2 + q), P(b, q3))), 1),
        (M(a, b), q3 + q2 + q),
        (M(a2, A(P(b, q3 + 1), 1)), q2 + q),
        (P(b, q2 + 1), q3 + q),
        (A(M(a2, b), M(a, P(b, q3 + q2 + 1))), q),
        (A(a3, M(a2, P(b, q + 1))), q3 + q2),
        (M(a3, A(P(b, q3 + q + 1), P(b, q))), q2),
        (A(M(a2, P(b, q2)), M(a, P(b, q2 + q + 1))), q3),
        (A(A(a3, M(a2, P(b, q3 + q2 + q + 1))), a2), 0),
    ]


def _g_factor3_terms(ctx: AppendixContext) -> list[tuple[int, int]]:
    fld, q = ctx.field, ctx.q
    a, b = ctx.alpha, ctx.beta
    P, M, A = fld.pow, fld.mul, fld.add
    q2, q3 = q * q, q ** 3
    a2, a3, a4 = P(a, 2), P(a, 3), P(a, 4)
    terms = [
        (A(a4, a2), q3 + q2 + q + 1),
        # the trace-of-monomial block expands to four conjugate terms
        (M(a3, P(b, q3)), q2 + q + 1),
        (M(a3, b), q3 + q2 + q),
        (M(a3, P(b, q)), q3 + q2 + 1),
        (M(a3, P(b, q2)), q3 + q + 1),
        (A(M(a2, P(b, q2 + q3)), a), q + 1),
        (M(a4, P(b, q3 + q)), q2 + 1),
        (M(a2, P(b, q2 + 1)), q3 + q),
        (A(M(a2, P(b, q2 + q)), a), q3 + 1),
        (A(M(a2, P(b, q3 + 1)), a), q2 + q),
        (A(M(a2, P(b, q + 1)), a), q3 + q2),
        (A(M(a3, P(b, q3 + q2 + q)), M(a2, P(b, q3))), 1),
        (A(M(a, P(b, q3 + q2 + 1)), b), q),
        (A(M(a3, P(b, q3 + q + 1)), M(a2, P(b, q))), q2),
        (A(M(a, P(b, q2 + q + 1)), P(b, q2)), q3),
        (A(A(M(a2, P(b, q3 + q2 + q + 1)), a2), 1), 0),
    ]
    return terms


def g_tabulated(ctx: AppendixContext, c: int) -> int:
    fld, q = ctx.field, ctx.q
    a, b = ctx.alpha, ctx.beta
    P, M, A = fld.pow, fld.mul, fld.add
    q3 = q ** 3
    narg = A(A(A(A(M(a, P(c, q + 1)), M(a, P(c, q3 + 1))),
                M(M(P(a, 2), P(b, q)), c)), M(b, P(c, q))), M(a, P(b, q + 1)))
    return M(M(fld.norm(narg), _terms_at(fld, _g_factor2_terms(ctx), c)),
             _terms_at(fld, _g_factor3_terms(ctx), c))


# ----------------------------------------------------------------------
# the kernel-coefficient products a_ij and the reduced map M
# ----------------------------------------------------------------------

def _a_factors(ctx: AppendixContext, cs: np.ndarray):
    """Shared factors of the a_ij products, elementwise over an array."""
    fld, q = ctx.field, ctx.q
    a, b = ctx.alpha, ctx.beta
    q2, q3 = q * q, q ** 3
    V, M, A = fld.vpow, fld.vmul, fld.vadd

    def cp(e):
        return V(cs, e)

    def s(z):
        return np.int64(z)

    t1 = A(A(cp(q2 + q), M(cp(q2), s(fld.mul(a, fld.pow(b, q))))), s(a))
    t2 = A(A(A(A(M(cp(q3 + 1), s(a)), M(cs, s(fld.mul(fld.pow(a, 2), fld.pow(b, q3))))),
              M(cp(q3 + q2), s(a))), M(cp(q3), s(b))),
           s(fld.mul(a, fld.pow(b, q3 + 1))))
    t3 = A(A(A(A(M(cp(q + 1), s(a)), M(cp(q3 + 1), s(a))),
              M(cs, s(fld.mul(fld.pow(a, 2), fld.pow(b, q))))), M(cp(q), s(b))),
           s(fld.mul(a, fld.pow(b, q + 1))))
    t4 = A(A(A(M(cp(q3 + q), s(fld.add(fld.pow(a, 2), 1))),
               M(cp(q), s(fld.mul(a, fld.pow(b, q3))))),
             M(cp(q3), s(fld.mul(a, fld.pow(b, q))))),
           s(fld.mul(fld.pow(a, 2), fld.pow(b, q3 + q))))
    t5 = A(A(A(A(M(cp(q + 1), s(a)), M(cp(q2 + q), s(a))),
              M(cp(q), s(fld.pow(b, q2)))),
            M(cp(q2), s(fld.mul(fld.pow(a, 2), fld.pow(b, q))))),
           s(fld.mul(a, fld.pow(b, q2 + q))))
    t6 = A(A(M(cp(q3 + q2), s(a)), M(cp(q3), s(fld.pow(b, q2)))),
           s(1))
    return t1, t2, t3, t4, t5, t6


def a_coefficients(ctx: AppendixContext, c):
    """a00, a01, a02, a10, a11, a20 at the given c (scalar or array)."""
    fld = ctx.field
    a = ctx.alpha
    scalar = np.isscalar(c)
    cs = np.asarray([c] if scalar else c, dtype=np.int64)
    t1, t2, t3, t4, t5, t6 = _a_factors(ctx, cs)
    fval = f_tabulated_vec(ctx, cs)
    M = fld.vmul
    a00 = M(np.int64(a), M(t1, M(t2, t3)))
    cq = fld.vpow(cs, ctx.q)
    a01 = M(fld.vadd(cq, np.int64(fld.mul(a, fld.pow(ctx.beta, ctx.q)))),
            M(t2, fval))
    a02 = M(t4, M(t2, t5))
    a10 = M(np.int64(a), M(t3, fval))
    a11 = M(np.int64(a), M(fld.vpow(cs, ctx.q ** 3), M(t5, fval)))
    a20 = M(np.int64(fld.mul(a, a)), M(t6, M(t5, t3)))
    out = (a00, a01, a02, a10, a11, a20)
    if scalar:
        return tuple(int(v[0]) for v in out)
    return out


def g_derived(ctx: AppendixContext, c: int) -> int:
    """Dickson determinant of the reduced-map coefficient matrix."""
    return int(g_derived_vec(ctx, np.asarray([c], dtype=np.int64))[0])


def g_derived_vec(ctx: AppendixContext, cs: np.ndarray) -> np.ndarray:
    fld = ctx.field
    cs = np.asarray(cs, dtype=np.int64)
    a00, _a01, a02, _a10, _a11, a20 = a_coefficients(ctx, cs)
    return _dickson_det_vec(fld, [np.zeros(len(cs), dtype=np.int64), a20, a02, a00])


def m_poly(ctx: AppendixContext, c: int) -> QPoly:
    """The reduced kernel map M(y) built from the a-coefficients."""
    fld, q = ctx.field, ctx.q
    a00, a01, a02, a10, a11, a20 = a_coefficients(ctx, c)
    sq = fld.mul
    q2, q3 = q * q, q ** 3
    terms = {
        (0, 2 * q3): sq(a00, a00),
        (0, q3 + q2): sq(a01, a01),
        (0, q3 + q): sq(a10, a10),
        (0, 2 * q2): sq(a02, a02),
        (0, q2 + q): sq(a11, a11),
        (0, 2 * q): sq(a20, a20),
    }
    p = QPoly(fld)
    for (ex, ey), coeff in terms.items():
        p = p + QPoly(fld, {(ex, _fold(fld, ey)): coeff})
    return p


# ----------------------------------------------------------------------
# the F/G/H combination chain (built in the squared parameters)
# ----------------------------------------------------------------------

def f0_poly(ctx: AppendixContext, c: int) -> QPoly:
    """The secant determinant form for the distinguished point, as displayed
    (squared parameters throughout)."""
    fld = ctx.field
    q = ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    q2, q3 = q * q, q ** 3
    t = {}
    for (ex, ey), coeff in (
        ((1, q), c2), ((1, q2), 1), ((1, q3), fld.add(fld.mul(c2, a2), b2)),
        ((q, 1), c2), ((q2, 1), 1), ((q3, 1), fld.add(fld.mul(c2, a2), b2)),
    ):
        t[(ex, ey)] = fld.add(t.get((ex, ey), 0), coeff)
    return QPoly(fld, t)


def f0_derived_poly(ctx: AppendixContext, c: int) -> QPoly:
    """The same determinant recomputed from the matrix definition: rows
    (x, x^q + a^2 x^{q^3}, x^{q^2} + b^2 x^{q^3}), (y, ..), (0, 1, C^2)."""
    fld = ctx.field
    q = ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    q2, q3 = q * q, q ** 3
    X = lambda e, co=1: QPoly(fld, {(_fold(fld, e), 0): co})
    Y = lambda e, co=1: QPoly(fld, {(0, _fold(fld, e)): co})
    col1_x, col1_y = X(1), Y(1)
    col2_x = X(q) + X(q3, a2)
    col2_y = Y(q) + Y(q3, a2)
    col3_x = X(q2) + X(q3, b2)
    col3_y = Y(q2) + Y(q3, b2)
    # det with third row (0, 1, C^2), char 2
    det = col1_x * (col2_y.scale(c2) + col3_y)
    det = det + col1_y * (col2_x.scale(c2) + col3_x)
    return det


def _fac_y(ctx: AppendixContext, c: int) -> QPoly:
    """The pivot kernel map fac as a y-polynomial."""
    fld, q = ctx.field, ctx.q
    return QPoly(fld, {(0, _fold(fld, q ** i)): co
                       for i, co in enumerate(_fac_coeffs(ctx, c))})


def _g_multipliers(ctx: AppendixContext, c: int, f0: QPoly) -> list[tuple[int, int]]:
    """(lambda_i, mu_i) for i = 1, 2, 3, where
    G_i = lambda_i fac F0^{q^i} + mu_i y^{q^i} F0.

    mu_i is the tabulated multiplier and lambda_i the unique scalar making
    the x-linear terms cancel (the defining structural property of the G's):
    mu_i over the x-linear coefficient of F0^{q^i}, or 1 when there is no
    x-linear term to cancel."""
    fld, q = ctx.field, ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    mus = (fld.add(fld.pow(c2, q), fld.mul(a2, fld.pow(b2, q))),
           1,
           fld.mul(fld.pow(c2, q ** 3), a2))
    out = []
    for i, mu in zip((1, 2, 3), mus):
        e = _fold(fld, q ** i)
        xlin = {ey: co for (ex, ey), co in f0.frob(i).terms.items() if ex == 1}
        if len(xlin) > 1 or (xlin and e not in xlin):
            raise IdentityViolation("conjugate x-linear term off pattern")
        co = xlin.get(e, 0)
        out.append((fld.div(mu, co) if co else 1, mu))
    return out


def g_chain_polys(ctx: AppendixContext, c: int) -> tuple[QPoly, QPoly, QPoly, QPoly]:
    """(F0, G1, G2, G3) for the fixed c, built from _g_multipliers."""
    fld, q = ctx.field, ctx.q
    f0 = f0_poly(ctx, c)
    fac = _fac_y(ctx, c)
    out = []
    for i, (lam, mu) in enumerate(_g_multipliers(ctx, c, f0), start=1):
        g = fac * f0.frob(i).scale(lam) + QPoly.ypow(fld, q ** i, mu) * f0
        if 1 in g.x_exponents():
            raise IdentityViolation("x-linear cancellation failed")
        out.append(g)
    return (f0, *out)


def _xq_coefficient(ctx: AppendixContext, p: QPoly) -> QPoly:
    fld = ctx.field
    e = _fold(fld, ctx.q)
    return QPoly(fld, {(0, ey): co for (ex, ey), co in p.terms.items() if ex == e})


def uvw_derived(ctx: AppendixContext, c: int,
                chain: Optional[tuple] = None) -> tuple[QPoly, QPoly, QPoly]:
    """The canonical elimination multipliers: u, v, w are the x^q-coefficients
    of G2, G1, G3 (the syzygy making the x^q terms of the H's cancel)."""
    if chain is None:
        chain = g_chain_polys(ctx, c)
    _f0, g1, g2, g3 = chain
    return (_xq_coefficient(ctx, g2), _xq_coefficient(ctx, g1),
            _xq_coefficient(ctx, g3))


def uvw_tabulated(ctx: AppendixContext, c: int) -> tuple[QPoly, QPoly, QPoly]:
    """The tabulated multipliers u, v, w (y-polynomials)."""
    fld, q = ctx.field, ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    P, M, A = fld.pow, fld.mul, fld.add
    q2, q3 = q * q, q ** 3
    Y = QPoly.ypow

    inner_u = (Y(fld, 1, c2)
               + Y(fld, q, A(M(a2, P(c2, q2 + 1)), M(P(b2, q2), c2)))
               + Y(fld, q2, A(M(a2, P(c2, q2)), P(b2, q2)))
               + Y(fld, q3, A(A(M(P(a2, 2), P(c2, q2 + 1)),
                                M(M(a2, P(b2, q2)), c2)),
                              A(M(M(a2, b2), P(c2, q2)), M(P(b2, q2), b2)))))
    u = Y(fld, q2, 1) * inner_u

    v = (Y(fld, q2 + 1, A(P(c2, q), M(a2, P(b2, q))))
         + Y(fld, q3 + 1, A(A(M(P(c2, q + 1), a2), M(M(c2, P(a2, 2)), P(b2, q))),
                            A(M(P(c2, q), b2), M(a2, M(P(b2, q), b2)))))
         + Y(fld, q2 + q, M(P(c2, q + 1), a2))
         + Y(fld, q3 + q, M(c2, a2))
         + Y(fld, 2 * q2, M(P(c2, q), a2))
         + Y(fld, q3 + q2, A(A(M(P(c2, q + 1), P(a2, 2)), M(M(P(c2, q), a2), b2)),
                             a2))
         + Y(fld, 2 * q3, A(M(c2, P(a2, 2)), M(a2, b2))))

    inner_w = (Y(fld, 1, M(P(c2, q3), c2)) + Y(fld, q, c2) + Y(fld, q2, 1)
               + Y(fld, q3, A(M(c2, a2), b2)))
    w = (inner_w * Y(fld, q3, 1)).scale(a2)
    return u, v, w


def _h_pair(chain: tuple, uvw: tuple) -> tuple[QPoly, QPoly]:
    """H1 = u G1 + v G2 and H2 = w G1 + v G3."""
    _f0, g1, g2, g3 = chain
    u, v, w = uvw
    return u * g1 + v * g2, w * g1 + v * g3


def h_polys(ctx: AppendixContext, c: int) -> tuple[QPoly, QPoly]:
    """The H pair with derived multipliers."""
    chain = g_chain_polys(ctx, c)
    return _h_pair(chain, uvw_derived(ctx, c, chain))


_L_EXPONENTS = ((0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1),
                (2, 2), (3, 2), (3, 3))
# ordered pairs (i, j) meaning the monomial y^(q^i + q^j)


def _l_exponent_list(q: int) -> list[int]:
    return [q ** i + q ** j for (i, j) in _L_EXPONENTS]


def l1_tabulated_coeffs(ctx: AppendixContext, c: int) -> dict[int, int]:
    """Tabulated coefficients of L1, keyed by y-exponent q^i + q^j."""
    fld, q = ctx.field, ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    P, M = fld.pow, fld.mul
    q2, q3 = q * q, q ** 3
    S = partial(_fsum, fld)

    co = {
        2: S(M(P(c2, q + 1), a2), M(c2, M(P(a2, 2), P(b2, q))),
             M(P(c2, q), b2), M(a2, M(P(b2, q), b2))),
        q + 1: S(M(P(c2, q2 + q + 1), P(a2, 2)), M(P(c2, q + 1), M(a2, P(b2, q2))),
                 M(P(c2, q2 + 1), M(P(a2, 3), P(b2, q))),
                 M(M(c2, P(a2, 2)), P(b2, q2 + q)),
                 M(c2, a2), M(P(c2, q2 + q), M(a2, b2)),
                 M(P(c2, q), P(b2, q2 + 1)), M(P(c2, q2), M(P(a2, 2), P(b2, q + 1))),
                 M(a2, P(b2, q2 + q + 1))),
        q2 + 1: S(M(P(c2, q + 1), P(a2, 2)), P(c2, q2 + 1),
                  M(P(c2, q), M(a2, b2)), M(P(c2, q2), M(a2, P(b2, q)))),
        q3 + 1: S(M(P(c2, q2 + q + 1), a2), M(P(c2, q2 + 1), M(P(a2, 2), P(b2, q))),
                  M(c2, P(a2, 2)), M(P(c2, q2 + q), b2),
                  M(P(c2, q2), M(a2, P(b2, q + 1))), M(a2, b2)),
        2 * q: S(M(P(c2, q + 1), P(a2, 2)), M(c2, M(a2, P(b2, q2)))),
        q2 + q: S(M(P(c2, q2 + q + 1), a2), M(P(c2, q2), P(a2, 2)),
                  M(a2, P(b2, q2))),
        q3 + q: S(M(P(c2, q2 + 1), P(a2, 3)), M(P(c2, q2 + 1), a2),
                  M(c2, M(P(a2, 2), P(b2, q2))), M(P(c2, q2), M(P(a2, 2), b2)),
                  M(a2, P(b2, q2 + 1))),
        2 * q2: M(P(c2, q2 + q), a2),
        q3 + q2: S(M(P(c2, q2 + q + 1), P(a2, 2)), M(P(c2, q2 + q), M(a2, b2)),
                   M(P(c2, q2), a2)),
        2 * q3: S(M(P(c2, q2 + 1), P(a2, 2)), M(P(c2, q2), M(a2, b2))),
    }
    return co


def l2_tabulated_coeffs(ctx: AppendixContext, c: int) -> dict[int, int]:
    fld, q = ctx.field, ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    P, M = fld.pow, fld.mul
    q2, q3 = q * q, q ** 3
    S = partial(_fsum, fld)

    co = {
        2: S(M(P(c2, q3 + q2), a2), M(P(c2, q3), M(P(a2, 2), P(b2, q)))),
        q + 1: S(M(P(c2, q3 + q2 + 1), P(a2, 2)), M(P(c2, q), a2),
                 M(P(a2, 2), P(b2, q))),
        q2 + 1: S(M(P(c2, q3 + q), P(a2, 2)), P(c2, q3 + q),
                  M(P(c2, q), M(a2, P(b2, q3))), M(P(c2, q3), M(a2, P(b2, q))),
                  M(P(a2, 2), P(b2, q3 + q))),
        q3 + 1: S(M(P(c2, q3 + q + 1), a2), M(P(c2, q + 1), M(P(a2, 2), P(b2, q3))),
                  M(P(c2, q3 + 1), M(P(a2, 2), P(b2, q))),
                  M(c2, M(P(a2, 3), P(b2, q3 + q))), M(P(c2, q3 + q), b2),
                  M(P(c2, q), M(a2, M(P(b2, q3), b2))), M(P(c2, q3), P(a2, 2)),
                  M(P(c2, q3), M(a2, P(b2, q + 1))),
                  M(P(a2, 2), P(b2, q3 + q + 1))),
        2 * q: M(P(c2, q + 1), P(a2, 2)),
        q2 + q: S(M(P(c2, q3 + q + 1), a2), M(P(c2, q + 1), M(P(a2, 2), P(b2, q3))),
                  M(P(c2, q), P(a2, 2))),
        q3 + q: S(M(P(c2, q + 1), P(a2, 3)), M(P(c2, q3 + 1), a2),
                  M(c2, M(P(a2, 2), P(b2, q3))), M(P(c2, q), M(P(a2, 2), b2))),
        2 * q2: S(M(P(c2, q3 + q), a2), M(P(c2, q), M(P(a2, 2), P(b2, q3)))),
        q3 + q2: S(M(P(c2, q3 + q + 1), P(a2, 2)), M(P(c2, q + 1), M(P(a2, 3), P(b2, q3))),
                   M(P(c2, q3 + q), M(a2, b2)), M(P(c2, q), M(P(a2, 2), P(b2, q3 + 1))),
                   M(P(c2, q3), a2), M(P(a2, 2), P(b2, q3))),
        2 * q3: S(M(P(c2, q3 + 1), P(a2, 2)), M(c2, M(P(a2, 3), P(b2, q3))),
                  M(P(c2, q3), M(a2, b2)), M(P(a2, 2), P(b2, q3 + 1))),
    }
    return co


def _coeffs_to_poly(ctx: AppendixContext, coeffs: dict[int, int]) -> QPoly:
    fld = ctx.field
    p = QPoly(fld)
    for e, co in coeffs.items():
        p = p + QPoly.ypow(fld, e, co)
    return p


def _p_combination(ctx: AppendixContext, c: int, l1: dict[int, int],
                   l2: dict[int, int]) -> tuple[QPoly, int]:
    """P = s1 L1 + s2 L2 at C, with base^2, the divisor of the U/V form.

    base = C^q + alpha beta^q; both scalars carry base^2, so P vanishes
    when the divisor does."""
    fld, q = ctx.field, ctx.q
    base = fld.add(fld.pow(c, q), fld.mul(ctx.alpha, fld.pow(ctx.beta, q)))
    base2 = _sq(fld, base)
    s1 = fld.mul(fld.mul(_sq(fld, ctx.alpha), fld.pow(c, 2 * q ** 3)), base2)
    s2 = fld.mul(base2, _sq(fld, fld.add(fld.mul(c, ctx.alpha), ctx.beta)))
    return (_coeffs_to_poly(ctx, l1).scale(s1)
            + _coeffs_to_poly(ctx, l2).scale(s2)), base2


def uv_tabulated_polys(ctx: AppendixContext, c: int) -> tuple[QPoly, QPoly]:
    """The tabulated numerator/denominator pair of the kernel-root formula."""
    fld, q = ctx.field, ctx.q
    c2, a2, b2 = _sq(fld, c), _sq(fld, ctx.alpha), _sq(fld, ctx.beta)
    P, M = fld.pow, fld.mul
    q2, q3 = q * q, q ** 3
    Y = QPoly.ypow
    S = partial(_fsum, fld)

    a4, a6, a8 = P(a2, 2), P(a2, 3), P(a2, 4)
    inner = (Y(fld, q, S(M(P(c2, q + 1), a4), M(P(c2, q), M(a2, b2)),
                         M(P(c2, q3 + q2), a4), M(P(c2, q3), M(a2, P(b2, q2)))))
             + Y(fld, q2, S(M(P(c2, q3 + q + 1), a2), M(P(c2, q + 1), M(a4, P(b2, q3))),
                            M(P(c2, q3 + q2 + q), a2), M(P(c2, q3 + q), b2),
                            M(P(c2, q), M(a2, M(P(b2, q3), b2)))))
             + Y(fld, q3, S(M(P(c2, q3 + 1), a2), M(c2, M(a4, P(b2, q3))),
                            M(P(c2, q3 + q2), a2), M(P(c2, q3), b2),
                            M(a2, M(P(b2, q3), b2)))))
    upoly = (_fac_y(ctx, c) * inner).scale(a2)

    vq = S(M(M(P(c2, 2), P(c2, q3 + q)), a6), M(M(P(c2, q + 1), P(c2, q3 + q2)), a6),
           M(P(c2, q3 + q + 1), M(a4, b2)), M(P(c2, q3 + q + 1), M(a4, P(b2, q2))),
           M(P(c2, q + 1), a4), M(P(c2, q3 + q2 + 1), M(a8, P(b2, q))),
           M(P(c2, q3 + 1), M(a6, M(P(b2, q), P(b2, q2)))), M(P(c2, q3 + 1), a4),
           M(c2, M(a6, P(b2, q))), M(M(P(c2, q), P(c2, q3 + q2)), M(a4, b2)),
           M(P(c2, q3 + q), M(a2, M(b2, P(b2, q2)))), M(P(c2, q), M(a2, b2)),
           M(P(c2, q3 + q2), M(a6, P(b2, q + 1))),
           M(P(c2, q3), M(a4, M(P(b2, q + 1), P(b2, q2)))), M(a4, P(b2, q + 1)))
    vq2 = S(M(P(c2, q3 + q + 1), a2), M(P(c2, q + 1), M(a4, P(b2, q3))),
            M(P(c2, q3 + 1), M(a4, P(b2, q))), M(c2, M(a6, P(b2, q3 + q))),
            M(M(P(c2, q), P(c2, q3 + q2)), a2), M(P(c2, q3 + q), b2),
            M(P(c2, q), M(a2, P(b2, q3 + 1))), M(P(c2, q3 + q2), M(a4, P(b2, q))),
            M(P(c2, q3), M(a2, P(b2, q + 1))), M(a4, P(b2, q3 + q + 1)))
    vq3 = S(M(M(P(c2, 2), P(c2, q3 + q)), a4), M(M(P(c2, 2), P(c2, q)), M(a6, P(b2, q3))),
            M(M(P(c2, 2), P(c2, q3)), M(a6, P(b2, q))), M(P(c2, 2), M(a8, P(b2, q3 + q))),
            M(M(P(c2, q + 1), P(c2, q3 + q2)), a4), M(P(c2, q3 + q2 + 1), M(a6, P(b2, q))),
            M(M(P(c2, q), P(c2, q3 + q2)), M(a2, b2)), M(P(c2, q3 + q), P(b2, 2)),
            M(P(c2, q), M(a2, M(P(b2, 2), P(b2, q3)))),
            M(P(c2, q3 + q2), M(a4, P(b2, q + 1))),
            M(P(c2, q3), M(a2, M(P(b2, 2), P(b2, q)))),
            M(a4, M(P(b2, 2), P(b2, q3 + q))))
    vpoly = Y(fld, q, vq) + Y(fld, q2, vq2) + Y(fld, q3, vq3)
    return upoly, vpoly


# ----------------------------------------------------------------------
# the distinguished parameter set and its verification
# ----------------------------------------------------------------------

def gamma_set(ctx: AppendixContext) -> tuple[int, ...]:
    """{c : f(c) = 0, (c^2 a^2 + b^2)(c^{2q+2} a^2 + c^{2q} b^2 + 1) d(c) g(c) != 0}
    by full enumeration; d and g are used in derived (determinant) form."""
    fld, q = ctx.field, ctx.q
    a2 = fld.mul(ctx.alpha, ctx.alpha)
    b2 = fld.mul(ctx.beta, ctx.beta)
    cs = np.arange(fld.order, dtype=np.int64)
    sel = cs[f_tabulated_vec(ctx, cs) == 0]
    if not len(sel):
        return ()
    fac = _fac_coeffs_vec(ctx, sel)
    e2 = fld.vadd(fld.vadd(fld.vmul(fld.vpow(sel, 2 * q + 2), np.int64(a2)),
                           fld.vmul(fld.vpow(sel, 2 * q), np.int64(b2))),
                  np.ones(len(sel), dtype=np.int64))
    dd = _dickson_det_vec(fld, fac)
    gg = g_derived_vec(ctx, sel)
    keep = (fac[3] != 0) & (e2 != 0) & (dd != 0) & (gg != 0)  # fac[3] = C^2 a^2 + b^2
    return tuple(int(v) for v in sel[keep])


@dataclass
class GammaReport:
    alpha: int
    beta: int
    gamma: tuple[int, ...]
    checked: int
    failures: list
    vacuous: bool

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_gamma_unsaturated(ctx: AppendixContext) -> GammaReport:
    """For every member c: the point (0:1:c) is not 1-saturated by the
    linear set of U_{alpha,beta}.

    Mechanically the scan is run against U_{alpha^2,beta^2} at the point
    (0:1:c^2); squaring is a field automorphism, so the two claims are the
    same, and the squared form matches the derived filter polynomials."""
    fld = ctx.field
    gamma = gamma_set(ctx)
    if not gamma:
        return GammaReport(ctx.alpha, ctx.beta, gamma, 0, [], True)
    from .constructions import case_system
    a2 = fld.mul(ctx.alpha, ctx.alpha)
    b2 = fld.mul(ctx.beta, ctx.beta)
    u = case_system(fld, 4, alpha=a2, beta=b2)
    ls = linear_set(u)
    failures = []
    for c in gamma:
        c2 = fld.mul(c, c)
        pt = Point(fld, (0, 1, c2))
        if one_saturated(fld, ls.points, pt):
            failures.append((ctx.alpha, ctx.beta, c))
    return GammaReport(ctx.alpha, ctx.beta, gamma, len(gamma), failures, False)


# ----------------------------------------------------------------------
# identity verification
# ----------------------------------------------------------------------

@dataclass
class IdentityReport:
    c: int
    checks: dict
    findings: dict
    l1_derived: Optional[dict]
    l2_derived: Optional[dict]

    @property
    def ok_derived(self) -> bool:
        return all(v == "ok" or v == "n/a" for v in self.checks.values())


def _divide_cofactor(ctx: AppendixContext, c: int, apoly: QPoly,
                     shift_exp: int) -> Optional[dict[int, int]]:
    """Exact division A = fac(y) * y^shift * L with L a 10-term form.

    Realized as a linear solve over the monomial basis; None when the
    division is not exact."""
    fld, q = ctx.field, ctx.q
    fac = _fac_y(ctx, c)
    exps = _l_exponent_list(q)
    keys: set = set(apoly.terms)
    prods = []
    for e in exps:
        prod = fac * QPoly.ypow(fld, shift_exp) * QPoly.ypow(fld, e)
        prods.append(prod)
        keys |= set(prod.terms)
    basis = sorted(keys)
    cols = [[prod.terms.get(k, 0) for k in basis] for prod in prods]
    target = [apoly.terms.get(k, 0) for k in basis]
    sol = solve(fld, cols, target)
    if sol is None:
        return None
    return {e: v for e, v in zip(exps, sol)}


def _l_pair(ctx: AppendixContext, c: int, hpair: tuple,
            checks: dict) -> tuple[Optional[dict], Optional[dict]]:
    """The derived (L1, L2): each H's x^{q^2} part divided by fac(y) y^{q^3},
    None where the division is not exact.  Records the h_cross and
    l_division checks in `checks`."""
    fld, q = ctx.field, ctx.q
    q2, q3 = q * q, q ** 3
    fold = partial(_fold, fld)
    out = []
    for name, hp in zip(("L1", "L2"), hpair):
        parts = hp.by_x()
        apart = QPoly(fld, {(0, ey): co for ey, co in parts.get(fold(q2), {}).items()})
        bpart = QPoly(fld, {(0, ey): co for ey, co in parts.get(fold(q3), {}).items()})
        cross_ok = (apart * QPoly.ypow(fld, q2)) == (bpart * QPoly.ypow(fld, q3))
        checks[f"h_cross_{name}"] = "ok" if cross_ok else "violated"
        co = _divide_cofactor(ctx, c, apart, q3)
        checks[f"l_division_{name}"] = "not exact" if co is None else "ok"
        out.append(co)
    return out[0], out[1]


def verify_identities(ctx: AppendixContext, c: int,
                      numeric: bool = True,
                      grid: Optional[tuple] = None) -> IdentityReport:
    """Mechanical checks of the combination-chain identities at a fixed c.

    Hard checks run on derived forms; tabulated-vs-derived comparisons are
    reported as findings with the smallest differing monomial."""
    fld, q = ctx.field, ctx.q
    fld.check(c)
    q2, q3 = q * q, q ** 3
    fold = partial(_fold, fld)
    checks: dict = {}
    findings: dict = {}

    f0 = f0_poly(ctx, c)
    d0 = f0_derived_poly(ctx, c)
    findings["F0"] = "ok" if f0 == d0 else f"diff {f0.diff(d0)[:3]}"

    try:
        chain = g_chain_polys(ctx, c)
    except IdentityViolation as exc:
        checks["g_x_support"] = f"violated ({exc})"
        return IdentityReport(c, checks, findings, None, None)
    _f0b, g1, g2, g3 = chain
    gsup = {fold(q), fold(q2), fold(q3)}
    checks["g_x_support"] = ("ok" if all(g.x_exponents() <= gsup
                                         for g in (g1, g2, g3)) else "violated")

    u, v, w = uvw_derived(ctx, c, chain)
    ut, vt, wt = uvw_tabulated(ctx, c)
    for name, der, tab in (("u", u, ut), ("v", v, vt), ("w", w, wt)):
        findings[name] = "ok" if der == tab else f"diff {der.diff(tab)[:3]}"
    h1p, h2p = _h_pair(chain, (u, v, w))
    hsup = {fold(q2), fold(q3)}
    checks["h_x_support"] = ("ok" if (h1p.x_exponents() <= hsup
                                      and h2p.x_exponents() <= hsup) else "violated")

    l1d, l2d = _l_pair(ctx, c, (h1p, h2p), checks)

    for name, got, want_fn in (("L1", l1d, l1_tabulated_coeffs),
                               ("L2", l2d, l2_tabulated_coeffs)):
        if got is None:
            findings[name] = "no derived form"
            continue
        want = want_fn(ctx, c)
        gotf = {fold(e): v for e, v in got.items() if v}
        wantf = {fold(e): v for e, v in want.items() if v}
        if gotf == wantf:
            findings[name] = "ok"
        else:
            keys = sorted(set(gotf) | set(wantf))
            bad = [(k, gotf.get(k, 0), wantf.get(k, 0))
                   for k in keys if gotf.get(k, 0) != wantf.get(k, 0)]
            findings[name] = f"diff at y-exponents {bad[:4]}"

    # reduced-map square form on the zero locus of f
    if f_tabulated(ctx, c) == 0:
        a00, a01, a02, a10, a11, a20 = a_coefficients(ctx, c)
        checks["a_vanish_on_locus"] = ("ok" if a01 == a10 == a11 == 0 else "violated")
        mp = m_poly(ctx, c)
        root = (QPoly.ypow(fld, q3, a00) + QPoly.ypow(fld, q2, a02)
                + QPoly.ypow(fld, q, a20))
        checks["m_square"] = "ok" if mp == root * root else "violated"
    else:
        checks["a_vanish_on_locus"] = "n/a"
        checks["m_square"] = "n/a"

    findings["d"] = ("ok" if d_tabulated(ctx, c) == d_derived(ctx, c)
                     else f"{d_tabulated(ctx, c)} vs {d_derived(ctx, c)}")
    findings["g"] = ("ok" if g_tabulated(ctx, c) == g_derived(ctx, c)
                     else f"{g_tabulated(ctx, c)} vs {g_derived(ctx, c)}")

    # combination P = s1 L1 + s2 L2 and the root formula of the tabulated pair
    if l1d is not None and l2d is not None:
        ppoly, base2 = _p_combination(ctx, c, l1d, l2d)
        if base2 == 0:
            findings["P_UV"] = "degenerate divisor"
        else:
            qpoly = ppoly.scale(fld.inv(base2))
            upoly, vpoly = uv_tabulated_polys(ctx, c)
            ys = np.arange(1, fld.order, dtype=np.int64)
            zeros_mask = qpoly.eval_vec(np.zeros(len(ys), dtype=np.int64), ys) == 0
            bad = 0
            degen = 0
            for y0 in ys[zeros_mask]:
                uy = upoly.eval(0, int(y0))
                vy = vpoly.eval(0, int(y0))
                if uy == 0 and vy == 0:
                    degen += 1
                elif fld.mul(int(y0), vy) != uy:
                    bad += 1
            findings["P_UV"] = ("ok" if bad == 0
                                else f"{bad} root-formula mismatches")
            if degen:
                findings["P_UV"] += f" ({degen} degenerate)"

    # exhaustive numeric re-verification through the evaluation chain
    if numeric and l1d is not None and l2d is not None:
        if grid is None:
            n = fld.order
            xs = np.repeat(np.arange(n, dtype=np.int64), n)
            ys = np.tile(np.arange(n, dtype=np.int64), n)
        else:
            xs, ys = grid
        ok = _numeric_identity_sweep(ctx, c, l1d, l2d, xs, ys, (u, v, w))
        checks["numeric_exhaustive"] = "ok" if ok else "violated"

    return IdentityReport(c, checks, findings, l1d, l2d)


def _numeric_identity_sweep(ctx: AppendixContext, c: int,
                            l1d: dict, l2d: dict,
                            xs: np.ndarray, ys: np.ndarray,
                            uvw: tuple) -> bool:
    """Pointwise evaluation of the combination chain against its factored form.

    xs, ys must enumerate grid points by value (entry == field encoding), so
    y-only factors are formed once per field element and gather-expanded."""
    fld = ctx.field
    elems = np.arange(fld.order, dtype=np.int64)
    zero = np.zeros(len(elems), dtype=np.int64)
    fac = LinPoly(fld, _fac_coeffs(ctx, c)).eval_vec(elems)
    # F0(x, y) = x * fac(y) + y * fac(x)
    f0v = fld.vadd(fld.vmul(xs, fac[ys]), fld.vmul(ys, fac[xs]))
    gv = []
    for i, (lam, mu) in enumerate(_g_multipliers(ctx, c, f0_poly(ctx, c)), start=1):
        lam_fac = fld.vmul(np.int64(lam), fac)
        mu_yq = fld.vmul(np.int64(mu), fld.vfrob(elems, i))
        gv.append(fld.vadd(fld.vmul(lam_fac[ys], fld.vfrob(f0v, i)),
                           fld.vmul(mu_yq[ys], f0v)))
    g1v, g2v, g3v = gv
    u, v, w = (p.eval_vec(zero, elems) for p in uvw)
    h1v = fld.vadd(fld.vmul(u[ys], g1v), fld.vmul(v[ys], g2v))
    h2v = fld.vadd(fld.vmul(w[ys], g1v), fld.vmul(v[ys], g3v))
    xq = fld.vfrob(elems, 1)
    cross = fld.vfrob(fld.vadd(fld.vmul(xs, xq[ys]), fld.vmul(xq[xs], ys)), 2)
    for hv, ld in ((h1v, l1d), (h2v, l2d)):
        fac_l = fld.vmul(fac, _coeffs_to_poly(ctx, ld).eval_vec(zero, elems))
        if not np.array_equal(hv, fld.vmul(fac_l[ys], cross)):
            return False
    return True


# ----------------------------------------------------------------------
# the alpha = 1 subcases: trace-condition sets and scatteredness scans
# ----------------------------------------------------------------------

def r0_eval(fld: Field, beta: int, z: int) -> int:
    """(z^4+z)(z+b)(z^2+z b^2+z b+1)(z^2+z b^3+z b^2+z b+b^3+b^2+1)(z b^3+b+1)."""
    M, A, P = fld.mul, fld.add, fld.pow
    b = beta
    out = M(A(P(z, 4), z), A(z, b))
    out = M(out, A(A(M(z, z), M(z, A(M(b, b), b))), 1))
    t = A(A(M(z, z), M(z, A(A(P(b, 3), M(b, b)), b))), A(A(P(b, 3), M(b, b)), 1))
    out = M(out, t)
    return M(out, A(A(M(z, P(b, 3)), b), 1))


def h_family_eval(fld: Field, beta: int, z: int) -> tuple[int, int, int, int]:
    """The four tail filter polynomials of the non-subfield branch."""
    q = fld.q
    q2, q3 = q * q, q ** 3
    M, A, P, T = fld.mul, fld.add, fld.pow, fld.trace
    b = beta
    S = partial(_fsum, fld)

    bq = {e: P(b, e) for e in {1, q, q2, q3, q + 1, q2 + 1, q3 + 1, q2 + q,
                               q3 + q, q3 + q2, q2 + q + 1, q3 + q + 1,
                               q3 + q2 + q, 2 * q, 2 * q + 1, q + 2, 2 * q2,
                               q2 + 2, q2 + q + 2, q2 + 2 * q + 1, q3 + 2 * q,
                               q3 + 2 * q + 1, q3 + q2 + 2 * q, q2 + 2 * q,
                               q3 + 2 * q2 + q, 2 * q2 + q, 2 * q2 + 1,
                               q3 + q2 + 1, q3 + q2 + q + 1}}
    h1 = M(M(M(bq[q + 1], z), A(z, 1)),
           S(M(z, z), M(z, A(b, bq[q3])), A(b, bq[q3])))
    h2 = S(P(z, 5),
           M(P(z, 4), S(bq[q2 + q + 1], bq[q + 1], b, bq[q2], bq[q3])),
           M(P(z, 3), S(bq[q2 + q + 2], bq[q + 2], bq[q2 + 2 * q + 1],
                        bq[2 * q + 1], bq[q3 + q + 1], bq[q2 + 1], b,
                        bq[q2], bq[q2 + q], bq[q], bq[q2], bq[q3], 1)),
           M(P(z, 2), S(bq[q2 + q + 2], bq[q3 + 2 * q + 1], bq[2 * q + 1],
                        bq[q + 1], bq[q3 + 2 * q], bq[2 * q], bq[q2 + q],
                        bq[q3 + q], bq[q], bq[q2])),
           M(z, S(bq[q2 + q + 2], bq[q + 2], bq[q2 + 2 * q + 1],
                  bq[q3 + q + 1], bq[q2 + 1], bq[q3 + q], bq[q], bq[q2])),
           S(bq[q2 + q + 2], bq[q3 + 2 * q + 1], bq[q2 + q + 1],
             bq[q3 + 2 * q]))
    inner3 = S(P(z, 5),
               M(P(z, 4), S(b, bq[q3 + q2 + q], bq[q2 + q], bq[q], bq[q3])),
               M(P(z, 3), S(bq[q2 + q + 1], b, bq[q3 + q2 + 2 * q],
                            bq[q2 + 2 * q], bq[q3 + 2 * q2 + q],
                            bq[2 * q2 + q], bq[q3 + q], bq[q], bq[2 * q2],
                            bq[q3 + q2], bq[q2], bq[q3], 1)),
               M(P(z, 2), S(bq[q2 + q + 1], bq[2 * q2 + 1], bq[q2 + 1],
                            bq[q3 + q2 + 2 * q], bq[2 * q2 + q], bq[q2 + q],
                            bq[2 * q2], bq[q3 + q2], bq[q2], bq[q3])),
               M(z, S(bq[q2 + q + 1], bq[q2 + 1], bq[q3 + q2 + 2 * q],
                      bq[q2 + 2 * q], bq[q3 + 2 * q2 + q], bq[q3 + q],
                      bq[q2], bq[q3])),
               S(bq[q2 + q + 1], bq[2 * q2 + 1], bq[q3 + q2 + 2 * q],
                 bq[q3 + q2 + q]))
    h3 = M(M(b, A(z, 1)), inner3)
    h4 = S(M(T(A(b, bq[q + 1])), P(z, 3)),
           M(S(T(bq[q2 + q + 1]), bq[q2 + 1], bq[q3 + q]), P(z, 2)),
           M(T(b), z), T(bq[q + 1]))
    return h1, h2, h3, h4


def delta_sets(fld: Field, beta: int, which: int) -> tuple[int, ...]:
    """The trace-condition set (which=0) or tail filter set (which=1) in F_q.

    which=0 needs beta in F_q^*; which=1 needs beta outside F_q with the
    norm-one condition.  Full enumeration over F_q, even characteristic."""
    if fld.p != 2:
        raise OddCharacteristic("the distinguished sets need even q")
    if fld.m != 4:
        raise InvalidCaseParams("the distinguished sets live in the m = 4 tower")
    fld.check(beta)
    q = fld.q
    if which == 0:
        if beta == 0 or not fld.in_mid_subfield(beta):
            raise InvalidBeta("which=0 needs beta in F_q^*")
        out = []
        for z in fld.subfield_elements("mid"):
            if z == 0 or r0_eval(fld, beta, z) == 0:
                continue
            num = fld.mul(
                fld.add(fld.add(fld.mul(z, fld.pow(beta, 3)),
                                fld.mul(z, fld.mul(beta, beta))),
                        fld.add(z, beta)),
                fld.add(z, beta))
            den = fld.mul(fld.mul(z, z), fld.pow(beta, 4))
            arg = fld.div(num, den)
            if not fld.in_mid_subfield(arg):
                raise InvalidBeta("trace argument left the subfield")
            if fld.subfield_trace(arg) == 0:
                out.append(z)
        return tuple(out)
    if which == 1:
        if fld.in_mid_subfield(beta):
            raise InvalidBeta("which=1 needs beta outside F_q")
        if fld.pow(beta, (q * q + 1) * (q - 1)) != 1:
            raise InvalidBeta("beta must satisfy the norm-one condition")
        q2 = q * q
        out = []
        for z in fld.subfield_elements("mid"):
            lead = fld.mul(fld.mul(z, fld.add(z, 1)),
                           fld.add(fld.mul(z, fld.pow(beta, q2 + 1)),
                                   fld.add(beta, fld.pow(beta, q2))))
            quad = fld.add(
                fld.add(fld.mul(z, z),
                        fld.mul(z, fld.add(fld.pow(beta, q2 + q),
                                           fld.pow(beta, q2)))),
                fld.add(fld.add(fld.pow(beta, q), fld.pow(beta, q2)), 1))
            h1, h2, h3, h4 = h_family_eval(fld, beta, z)
            prod = fld.mul(fld.mul(lead, quad),
                           fld.mul(fld.mul(h1, h2), fld.mul(h3, h4)))
            if prod != 0:
                out.append(z)
        return tuple(out)
    raise ValueError(f"which must be 0 or 1, got {which}")


@dataclass
class ScatterReport:
    """Outcome of the projected-pair scatteredness scan."""
    distinct: int
    expected: int
    kernel_size: int
    scattered: bool


def scattered_pair_scan(fld: Field, a_coeffs: Sequence[int],
                        b_coeffs: Sequence[int]) -> ScatterReport:
    """Is {(A(x) : B(x))} scattered, for q-polynomial maps A, B?

    One x per F_q^*-coset (never a pairwise scan): A and B are F_q-linear,
    so (A(lx) : B(lx)) = (A(x) : B(x)) for l in F_q^*, and a coset lies
    wholly inside or outside the joint kernel, an F_q-subspace.  With g a
    generator, g^0 .. g^{N-1} (N = (q^4-1)/(q-1)) meet every coset once.
    The set is scattered iff the kernel is trivial and the directions take
    N distinct values; kernel_size counts the nonzero kernel elements.
    Even q only, as for both callers."""
    if fld.p != 2:
        raise OddCharacteristic("the pair scan covers even q")
    fld._need_tables()
    n = fld.order - 1
    expected = n // (fld.q - 1)
    amap = fld.linear_map_from_images(
        [LinPoly(fld, list(a_coeffs))(1 << j) for j in range(fld.degree)])
    bmap = fld.linear_map_from_images(
        [LinPoly(fld, list(b_coeffs))(1 << j) for j in range(fld.degree)])
    reps = fld._exp[:expected]
    av = amap.apply(reps)
    bv = bmap.apply(reps)
    zero_a = av == 0
    zero_b = bv == 0
    # direction keys: log(B/A), n for (1 : 0), n + 1 for (0 : 1)
    keys = (fld._log[bv] - fld._log[av]) % n
    keys[zero_b] = n
    keys[zero_a] = n + 1
    live = ~(zero_a & zero_b)
    seen = np.zeros(n + 2, dtype=bool)
    seen[keys[live]] = True
    distinct = int(seen.sum())
    kernel = (expected - int(live.sum())) * (fld.q - 1)
    return ScatterReport(distinct, expected, kernel,
                         kernel == 0 and distinct == expected)


def verify_delta_unsaturated(fld: Field, beta: int, which: int, z: int,
                             strict: bool = True) -> ScatterReport:
    """The projected pair (x^q + x^{q^3} + z x, x^{q^2} + b x^{q^3} + b x)
    must be scattered, certifying that (1 : z : b) is not 1-saturated."""
    if z not in delta_sets(fld, beta, which):
        raise InvalidBeta(f"z={z} is not in the which={which} set for beta={beta}")
    rep = scattered_pair_scan(fld, [z, 1, 0, 1], [beta, 0, 1, beta])
    if strict and not rep.scattered:
        raise AssertionFailed(
            f"projected pair not scattered at beta={beta}, z={z}: "
            f"{rep.distinct} of {rep.expected} values")
    return rep


# ----------------------------------------------------------------------
# the middle normal-form witness
# ----------------------------------------------------------------------

@dataclass
class Case3Report:
    alpha: int
    omega: Optional[int]
    route: str
    checks: dict

    @property
    def ok(self) -> bool:
        return all(v == "ok" for v in self.checks.values())


def case3_witness(fld: Field, alpha: int) -> Case3Report:
    """A point with no secant line for the system (x, x^q + a x^{q^3}, x^{q^2}).

    For a != 1 scan omega in F_{q^2} ascending, taking the first with
    N((omega+a)/(omega a+1)) != 1 (the verified scatteredness criterion for
    the projection from (1:0:omega); for norm-one a != 1 this is exactly
    omega outside F_q), and certify via the projection-scatteredness route,
    cross-checked by the direct secant scan; a = 1 dispatches to the
    distinguished route through (1:0:0), whose projection is a linear set
    with a single weight-2 point."""
    from .constructions import case_system, normalized_alphas
    if fld.m != 4:
        raise InvalidCaseParams("the witness lives in V(3, q^4)")
    if fld.p != 2:
        raise OddCharacteristic("the witness scan covers even q")
    if alpha not in normalized_alphas(fld):
        raise InvalidCaseParams("alpha must be norm-one over F_{q^2}")
    u = case_system(fld, 3, alpha=alpha)
    ls = linear_set(u)
    checks = {}
    if alpha == 1:
        center = Point(fld, (1, 0, 0))
        checks["no_secant_through_center"] = (
            "ok" if not one_saturated(fld, ls.points, center) else "violated")
        checks["unique_weight2_point"] = (
            "ok" if _case3_unique_weight2(fld) else "violated")
        return Case3Report(alpha, None, "collapsed-fiber", checks)
    omega = None
    q2_elems = [zz for zz in range(fld.order) if fld.frobenius(zz, 2) == zz]
    for cand in sorted(q2_elems):
        num = fld.add(cand, alpha)
        den = fld.add(fld.mul(cand, alpha), 1)
        # monomial degenerations are scattered outright
        if num == 0 or den == 0 or fld.norm(fld.div(num, den)) != 1:
            omega = cand
            break
    if omega is None:
        raise NoWitness("no omega with the norm criterion")
    # projection route: {(x^q + a x^{q^3} : x^{q^2} + w x)} scattered
    rep = scattered_pair_scan(fld, [0, 1, 0, alpha], [omega, 0, 1, 0])
    checks["projection_scattered"] = "ok" if rep.scattered else "violated"
    center = Point(fld, (1, 0, omega))
    checks["no_secant_through_center"] = (
        "ok" if not one_saturated(fld, ls.points, center) else "violated")
    if fld.q <= 4:
        checks["pairwise_cross_check"] = (
            "ok" if not _brute_secant(fld, ls, center) else "violated")
    return Case3Report(alpha, omega, "projection", checks)


def _case3_unique_weight2(fld: Field) -> bool:
    """Projected system {(x^q + x^{q^3}, x^{q^2})}: exactly one weight-2
    point, namely (0:1), everything else weight 1."""
    gens = [(fld.add(fld.frobenius(b, 1), fld.frobenius(b, 3)), fld.frobenius(b, 2))
            for b in fld.power_basis]
    proj = system_create(fld, 2, gens)
    if proj.rank != 4:
        return False
    ls = linear_set(proj)
    heavy = [(idx, wt) for idx, wt in ls.weight_index().items() if wt > 1]
    if len(heavy) != 1 or heavy[0][1] != 2:
        return False
    target = Point(fld, (0, 1))
    return ls.weight_of(target) == 2


def _brute_secant(fld: Field, ls, center: Point) -> bool:
    """Quadratic-time secant scan, kept as an independent cross-check."""
    pts = [Point(fld, r) for r in ls.points]
    if any(p == center for p in pts):
        return True
    from .linalg import fqm_rank
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            rows = [list(pts[i].coords), list(pts[j].coords)]
            if fqm_rank(fld, rows + [list(center.coords)]) == 2:
                return True
    return False


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def registry_eval(ctx: AppendixContext, name: str, **bindings) -> int:
    """Evaluate a named registry polynomial at the given bindings.

    Ground truth is the derived form where one exists; tabulated-only names
    evaluate their transcription.  Bindings use C, x, y, z as applicable."""
    fld = ctx.field

    def need(*keys):
        for key in keys:
            if key not in bindings:
                raise MissingBinding(f"{name} needs binding {key!r}")
        return [fld.check(bindings[k]) for k in keys]

    if name == "d":
        (c,) = need("C")
        return d_derived(ctx, c)
    if name == "d_tabulated":
        (c,) = need("C")
        return d_tabulated(ctx, c)
    if name == "f":
        (c,) = need("C")
        return f_tabulated(ctx, c)
    if name == "g":
        (c,) = need("C")
        return g_derived(ctx, c)
    if name == "g_tabulated":
        (c,) = need("C")
        return g_tabulated(ctx, c)
    if name in ("F0", "F1", "F2", "F3"):
        c, x, y = need("C", "x", "y")
        poly = f0_poly(ctx, c).frob(int(name[1]))
        return poly.eval(x, y)
    if name in ("G1", "G2", "G3"):
        c, x, y = need("C", "x", "y")
        chain = g_chain_polys(ctx, c)
        return chain[int(name[1])].eval(x, y)
    if name in ("u", "v", "w"):
        c, y = need("C", "y")
        idx = {"u": 0, "v": 1, "w": 2}[name]
        return uvw_derived(ctx, c)[idx].eval(0, y)
    if name in ("u_tabulated", "v_tabulated", "w_tabulated"):
        c, y = need("C", "y")
        idx = {"u": 0, "v": 1, "w": 2}[name.split("_")[0]]
        return uvw_tabulated(ctx, c)[idx].eval(0, y)
    if name in ("H1", "H2"):
        c, x, y = need("C", "x", "y")
        h1, h2 = h_polys(ctx, c)
        return (h1 if name == "H1" else h2).eval(x, y)
    if name in ("L1", "L2", "P"):
        c, y = need("C", "y")
        try:
            chain = g_chain_polys(ctx, c)
        except IdentityViolation:
            l1 = l2 = None
        else:
            l1, l2 = _l_pair(ctx, c, _h_pair(chain, uvw_derived(ctx, c, chain)), {})
        if name == "P":
            if l1 is None or l2 is None:
                raise DivisionNotExact(f"P has no derived form at C={c}")
            return _p_combination(ctx, c, l1, l2)[0].eval(0, y)
        coeffs = l1 if name == "L1" else l2
        if coeffs is None:
            raise DivisionNotExact(f"{name} has no derived form at C={c}")
        return _coeffs_to_poly(ctx, coeffs).eval(0, y)
    if name in ("L1_tabulated", "L2_tabulated"):
        c, y = need("C", "y")
        fn = l1_tabulated_coeffs if name.startswith("L1") else l2_tabulated_coeffs
        return _coeffs_to_poly(ctx, fn(ctx, c)).eval(0, y)
    if name in ("U", "V"):
        c, y = need("C", "y")
        upoly, vpoly = uv_tabulated_polys(ctx, c)
        return (upoly if name == "U" else vpoly).eval(0, y)
    if name == "M":
        c, y = need("C", "y")
        return m_poly(ctx, c).eval(0, y)
    if name in ("a00", "a01", "a02", "a10", "a11", "a20"):
        (c,) = need("C")
        vals = a_coefficients(ctx, c)
        idx = ("a00", "a01", "a02", "a10", "a11", "a20").index(name)
        return vals[idx]
    if name == "r0":
        (z,) = need("z")
        return r0_eval(fld, ctx.beta, z)
    if name in ("h1", "h2", "h3", "h4"):
        (z,) = need("z")
        vals = h_family_eval(fld, ctx.beta, z)
        return vals[int(name[1]) - 1]
    raise UnknownName(f"no registry entry named {name!r}")
