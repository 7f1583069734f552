"""Correctness checks of the workloads' outputs against `reference`.

Each check takes the plain records a workload round produced and returns a
list of problems; an empty list means the outputs are correct.  The checks
recompute what they test with the reference arithmetic, or test a property
the method must have.  They never compare with a stored copy of an earlier
output.
"""

from __future__ import annotations

import random

import numpy as np

from reference import (
    BinaryLinearMap,
    BinaryVectorOps,
    RefField,
    encode_rows,
    fq_span,
    in_rows,
    lower_bound,
    moore_span,
    normalize_points,
    pg_size,
    projection_collides,
    row_rank,
    secant_closure,
    upper_bound,
)

_REF_CACHE: dict = {}


def ref_field(p: int, modulus) -> RefField:
    key = (p, tuple(modulus))
    if key not in _REF_CACHE:
        _REF_CACHE[key] = RefField(p, modulus)
    return _REF_CACHE[key]


def _span_codes(field: RefField, vecs: np.ndarray) -> np.ndarray:
    return np.unique(encode_rows(field, vecs))


# ----------------------------------------------------------------------
# saturation
# ----------------------------------------------------------------------

def _unsaturated(field, points, witness, level) -> bool:
    """Is `witness` outside every span of `level` points of the set?"""
    if witness is None or in_rows(field, points, witness):
        return False
    if level == 1:
        return True
    if level == 2:
        return not projection_collides(field, points, witness)
    raise ValueError(f"no reference test for level {level}")


def check_moore(rec: dict) -> list[str]:
    p, a, m, rho, t = rec["point"]
    q, k = p ** a, rho * t
    name = f"moore{rec['point']}"
    f = ref_field(p, rec["modulus"])
    bad = []
    want_rank = m * (t - 1) + rho
    lb = lower_bound(q, m, k, rho)
    if rec["rank"] != want_rank:
        bad.append(f"{name}: rank {rec['rank']} != m(t-1)+rho = {want_rank}")
    if want_rank < lb or (q > 2 and want_rank != lb):
        bad.append(f"{name}: rank {want_rank} vs lower bound {lb}")
    if rec["rho"] != rho:
        bad.append(f"{name}: saturating index {rec['rho']} != {rho}")
    ref_vecs = moore_span(f, q, rho, t)
    ref_codes = _span_codes(f, ref_vecs)
    if len(ref_codes) != q ** want_rank:
        bad.append(f"{name}: reference span has {len(ref_codes)} vectors")
    prog_codes = _span_codes(f, fq_span(f, q, rec["basis"], k))
    if not np.array_equal(prog_codes, ref_codes):
        bad.append(f"{name}: program's system differs from the block-tower span")
    points = normalize_points(f, ref_vecs)
    cov = rec["coverage"]
    if cov.get(1) != len(points):
        bad.append(f"{name}: coverage[1] = {cov.get(1)} but |L_U| = {len(points)}")
    if cov.get(max(cov)) != pg_size(f.order, k):
        bad.append(f"{name}: last coverage {cov.get(max(cov))} != {pg_size(f.order, k)}")
    if not _unsaturated(f, points, rec["witness"], rho - 1):
        bad.append(f"{name}: level-{rho - 1} witness {rec['witness']} is saturated")
    for target, outs in rec["solver"]:
        if len(outs) != rho:
            bad.append(f"{name}: solver gave {len(outs)} vectors for {target}")
        if not np.isin(encode_rows(f, np.asarray(outs)), ref_codes).all():
            bad.append(f"{name}: solver output outside U for target {target}")
        if row_rank(f, list(outs) + [target]) != row_rank(f, outs):
            bad.append(f"{name}: target {target} outside the span of the solver output")
    cert = rec["cert"]
    if not cert["ok"]:
        bad.append(f"{name}: certificate not re-verified: {cert['report']}")
    if not np.array_equal(_span_codes(f, fq_span(f, q, cert["generators"], k)), ref_codes):
        bad.append(f"{name}: reloaded certificate holds another system")
    claims = {c["kind"]: c.get("value") for c in cert["claims"]}
    if claims != {"rank": want_rank, "saturating-index": rho}:
        bad.append(f"{name}: reloaded certificate claims {claims}")
    return bad


def case4_span(f: RefField, q: int, alpha: int, beta: int) -> np.ndarray:
    """{(x, x^q + alpha x^(q^3), x^(q^2) + beta x^(q^3))} from its definition."""
    x = f.elements()
    xq = f.vpow(x, q)
    xq2 = f.vpow(xq, q)
    xq3 = f.vpow(xq2, q)
    return np.stack([x, f.vadd(xq, f.vmul(alpha, xq3)),
                     f.vadd(xq2, f.vmul(beta, xq3))], axis=1)


def check_case4(rec: dict) -> list[str]:
    p, a = rec["field"]
    q = p ** a
    name = f"case4(q={q}, alpha={rec['alpha']}, beta={rec['beta']})"
    f = ref_field(p, rec["modulus"])
    bad = []
    ref_vecs = case4_span(f, q, rec["alpha"], rec["beta"])
    if not np.array_equal(_span_codes(f, fq_span(f, q, rec["basis"], 3)),
                          _span_codes(f, ref_vecs)):
        bad.append(f"{name}: program's system differs from its definition")
    points = normalize_points(f, ref_vecs)
    if rec["coverage1"] != len(points):
        bad.append(f"{name}: coverage[1] = {rec['coverage1']} but |L_U| = {len(points)}")
    if rec["rho"] == 2:
        bad.append(f"{name}: reported 2-saturating")
    if not _unsaturated(f, points, rec["witness"], 2):
        bad.append(f"{name}: level-2 witness {rec['witness']} is saturated")
    return bad


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def _poly_eval(f: RefField, poly_terms: dict, xs, ys) -> np.ndarray:
    """Sum of c x^ex y^ey over the given points, by table lookups built
    from the textbook product (even characteristic: sums are XOR)."""
    mt, pt = f.mul_table(), f.pow_table()
    out = np.zeros(len(xs), dtype=np.int64)
    if not poly_terms:
        return out
    keys = list(poly_terms)
    ex = np.array([f.fold_exponent(k[0]) for k in keys], dtype=np.int64)
    ey = np.array([f.fold_exponent(k[1]) for k in keys], dtype=np.int64)
    co = np.array([poly_terms[k] for k in keys], dtype=np.int64)
    vals = mt[mt[co[:, None], pt[xs[None, :], ex[:, None]]], pt[ys[None, :], ey[:, None]]]
    return np.bitwise_xor.reduce(vals, axis=0)


def check_identity(rec: dict, chain, uvw, points) -> list[str]:
    """h1 = u G1 + v G2 = fac(y) (x y^q + x^q y)^(q^2) L1(y), and
    h2 = w G1 + v G3 = fac(y) (x y^q + x^q y)^(q^2) L2(y), at `points`."""
    name = f"identity(q={rec['q']}, alpha={rec['alpha']}, beta={rec['beta']}, C={rec['c']})"
    if not rec["ok"]:
        return [f"{name}: ok_derived is false"]
    if rec["l1"] is None or rec["l2"] is None:
        return [f"{name}: no derived L1/L2"]
    f = ref_field(2, rec["modulus"])
    q = rec["q"]
    mt, pt = f.mul_table(), f.pow_table()
    xs, ys = points
    P = lambda z, e: pt[z, f.fold_exponent(e)]
    M = lambda u, v: mt[u, v]
    c2, a2, b2 = M(rec["c"], rec["c"]), M(rec["alpha"], rec["alpha"]), M(rec["beta"], rec["beta"])
    fac = M(c2, P(ys, q)) ^ P(ys, q * q) ^ M(M(c2, a2) ^ b2, P(ys, q ** 3))
    cross = P(M(xs, P(ys, q)) ^ M(P(xs, q), ys), q * q)
    _f0, g1, g2, g3 = (_poly_eval(f, g.terms, xs, ys) for g in chain)
    u, v, w = (_poly_eval(f, h.terms, xs, ys) for h in uvw)
    bad = []
    for label, lhs, coeffs in (("h1", M(u, g1) ^ M(v, g2), rec["l1"]),
                               ("h2", M(w, g1) ^ M(v, g3), rec["l2"])):
        lv = np.zeros(len(ys), dtype=np.int64)
        for e, co in coeffs.items():
            lv ^= M(co, P(ys, e))
        rhs = M(M(fac, cross), lv)
        miss = int((lhs != rhs).sum())
        if miss:
            bad.append(f"{name}: {label} factorisation fails at {miss} of {len(xs)} points")
    return bad


def identity_points(order: int, n_points: int, rng: random.Random):
    """The whole grid when it is small, else n_points seeded (x, y) pairs."""
    if order * order <= n_points:
        xs = np.repeat(np.arange(order, dtype=np.int64), order)
        ys = np.tile(np.arange(order, dtype=np.int64), order)
        return xs, ys
    xs = np.array([rng.randrange(order) for _ in range(n_points)], dtype=np.int64)
    ys = np.array([rng.randrange(order) for _ in range(n_points)], dtype=np.int64)
    return xs, ys


# ----------------------------------------------------------------------
# delta sets at q = 64
# ----------------------------------------------------------------------

def in_delta0(f: RefField, a: int, beta: int, z: int) -> bool:
    """z in Delta_0(beta): r0(z) != 0 and Tr_{F_q/F_2}(num/den) = 0."""
    M, A, P = f.mul, f.add, f.pow
    b = beta
    r0 = M(A(P(z, 4), z), A(z, b))
    r0 = M(r0, A(A(M(z, z), M(z, A(M(b, b), b))), 1))
    r0 = M(r0, A(A(M(z, z), M(z, A(A(P(b, 3), M(b, b)), b))), A(A(P(b, 3), M(b, b)), 1)))
    r0 = M(r0, A(A(M(z, P(b, 3)), b), 1))
    if z == 0 or r0 == 0:
        return False
    num = M(A(A(M(z, P(b, 3)), M(z, M(b, b))), A(z, b)), A(z, b))
    den = M(M(z, z), P(b, 4))
    arg = f.div(num, den)
    tr = 0
    for j in range(a):
        tr = A(tr, P(arg, 1 << j))
    return tr == 0


class DeltaReference:
    """Coset representatives g^0 .. g^(N-1) of F_q^* in F_{q^4}, for the
    scatteredness count of (A(x) : B(x))."""

    def __init__(self, f: RefField, q: int):
        self.f, self.q = f, q
        self.ops = BinaryVectorOps(f)
        self.n = (f.order - 1) // (q - 1)
        g = f.primitive_element()
        reps = np.ones(1, dtype=np.int64)
        while len(reps) < self.n:
            step = f.pow(g, len(reps))
            mul_step = BinaryLinearMap.of(f, lambda z: f.mul(z, step))
            reps = np.concatenate([reps, mul_step.apply(reps)])[:self.n]
        self.reps = reps

    def directions(self, a_coeffs, b_coeffs) -> tuple[int, int]:
        """(kernel elements among the representatives, distinct directions)
        for A(x) = sum a_i x^(q^i) and B(x) = sum b_i x^(q^i)."""
        f, q = self.f, self.q

        def linpoly(coeffs):
            return lambda z: sum_xor(f.mul(c, f.pow(z, q ** i)) for i, c in enumerate(coeffs))

        av = BinaryLinearMap.of(f, linpoly(a_coeffs)).apply(self.reps)
        bv = BinaryLinearMap.of(f, linpoly(b_coeffs)).apply(self.reps)
        kernel = int(((av == 0) & (bv == 0)).sum())
        nz = av != 0
        keys = np.full(len(av), f.order, dtype=np.int64)          # (0 : 1)
        keys[nz] = f.vmul(bv[nz], self.ops.inv(av[nz]))
        keys[(av == 0) & (bv == 0)] = -1
        distinct = len(np.unique(keys[keys >= 0]))
        return kernel, distinct


def sum_xor(vals) -> int:
    out = 0
    for v in vals:
        out ^= v
    return out


def check_delta(rec: dict, dref: DeltaReference, a: int) -> list[str]:
    bad = []
    for beta, members in rec["sets"].items():
        if not members:
            bad.append(f"delta0(beta={beta}) is empty")
    for scan in rec["scans"]:
        beta, z = scan["beta"], scan["z"]
        name = f"scan(beta={beta}, z={z})"
        if not in_delta0(dref.f, a, beta, z):
            bad.append(f"{name}: z is not in Delta_0(beta) by the reference")
        kernel, distinct = dref.directions([z, 1, 0, 1], [beta, 0, 1, beta])
        if kernel:
            bad.append(f"{name}: (A, B) has a common zero")
        if not (distinct == dref.n == scan["distinct"] == scan["expected"]):
            bad.append(f"{name}: distinct {scan['distinct']} / expected "
                       f"{scan['expected']}, reference {distinct} of {dref.n}")
        if scan["kernel"] != kernel or not scan["scattered"]:
            bad.append(f"{name}: verdict scattered={scan['scattered']}, "
                       f"kernel={scan['kernel']}")
    return bad


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def saturating_index_brute(f: RefField, q: int, basis, k: int) -> int:
    """1 if L_U is all of PG(k-1, q^m); 2 if its secants cover it; else 3
    (meaning 'more than 2')."""
    pts = normalize_points(f, fq_span(f, q, basis, k))
    total = pg_size(f.order, k)
    if len(pts) == total:
        return 1
    return 2 if len(secant_closure(f, pts)) == total else 3


def check_search(rec: dict) -> list[str]:
    q, m, k, rho = rec["params"]
    name = f"search{rec['params']}/{rec['reduction']}"
    bad = []
    value = rec["value"]
    if value is None or not lower_bound(q, m, k, rho) <= value <= upper_bound(m, k, rho):
        bad.append(f"{name}: value {value} outside [{lower_bound(q, m, k, rho)}, "
                   f"{upper_bound(m, k, rho)}]")
    f = ref_field(rec["p"], rec["modulus"])
    for rank, found, _examined in rec["outcomes"]:
        if found is None:
            continue
        size = len(_span_codes(f, fq_span(f, q, found, k)))
        if size != q ** rank:
            bad.append(f"{name}: witness at rank {rank} spans {size} vectors")
        idx = saturating_index_brute(f, q, found, k)
        if idx != rho:
            bad.append(f"{name}: witness at rank {rank} has index {idx}, not {rho}")
    return bad


def semilinear_image(f: RefField, basis, matrix, frob: int) -> list[tuple]:
    """Each vector v of the basis sent to (v M)^(p^frob), by the reference."""
    out = []
    for v in basis:
        w = [0] * len(matrix[0])
        for vi, row in zip(v, matrix):
            for j, mij in enumerate(row):
                w[j] = f.add(w[j], f.mul(vi, mij))
        out.append(tuple(f.pow(z, f.p ** frob) for z in w))
    return out


def random_invertible(f: RefField, k: int, rng: random.Random) -> list[list[int]]:
    while True:
        mat = [[rng.randrange(f.order) for _ in range(k)] for _ in range(k)]
        if row_rank(f, mat) == k:
            return mat


def check_canonical_invariance(name: str, key, image_key) -> list[str]:
    """canonical_key must not change under a semilinear map."""
    if key != image_key:
        return [f"{name}: canonical key changed under a semilinear map"]
    return []


def check_search_agreement(naive: dict, canon: dict) -> list[str]:
    flags = lambda rec: {r: found is not None for r, found, _e in rec["outcomes"]}
    if naive["value"] != canon["value"] or flags(naive) != flags(canon):
        return [f"search{naive['params']}: naive {naive['value']} {flags(naive)} vs "
                f"canonical {canon['value']} {flags(canon)}"]
    return []
