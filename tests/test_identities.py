"""Registry polynomials, identity chain, distinguished sets."""

from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranksat import identities
from ranksat.constructions import normalized_alphas, normalized_betas
from ranksat.errors import (
    DivisionNotExact,
    FieldMismatch,
    IdentityViolation,
    InternalInconsistency,
    InvalidBeta,
    InvalidCaseParams,
    MissingBinding,
    OddCharacteristic,
    UnknownName,
)
from ranksat.gf import field_create
from ranksat.identities import (
    AppendixContext,
    QPoly,
    case3_witness,
    d_derived,
    d_tabulated,
    delta_sets,
    f0_derived_poly,
    f0_poly,
    f_tabulated,
    f_tabulated_vec,
    gamma_set,
    m_poly,
    registry_eval,
    r0_eval,
    scattered_pair_scan,
    uv_tabulated_polys,
    uvw_derived,
    verify_delta_unsaturated,
    verify_gamma_unsaturated,
    verify_identities,
)

from .reference import RefField

F16 = field_create(2, 1, 4)
F256 = field_create(2, 2, 4)
F4096 = field_create(2, 3, 4)


def ctx16(alpha=6, beta=8):
    return AppendixContext(F16, alpha, beta)


def test_context_validation():
    AppendixContext(F16, 1, 1)
    with pytest.raises(InvalidCaseParams):
        AppendixContext(F16, 2, 1)  # alpha not norm-one
    with pytest.raises(InvalidCaseParams):
        AppendixContext(field_create(2, 1, 3), 1, 1)  # m != 4
    with pytest.raises(InvalidCaseParams):
        AppendixContext(field_create(3, 1, 4), 1, 1)  # odd q


def test_encodings_outside_the_field_are_rejected():
    for alpha, beta in ((99, 8), (6, 16), (-1, 8), (6, -3)):
        with pytest.raises(FieldMismatch):
            AppendixContext(F16, alpha, beta)
    for c in (16, 999, -1):
        with pytest.raises(FieldMismatch):
            verify_identities(ctx16(), c, numeric=False)
    with pytest.raises(FieldMismatch):
        delta_sets(F16, 99, 0)


def test_qpoly_folding_is_function_canonical():
    fld = F16
    # y^{q^4} equals y as a function, and the fold maps both to the same key
    p1 = QPoly.ypow(fld, 16, 3)
    p2 = QPoly.ypow(fld, 1, 3)
    assert p1 == p2
    prod = QPoly.ypow(fld, 8, 1) * QPoly.ypow(fld, 8, 1)
    ys = np.arange(16, dtype=np.int64)
    vals = prod.eval_vec(np.zeros(16, dtype=np.int64), ys)
    expect = fld.vpow(ys, 16)
    assert np.array_equal(vals, expect)


def test_f0_matches_determinant():
    for a in normalized_alphas(F16):
        for b in normalized_betas(F16)[:3]:
            ctx = AppendixContext(F16, a, b)
            for c in (0, 1, 3, 7):
                assert f0_poly(ctx, c) == f0_derived_poly(ctx, c)


def test_f0_symmetry_and_diagonal():
    # F0 is symmetric under x <-> y and vanishes on the diagonal
    ctx = ctx16()
    p = f0_poly(ctx, 5)
    for x in range(16):
        for y in range(16):
            assert p.eval(x, y) == p.eval(y, x)
        assert p.eval(x, x) == 0


def test_m_poly_vanishes_at_zero():
    ctx = ctx16()
    for c in range(16):
        assert m_poly(ctx, c).eval(0, 0) == 0


def test_identity_chain_full_q2():
    # every (alpha, beta, C): all derived-form checks green
    for a in normalized_alphas(F16):
        for b in normalized_betas(F16):
            ctx = AppendixContext(F16, a, b)
            for c in range(16):
                rep = verify_identities(ctx, c, numeric=True)
                assert rep.ok_derived, (a, b, c, rep.checks)


def test_identity_chain_sample_q4():
    ctx = AppendixContext(F256, normalized_alphas(F256)[1], normalized_betas(F256)[2])
    for c in (0, 1, 7, 100, 201):
        rep = verify_identities(ctx, c, numeric=True)
        assert rep.ok_derived, (c, rep.checks)


def test_numeric_sweep_rejects_a_flipped_l_coefficient():
    # at C = 0 and C = beta/alpha (C^2 a^2 + b^2 = 0) an x-linear
    # coefficient of the G chain vanishes
    q4ctx = AppendixContext(F256, normalized_alphas(F256)[1], normalized_betas(F256)[2])
    for ctx, c, flips in ((ctx16(), 0, None), (ctx16(), 5, None), (ctx16(), 13, None),
                          (q4ctx, 100, 1)):
        n = ctx.field.order
        xs = np.repeat(np.arange(n, dtype=np.int64), n)
        ys = np.tile(np.arange(n, dtype=np.int64), n)
        rep = verify_identities(ctx, c, numeric=False)
        ls = (rep.l1_derived, rep.l2_derived)
        uvw = uvw_derived(ctx, c)
        assert identities._numeric_identity_sweep(ctx, c, *ls, xs, ys, uvw)
        for which in (0, 1):
            for e in sorted(ls[which])[:flips]:
                bad = [dict(ls[0]), dict(ls[1])]
                bad[which][e] ^= 1
                assert not identities._numeric_identity_sweep(ctx, c, *bad, xs, ys, uvw), \
                    (ctx.field.q, c, which, e)


def test_chain_faults_are_not_read_as_violations(monkeypatch):
    def raise_with(exc):
        def fake(*args):
            raise exc
        return fake

    monkeypatch.setattr(identities, "_g_multipliers",
                        raise_with(IdentityViolation("off pattern")))
    rep = verify_identities(ctx16(), 3)
    assert rep.checks["g_x_support"].startswith("violated")
    monkeypatch.setattr(identities, "_g_multipliers",
                        raise_with(InternalInconsistency("bug")))
    with pytest.raises(InternalInconsistency):
        verify_identities(ctx16(), 3)


def test_registry_l_values_follow_the_division(monkeypatch):
    ctx = ctx16()
    for c in range(16):
        rep = verify_identities(ctx, c, numeric=False)
        for name, coeffs in (("L1", rep.l1_derived), ("L2", rep.l2_derived)):
            poly = identities._coeffs_to_poly(ctx, coeffs)
            assert all(registry_eval(ctx, name, C=c, y=y) == poly.eval(0, y)
                       for y in (0, 1, 6, 15))

    def off_pattern(*args):
        raise IdentityViolation("off pattern")

    for patch in (("_g_multipliers", off_pattern),
                  ("_divide_cofactor", lambda *args: None)):
        with monkeypatch.context() as m:
            m.setattr(identities, *patch)
            for name in ("L1", "L2", "P"):
                with pytest.raises(DivisionNotExact):
                    registry_eval(ctx, name, C=3, y=5)


def test_uvw_tabulated_match_derived_generically():
    # off the degenerate scalars the displays agree with the derived syzygy
    fld = F16
    agree = {"u": 0, "v": 0, "w": 0}
    total = 0
    for a in normalized_alphas(fld):
        for b in normalized_betas(fld):
            ctx = AppendixContext(fld, a, b)
            for c in range(16):
                rep = verify_identities(ctx, c, numeric=False)
                total += 1
                for k in agree:
                    agree[k] += rep.findings[k] == "ok"
    assert agree["u"] == total
    assert agree["v"] >= total - 15 and agree["w"] >= total - 15


def test_gamma_sets_empty_at_desk_q():
    # the asymptotic mechanism is inactive at tiny q: the sound set is empty
    sizes = []
    for a in normalized_alphas(F16):
        for b in normalized_betas(F16):
            sizes.append(len(gamma_set(AppendixContext(F16, a, b))))
    assert all(s == 0 for s in sizes)


def test_gamma_verification_vacuous_and_sound():
    for a in normalized_alphas(F16):
        if a == 1:
            continue
        for b in normalized_betas(F16):
            rep = verify_gamma_unsaturated(AppendixContext(F16, a, b))
            assert rep.ok
            assert rep.vacuous


def test_f_roots_scale_like_cube():
    # the zero locus of f has about q^3 points (degree-3 hypersurface)
    fld = field_create(2, 3, 4)
    ctx = AppendixContext(fld, normalized_alphas(fld)[2], normalized_betas(fld)[1])
    cs = np.arange(fld.order, dtype=np.int64)
    roots = int((f_tabulated_vec(ctx, cs) == 0).sum())
    q = fld.q
    assert q ** 3 // 2 < roots < 2 * q ** 3


def test_d_transcription_vs_derived_reported():
    # tabulated d and the Dickson determinant differ; both are exposed
    ctx = ctx16(1, 8)
    diffs = sum(d_tabulated(ctx, c) != d_derived(ctx, c) for c in range(16))
    assert diffs > 0  # the discrepancy is real and reported, not hidden
    rep = verify_identities(ctx, 2, numeric=False)
    assert "d" in rep.findings


def test_delta0_examples():
    fld = field_create(2, 3, 4)  # q = 8 probe
    for beta in fld.subfield_elements("mid")[1:4]:
        d0 = delta_sets(fld, beta, 0)
        assert 0 not in d0  # r0 kills z = 0
        for z in d0:
            assert r0_eval(fld, beta, z) != 0
    with pytest.raises(InvalidBeta):
        delta_sets(fld, fld.generator, 0)  # beta outside F_q
    with pytest.raises(OddCharacteristic):
        delta_sets(field_create(3, 1, 4), 1, 0)


def test_delta0_artin_schreier_equivalence():
    # the trace condition is exactly solvability of x^2 + x = argument
    fld = field_create(2, 3, 4)
    beta = fld.subfield_elements("mid")[3]
    for z in fld.subfield_elements("mid"):
        if z == 0:
            continue
        num = fld.mul(
            fld.add(fld.add(fld.mul(z, fld.pow(beta, 3)),
                            fld.mul(z, fld.mul(beta, beta))),
                    fld.add(z, beta)),
            fld.add(z, beta))
        arg = fld.div(num, fld.mul(fld.mul(z, z), fld.pow(beta, 4)))
        solvable = fld.artin_schreier_solve(arg) is not None
        assert solvable == (fld.subfield_trace(arg) == 0)


def test_delta0_scattered_probe_q8():
    fld = field_create(2, 3, 4)
    checked = 0
    for beta in fld.subfield_elements("mid")[1:]:
        d0 = delta_sets(fld, beta, 0)
        for z in d0[:1]:
            rep = verify_delta_unsaturated(fld, beta, 0, z, strict=False)
            assert rep.distinct <= rep.expected
            checked += 1
        if checked >= 4:
            break
    assert checked >= 2


def test_delta1_validation():
    fld = field_create(2, 3, 4)
    with pytest.raises(InvalidBeta):
        delta_sets(fld, 1, 1)  # beta inside F_q
    bad = fld.generator  # norm condition will typically fail
    if fld.pow(bad, (fld.q ** 2 + 1) * (fld.q - 1)) != 1:
        with pytest.raises(InvalidBeta):
            delta_sets(fld, bad, 1)


def test_scattered_pair_scan_classical():
    # {(x : x^q)} is scattered; {(x : x^{q^2})} is not (weight-2 fibers)
    rep = scattered_pair_scan(F16, [0, 0, 0, 1], [1, 0, 0, 0])
    assert rep.scattered
    rep2 = scattered_pair_scan(F16, [1, 0, 0, 0], [0, 0, 1, 0])
    assert not rep2.scattered
    with pytest.raises(OddCharacteristic):
        scattered_pair_scan(field_create(3, 1, 4), [0, 0, 0, 1], [1, 0, 0, 0])


class _BruteScan:
    """Oracle for scattered_pair_scan: walks every nonzero x of the field in
    reference arithmetic, with no tables and no cosets, and counts kernel
    elements and distinct normalized directions (A(x) : B(x)).  Frobenius
    powers and inverses are memoized across draws."""

    def __init__(self, fld):
        self.ref = RefField(fld.p, fld.modulus)
        self.inv = cache(self.ref.inv)
        self.powers = []
        for x in range(1, fld.order):
            pw = [x]
            for _ in range(fld.m - 1):
                pw.append(self.ref.pow(pw[-1], fld.q))
            self.powers.append(pw)

    def _apply(self, coeffs, pw):
        out = 0
        for c, v in zip(coeffs, pw):
            if c:
                out = self.ref.add(out, self.ref.mul(c, v))
        return out

    def __call__(self, a, b):
        kernel, directions = 0, set()
        for pw in self.powers:
            av, bv = self._apply(a, pw), self._apply(b, pw)
            if av == bv == 0:
                kernel += 1
            elif av == 0:
                directions.add((0, 1))
            else:
                directions.add((1, self.ref.mul(bv, self.inv(av))))
        return kernel, len(directions)


@cache
def _brute_scan(fld):
    return _BruteScan(fld)


def _pairs(fld):
    coeffs = st.lists(st.integers(0, fld.order - 1), min_size=4, max_size=4)
    return st.tuples(coeffs, coeffs)


def _both_axes(fld):
    # A = x + x^{q^2} vanishes on F_{q^2}; B = g^{q-1} x + x^q on F_q g, off
    # F_{q^2}: both (0 : 1) and (1 : 0) occur, and the joint kernel is 0
    return [1, 0, 1, 0], [fld.pow(fld.generator, fld.q - 1), 1, 0, 0]


def _check_scan(fld, a, b):
    rep = scattered_pair_scan(fld, a, b)
    kernel, distinct = _brute_scan(fld)(a, b)
    expected = (fld.order - 1) // (fld.q - 1)
    assert (rep.distinct, rep.expected, rep.kernel_size, rep.scattered) == \
        (distinct, expected, kernel, kernel == 0 and distinct == expected)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_pairs(F256))
@example(([0, 0, 0, 0], [7, 0, 1, 200]))   # A = 0
@example(([9, 1, 0, 33], [0, 0, 0, 0]))    # B = 0
@example(([0, 0, 0, 0], [0, 0, 0, 0]))     # A = B = 0
@example(([5, 18, 0, 1], [5, 18, 0, 1]))   # A = B
@example(([1, 1, 0, 0], [1, 0, 1, 0]))     # shared kernel F_q
@example(_both_axes(F256))
def test_scattered_pair_scan_matches_brute_force_q4(pair):
    _check_scan(F256, *pair)


@settings(max_examples=1, deadline=None, derandomize=True, database=None)
@given(_pairs(F4096))
@example(([1, 1, 0, 0], [1, 0, 1, 0]))
@example(_both_axes(F4096))
def test_scattered_pair_scan_matches_brute_force_q8(pair):
    _check_scan(F4096, *pair)


def test_case3_witnesses_all_alphas():
    for fld in (F16, F256):
        for alpha in normalized_alphas(fld):
            rep = case3_witness(fld, alpha)
            assert rep.ok, (fld.q, alpha, rep.checks)
            if alpha != 1:
                assert rep.omega is not None
                assert not fld.in_mid_subfield(rep.omega)


def test_registry_eval_names():
    ctx = ctx16()
    assert registry_eval(ctx, "f", C=0) == f_tabulated(ctx, 0)
    assert registry_eval(ctx, "M", C=3, y=0) == 0
    v1 = registry_eval(ctx, "F0", C=3, x=2, y=5)
    v2 = registry_eval(ctx, "F0", C=3, x=5, y=2)
    assert v1 == v2  # symmetric under swap
    for name in ("a00", "a01", "a20"):
        registry_eval(ctx, name, C=7)
    with pytest.raises(UnknownName):
        registry_eval(ctx, "nope", C=1)
    with pytest.raises(MissingBinding):
        registry_eval(ctx, "d")


def test_registry_a01_vanishes_with_f():
    ctx = ctx16()
    for c in range(16):
        if f_tabulated(ctx, c) == 0:
            assert registry_eval(ctx, "a01", C=c) == 0
            assert registry_eval(ctx, "a10", C=c) == 0
            assert registry_eval(ctx, "a11", C=c) == 0


def test_uv_poly_nontrivial():
    ctx = ctx16()
    upoly, vpoly = uv_tabulated_polys(ctx, 3)
    vals = [(upoly.eval(0, y), vpoly.eval(0, y)) for y in range(16)]
    assert any(u or v for u, v in vals)
