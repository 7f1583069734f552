"""Field tower arithmetic against an independent polynomial oracle."""

import random

import numpy as np
import pytest

from ranksat.errors import (
    DegreeOutOfRange,
    DivisionByZero,
    NonPrimeCharacteristic,
    OddCharacteristic,
    ReducibleModulus,
)
from ranksat.gf import field_create

from .reference import RefField

F16 = field_create(2, 1, 4, [1, 1, 0, 0, 1])
F16_TOWER = field_create(2, 2, 2, [1, 1, 0, 0, 1])
F81 = field_create(3, 1, 4)
F64_TOWER = field_create(2, 2, 3)


def test_field_create_examples():
    assert F16.order == 16 and F16.q == 2
    assert F16_TOWER.order == 16 and F16_TOWER.q == 4 and F16_TOWER.m == 2
    with pytest.raises(ReducibleModulus):
        field_create(2, 1, 4, [1, 0, 0, 0, 1])  # x^4+1 = (x+1)^4
    with pytest.raises(NonPrimeCharacteristic):
        field_create(4, 1, 2)
    with pytest.raises(DegreeOutOfRange):
        field_create(2, 1, 33)


def test_reducible_modulus_oracle():
    # oracle: x^4+1 factors over F_2, found by gcd with x^(2^i)-x
    ref = RefField(2, [1, 0, 0, 0, 1])
    # (x+1)^4 = x^4 + 1 over F_2: encoding of x+1 is 3
    v = ref.mul(ref.mul(3, 3), ref.mul(3, 3))
    assert v == 0  # x^4+1 == 0 in the quotient, i.e. (x+1)^4 vanishes


@pytest.mark.parametrize("field", [F16, F16_TOWER, F81, F64_TOWER])
def test_arith_against_reference(field):
    ref = RefField(field.p, field.modulus)
    rng = random.Random(7)
    for _ in range(300):
        x = rng.randrange(field.order)
        y = rng.randrange(field.order)
        assert field.add(x, y) == ref.add(x, y)
        assert field.mul(x, y) == ref.mul(x, y)
        assert field.sub(x, y) == ref.add(x, ref.neg(y))
        if y:
            assert field.mul(field.div(x, y), y) == x
    assert field.mul(field.generator, 0) == 0
    assert field.pow(field.generator, field.order - 1) == 1


def test_mul_examples():
    assert F16.mul(2, 2) == 4  # x*x = x^2, no reduction
    assert F16.mul(6, 7) == 1  # g^5 * g^10 = g^15 = 1 under x^4+x+1
    assert F16.pow(F16.generator, F16.order - 1) == 1


def test_pow_negative_and_zero():
    g = F16.generator
    assert F16.mul(F16.pow(g, -1), g) == 1
    assert F16.pow(0, 0) == 1 and F16.pow(0, 5) == 0
    with pytest.raises(DivisionByZero):
        F16.pow(0, -1)
    with pytest.raises(DivisionByZero):
        F16.div(1, 0)


@pytest.mark.parametrize("field", [F16, F16_TOWER, F81, F64_TOWER])
def test_frobenius_properties(field):
    rng = random.Random(3)
    for _ in range(60):
        z = rng.randrange(field.order)
        w = rng.randrange(field.order)
        assert field.frobenius(z, field.m) == z
        assert field.frobenius(field.frobenius(z, 1), field.m - 1) == z
        assert field.frobenius(field.add(z, w), 1) == \
            field.add(field.frobenius(z, 1), field.frobenius(w, 1))
        assert field.frobenius(field.mul(z, w), 1) == \
            field.mul(field.frobenius(z, 1), field.frobenius(w, 1))
        # negative index = q-th root iteration
        assert field.frobenius(field.frobenius(z, -1), 1) == z


def test_frobenius_example():
    assert F16.frobenius(2, 0) == 2
    assert F16.frobenius(2, 1) == 4  # x^2, below the reduction threshold


@pytest.mark.parametrize("field", [F16, F16_TOWER, F81, F64_TOWER])
def test_trace_norm(field):
    rng = random.Random(11)
    for _ in range(60):
        z = rng.randrange(field.order)
        w = rng.randrange(field.order)
        t, n = field.rel_trace_norm(z)
        assert field.in_mid_subfield(t) and field.in_mid_subfield(n)
        # multiplicativity of the norm
        assert field.norm(field.mul(z, w)) == field.mul(field.norm(z), field.norm(w))
        # F_q-linearity of the trace
        lam = rng.choice(field.subfield_elements("mid"))
        assert field.trace(field.add(field.mul(lam, z), w)) == \
            field.add(field.mul(lam, field.trace(z)), field.trace(w))


def test_trace_norm_examples():
    assert F16.rel_trace_norm(1) == (0, 1)  # four ones sum to 0 over F_2
    assert F16.norm(F16.generator) == 1     # g^15 = 1


def test_trace_linearity_exhaustive_f16():
    for lam in F16.subfield_elements("mid"):
        for z1 in range(16):
            for z2 in range(16):
                lhs = F16.trace(F16.add(F16.mul(lam, z1), z2))
                rhs = F16.add(F16.mul(lam, F16.trace(z1)), F16.trace(z2))
                assert lhs == rhs


def test_subfield_elements():
    assert F16.subfield_elements("base") == (0, 1)
    assert F16_TOWER.subfield_elements("mid") == (0, 1, 6, 7)
    # oracle: fixed points of z -> z^4 in F_16, brute force
    fixed = tuple(z for z in range(16) if F16_TOWER.frobenius(z, 1) == z)
    assert fixed == (0, 1, 6, 7)
    for field in (F16, F16_TOWER, F81, F64_TOWER):
        assert len(field.subfield_elements("mid")) == field.q


def test_artin_schreier():
    assert F16.artin_schreier_solve(0) == (0, 1)
    with pytest.raises(OddCharacteristic):
        F81.artin_schreier_solve(0)
    # q=4 inside F_16: brute-force oracle over the 4 subfield elements
    fld = F16_TOWER
    for c in fld.subfield_elements("mid"):
        roots = fld.artin_schreier_solve(c)
        brute = [x for x in fld.subfield_elements("mid")
                 if fld.add(fld.mul(x, x), x) == c]
        if roots is None:
            assert brute == []
            assert fld.subfield_trace(c) == 1
        else:
            assert sorted(roots) == sorted(brute)
    # trace-one constants have no root
    one_tr = [c for c in F64_TOWER.subfield_elements("mid")
              if F64_TOWER.subfield_trace(c) != 0]
    assert all(F64_TOWER.artin_schreier_solve(c) is None for c in one_tr)


@pytest.mark.parametrize("field", [F16, F81, F64_TOWER])
def test_vector_ops_match_scalar(field):
    rng = random.Random(5)
    xs = np.array([rng.randrange(field.order) for _ in range(200)], dtype=np.int64)
    ys = np.array([rng.randrange(field.order) for _ in range(200)], dtype=np.int64)
    assert all(field.vadd(xs, ys)[i] == field.add(int(xs[i]), int(ys[i]))
               for i in range(200))
    assert all(field.vmul(xs, ys)[i] == field.mul(int(xs[i]), int(ys[i]))
               for i in range(200))
    nz = xs[xs != 0]
    assert all(field.vinv(nz)[i] == field.inv(int(nz[i])) for i in range(len(nz)))
    for i in (1, 2, field.m - 1):
        vf = field.vfrob(xs, i)
        assert all(vf[j] == field.frobenius(int(xs[j]), i) for j in range(200))
    for e in (2, 3, field.q, field.q + 1):
        vp = field.vpow(xs, e)
        assert all(vp[j] == field.pow(int(xs[j]), e) for j in range(200))


@pytest.mark.parametrize("field", [F16, F16_TOWER, F81, F64_TOWER])
def test_fq_coords_roundtrip(field):
    rng = random.Random(9)
    mids = field.subfield_elements("mid")
    for _ in range(80):
        z = rng.randrange(field.order)
        coords = field.fq_coords(z)
        assert len(coords) == field.m
        assert all(c in mids for c in coords)
        assert field.from_fq_coords(coords) == z
    arr = np.array([rng.randrange(field.order) for _ in range(64)], dtype=np.int64)
    mat = field.fq_coords_vec(arr)
    for i in range(64):
        assert tuple(int(v) for v in mat[i]) == field.fq_coords(int(arr[i]))


def test_big_field_fast_tables():
    # vectorized antilog construction must agree with raw multiplication
    fld = field_create(2, 1, 18, table_threshold=1 << 18)
    ref = RefField(2, fld.modulus)
    rng = random.Random(2)
    for _ in range(60):
        x = rng.randrange(fld.order)
        y = rng.randrange(fld.order)
        assert fld.mul(x, y) == ref.mul(x, y)
    assert fld.pow(fld.generator, fld.order - 1) == 1
    # the smallest field on the fast path: exp and log are mutually inverse
    # and exp walks the powers of the generator
    fld = field_create(2, 1, 17, table_threshold=1 << 17)
    n = fld.order - 1
    assert np.array_equal(fld._log[fld._exp], np.arange(n))
    for i in rng.sample(range(n - 1), 200):
        assert int(fld._exp[i + 1]) == fld._mul_raw(int(fld._exp[i]), fld.generator)


def test_untabled_field_scalar_path():
    fld = field_create(2, 1, 22, table_threshold=1)  # force the raw path
    ref = RefField(2, fld.modulus)
    rng = random.Random(4)
    for _ in range(25):
        x = rng.randrange(fld.order)
        y = rng.randrange(fld.order)
        assert fld.mul(x, y) == ref.mul(x, y)
        if y:
            assert fld.mul(fld.div(x, y), y) == x


def test_describe_roundtrip():
    from ranksat.gf import parse_field_line
    line = F16_TOWER.describe()
    assert line == "field p=2 a=2 m=2 modulus=[1,1,0,0,1]"
    assert parse_field_line(line).same_as(F16_TOWER)
