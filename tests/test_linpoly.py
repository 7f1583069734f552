"""Dickson matrices against brute-force bijectivity."""

import random

import numpy as np

from ranksat.gf import field_create
from ranksat.linalg import det
from ranksat.linpoly import LinPoly, det_vec

F16 = field_create(2, 1, 4)
F64 = field_create(2, 2, 3)  # q = 4, m = 3
F81 = field_create(3, 1, 4)


def test_identity_map():
    lp = LinPoly(F16, [1])
    assert lp.dickson_det() == 1
    assert lp.kernel_dim() == 0
    assert all(lp(x) == x for x in range(16))


def test_frobenius_minus_x():
    # x^q - x has kernel F_q and singular Dickson matrix
    for fld in (F16, F64, F81):
        lp = LinPoly(fld, [fld.neg(1), 1])
        assert lp.kernel_dim() == 1
        assert lp.dickson_det() == 0
        for z in fld.subfield_elements("mid"):
            assert lp(z) == 0


def test_det_vs_kernel_random():
    rng = random.Random(12)
    for fld in (F16, F64, F81):
        for _ in range(150):
            lp = LinPoly(fld, [rng.randrange(fld.order) for _ in range(fld.m)])
            ker = lp.kernel_dim()
            det = lp.dickson_det()
            # brute-force bijectivity oracle over the whole field
            img = {lp(x) for x in range(fld.order)}
            assert (det != 0) == (ker == 0) == (len(img) == fld.order)


def test_eval_vec_matches_scalar():
    rng = random.Random(3)
    lp = LinPoly(F16, [rng.randrange(16) for _ in range(4)])
    xs = np.arange(16, dtype=np.int64)
    vv = lp.eval_vec(xs)
    assert all(int(vv[i]) == lp(i) for i in range(16))


def test_det_vec_matches_scalar():
    rng = random.Random(5)
    for _ in range(30):
        mat = [[rng.randrange(16) for _ in range(4)] for _ in range(4)]
        arrmat = [[np.asarray([v], dtype=np.int64) for v in row] for row in mat]
        assert int(det_vec(F16, arrmat)[0]) == det(F16, mat)
    for _ in range(30):
        mat = [[rng.randrange(81) for _ in range(3)] for _ in range(3)]
        arrmat = [[np.asarray([v], dtype=np.int64) for v in row] for row in mat]
        assert int(det_vec(F81, arrmat)[0]) == det(F81, mat)
