"""Property tests of the elimination core (RREF, solve, det) against the
table-free reference arithmetic, over every default field up to 2^12."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ranksat.gf import field_create
from ranksat.linalg import det, fq_rref, solve
from ranksat.linpoly import det_vec
from ranksat.moduli import default_modulus, has_default

from .reference import RefField, ref_fq_rank

DEGREES = [(p, d) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
           for d in range(1, 13) if p ** d <= 1 << 12 and has_default(p, d)]

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def matrices(draw, square=False):
    p, d = draw(st.sampled_from(DEGREES))
    fld = field_create(p, 1, d)
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    row = st.lists(st.integers(0, fld.order - 1), min_size=ncols, max_size=ncols)
    mat = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return fld, RefField(p, default_modulus(p, d)), mat


def _ref_apply(ref, mat, x):
    out = []
    for row in mat:
        acc = 0
        for a, v in zip(row, x):
            acc = ref.add(acc, ref.mul(a, v))
        out.append(acc)
    return out


@SETTINGS
@given(matrices())
def test_rref_matches_reference(case):
    fld, ref, mat = case
    red = fq_rref(fld, mat)
    rank = ref_fq_rank(ref, mat)
    assert len(red) == rank
    assert ref_fq_rank(ref, mat + red) == rank  # same row space
    pivots = [next(j for j, v in enumerate(r) if v) for r in red]
    assert pivots == sorted(set(pivots))
    for i, col in enumerate(pivots):
        assert [r[col] for r in red] == [int(i == j) for j in range(rank)]


@SETTINGS
@given(matrices(), st.data())
def test_solve_matches_reference(case, data):
    fld, ref, mat = case
    elems = st.integers(0, fld.order - 1)
    ncols = len(mat[0])
    if data.draw(st.booleans()):  # a target in the image
        x0 = data.draw(st.lists(elems, min_size=ncols, max_size=ncols))
        target = _ref_apply(ref, mat, x0)
    else:
        target = data.draw(st.lists(elems, min_size=len(mat), max_size=len(mat)))
    x = solve(fld, [list(c) for c in zip(*mat)], target)
    aug = [row + [t] for row, t in zip(mat, target)]
    consistent = ref_fq_rank(ref, aug) == ref_fq_rank(ref, mat)
    assert (x is not None) == consistent
    if x is not None:
        assert _ref_apply(ref, mat, x) == target


@SETTINGS
@given(matrices(square=True))
def test_det_matches_reference_and_cofactors(case):
    fld, ref, mat = case
    d = det(fld, mat)
    assert (d != 0) == (ref_fq_rank(ref, mat) == len(mat))
    arrmat = [[np.asarray([v], dtype=np.int64) for v in row] for row in mat]
    assert int(det_vec(fld, arrmat)[0]) == d
