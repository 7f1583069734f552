"""System canonical forms, intersections, and subspace enumeration."""

import random

import numpy as np
import pytest

from ranksat import config
from ranksat.errors import BudgetExceeded, FieldMismatch
from ranksat.gf import field_create
from ranksat.linalg import (
    dim_intersection,
    echelon_blocks,
    fq_rank,
    fq_rank_batch,
    fq_span_dim,
    fqm_subspace,
    gaussian_binomial,
    gf2_rank_batch,
    spans_ambient,
    system_create,
)
from ranksat.linset import is_h_scattered

from .reference import ref_fq_rank, ref_rank_mod_p

F16 = field_create(2, 1, 4)
F8 = field_create(2, 1, 3)
F4 = field_create(2, 1, 2)
F9 = field_create(3, 1, 2)


def test_subgeometry_system():
    k = 3
    gens = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    u = system_create(F16, k, gens)
    assert u.rank == k and not u.is_zero
    assert spans_ambient(u)


def test_fq_dependent_generators_discarded():
    v = [3, 7, 1]
    u = system_create(F16, 3, [v, v])  # lam in F_q means lam = 1 at q = 2
    assert u.rank == 1
    w = system_create(F9, 2, [[1, 4], [2, 8]])  # 2 in F_3: scalar multiple
    assert w.rank == 1


def test_rank_oracle_frobenius_graph():
    # {(x, x^q) : x in F_8} has base-field rank 3 (row-reduction oracle)
    gens = [(b, F8.frobenius(b, 1)) for b in F8.power_basis]
    u = system_create(F8, 2, gens)
    assert u.rank == 3
    rows = [[c for z in g for c in F8.fq_coords(z)] for g in gens]
    assert ref_rank_mod_p(rows, 2) == 3


def test_canonical_idempotent():
    rng = random.Random(1)
    for _ in range(25):
        gens = [[rng.randrange(16) for _ in range(3)] for _ in range(rng.randrange(1, 5))]
        u = system_create(F16, 3, gens)
        again = system_create(F16, 3, u.basis)
        assert again.canonical == u.canonical
        assert again == u


def test_zero_subspace_flagged():
    u = system_create(F16, 3, [[0, 0, 0]])
    assert u.is_zero and u.rank == 0


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        system_create(F16, 3, [[1, 2]])
    with pytest.raises(FieldMismatch):
        system_create(F16, 2, [[1, 99]])


def test_vectors_enumeration():
    gens = [(b, F8.frobenius(b, 1)) for b in F8.power_basis]
    u = system_create(F8, 2, gens)
    vecs = u.vectors()
    assert vecs.shape == (8, 2)
    keys = {tuple(map(int, v)) for v in vecs}
    assert len(keys) == 8 and (0, 0) in keys
    # every vector is (x, x^2) for some x
    for x, y in keys:
        assert F8.frobenius(x, 1) == y


def test_dim_intersection_examples():
    k = 3
    fld = field_create(2, 2, 2)  # V(3, q^2) with q = 4
    gens = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    u = system_create(fld, k, gens)  # the subgeometry F_q^3
    full = fqm_subspace(fld, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert dim_intersection(u, full) == u.rank
    line = fqm_subspace(fld, 3, [[1, 0, 0], [0, 1, 0]])
    assert dim_intersection(u, line) == 2
    # brute-force oracle: count intersection vectors directly
    vecs = u.vectors()
    cnt = sum(1 for v in vecs if int(v[2]) == 0)
    q = fld.q
    dim = 0
    while q ** dim < cnt:
        dim += 1
    assert q ** dim == cnt and dim == 2


def test_dim_intersection_bound():
    rng = random.Random(5)
    for _ in range(20):
        gens = [[rng.randrange(16) for _ in range(3)] for _ in range(3)]
        u = system_create(F16, 3, gens)
        for _ in range(10):
            w = fqm_subspace(F16, 3, [[rng.randrange(16) for _ in range(3)]
                                      for _ in range(rng.randint(1, 2))])
            d = dim_intersection(u, w)
            assert 0 <= d <= min(u.rank, F16.m * w.dim)


def _echelon_walk(nrows, ncols, base, chunk=7):
    out = []
    for block in echelon_blocks(nrows, ncols, base, chunk):
        assert block.shape[1:] == (nrows, ncols) and 0 < len(block) <= chunk
        out.extend(tuple(map(tuple, rows)) for rows in block.tolist())
    return out


def test_enumerate_subspace_counts():
    # pivot patterns in combinations order, free entries little-endian
    assert _echelon_walk(1, 3, 2) == [((1, 0, 0),), ((1, 1, 0),), ((1, 0, 1),),
                                      ((1, 1, 1),), ((0, 1, 0),), ((0, 1, 1),),
                                      ((0, 0, 1),)]
    assert len(_echelon_walk(1, 2, 4)) == 4 + 1
    count_lines = gaussian_binomial(3, 1, 16)
    assert count_lines == 273
    for h in (1, 2):  # the lines and planes of PG(2, 16)
        walk = _echelon_walk(h, 3, 16)
        assert len(walk) == len(set(walk)) == 273  # uniqueness
        for rows in walk:  # each is the reduced echelon basis of its span
            assert fqm_subspace(F16, 3, rows).rows == rows


def test_enumerate_budget(monkeypatch):
    u = system_create(F16, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(config, "SUBSPACE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        is_h_scattered(u, 1)


def test_fq_span_dim():
    assert fq_span_dim(F16, [0, 0]) == 0
    basis = F16.power_basis
    assert fq_span_dim(F16, list(basis)) == F16.m
    g = F16.generator
    assert fq_span_dim(F16, [1, g, F16.add(1, g)]) == 2


def test_weight_sum_identity():
    # sum over points P of (q^w(P) - 1) = q^n - 1: every nonzero vector of U
    # lies on exactly one point
    rng = random.Random(9)
    for _ in range(10):
        gens = [[rng.randrange(8) for _ in range(2)] for _ in range(rng.randrange(1, 4))]
        u = system_create(F8, 2, gens)
        if u.is_zero:
            continue
        vecs = u.vectors()
        pts = {}
        for v in vecs:
            v = tuple(map(int, v))
            if v == (0, 0):
                continue
            lead = next(i for i, z in enumerate(v) if z)
            s = F8.inv(v[lead])
            pts.setdefault(tuple(F8.mul(s, z) for z in v), 0)
            pts[tuple(F8.mul(s, z) for z in v)] += 1
        assert sum(pts.values()) == 2 ** u.rank - 1


def test_fq_rank_batch_matches_reference():
    rng = random.Random(3)
    mats = []
    expect = []
    for _ in range(40):
        rows = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
        mats.append(rows)
        expect.append(ref_rank_mod_p(rows, 2))
    arr = np.array(mats, dtype=np.int64)
    got = fq_rank_batch(F16, arr)
    assert list(got) == expect
    packed = np.array([[sum(b << c for c, b in enumerate(r)) for r in rows]
                       for rows in mats], dtype=np.int64)
    assert list(gf2_rank_batch(packed, 5)) == expect


def test_fq_rank_batch_q3():
    rng = random.Random(4)
    mats = []
    expect = []
    for _ in range(40):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        mats.append(rows)
        expect.append(ref_rank_mod_p(rows, 3))
    got = fq_rank_batch(F9, np.array(mats, dtype=np.int64))
    assert list(got) == expect


def test_fq_rank_batch_q4():
    fld = field_create(2, 2, 2)
    rng = random.Random(8)
    mids = fld.subfield_elements("mid")
    mats, expect = [], []
    for _ in range(50):
        rows = [[mids[rng.randrange(4)] for _ in range(3)] for _ in range(3)]
        mats.append(rows)
        expect.append(ref_fq_rank(fld, rows))
    got = fq_rank_batch(fld, np.array(mats, dtype=np.int64))
    assert list(got) == expect


def test_fq_rank_scalar_matches_reference():
    rng = random.Random(6)
    fld = field_create(2, 2, 3)  # q = 4
    mids = fld.subfield_elements("mid")
    for _ in range(30):
        rows = [[mids[rng.randrange(4)] for _ in range(5)]
                for _ in range(rng.randrange(1, 5))]
        assert fq_rank(fld, rows) == ref_fq_rank(fld, rows)
