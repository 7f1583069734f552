"""Linear sets: points, weights, scatteredness, projections."""

import itertools
import random

import numpy as np
import pytest

from ranksat.errors import CenterInsideLinearSet, CenterOnHyperplane
from ranksat.gf import field_create
from ranksat.linalg import dim_intersection, fqm_subspace, system_create
from ranksat.linset import (
    Point,
    coordinate_hyperplane_avoiding,
    is_h_scattered,
    is_scattered,
    linear_set,
    max_h_scattered_bound,
    pg_num_points,
    point_index,
    point_unrank,
    project,
    weight,
)

F16 = field_create(2, 1, 4)
F8 = field_create(2, 1, 3)
F4Q = field_create(2, 2, 2)  # F_16 with q = 4
F4 = field_create(2, 1, 2)
F9 = field_create(3, 1, 2)


def frobenius_graph(field, power=1):
    gens = [(b, field.frobenius(b, power)) for b in field.power_basis]
    return system_create(field, 2, gens)


def subgeometry(field, k):
    return system_create(field, k, [[1 if i == j else 0 for j in range(k)]
                                    for i in range(k)])


def test_point_normalization():
    p = Point(F16, (3, 5, 7))
    assert p.coords[0] == 1
    s = F16.inv(3)
    assert p.coords == (1, F16.mul(s, 5), F16.mul(s, 7))
    assert Point(F16, (0, 0, 2)).coords == (0, 0, 1)
    with pytest.raises(ValueError):
        Point(F16, (0, 0, 0))


def test_point_index_bijection():
    n = pg_num_points(16, 3)
    idx = np.arange(n)
    pts = point_unrank(F16, 3, idx)
    # all normalized, all distinct, ranking inverts
    assert (point_index(F16, pts) == idx).all()
    lead = np.argmax(pts != 0, axis=1)
    assert (pts[np.arange(n), lead] == 1).all()


def test_linear_set_subgeometry():
    u = subgeometry(F4Q, 3)
    ls = linear_set(u)
    assert len(ls) == pg_num_points(4, 3)  # (q^k-1)/(q-1) points of weight 1
    assert ls.weight_index() and all(w == 1 for w in ls.weight_index().values())


def test_linear_set_rank_one():
    u = system_create(F16, 3, [[1, 5, 9]])
    ls = linear_set(u)
    assert len(ls) == 1
    assert ls.weight_of(Point(F16, (1, 5, 9))) == 1


def test_linear_set_scattered_graph():
    # {(x, x^q) : x in F_8} gives 7 points of weight 1 (brute-force oracle)
    u = frobenius_graph(F8)
    ls = linear_set(u)
    brute = set()
    for x in range(1, 8):
        v = (x, F8.frobenius(x, 1))
        lead = F8.inv(v[0])
        brute.add((1, F8.mul(lead, v[1])))
    assert len(ls) == len(brute) == 7
    assert is_scattered(u)


def test_weight_sum_identity():
    rng = random.Random(13)
    q = F16.q
    for _ in range(15):
        gens = [[rng.randrange(16) for _ in range(2)]
                for _ in range(rng.randrange(1, 5))]
        u = system_create(F16, 2, gens)
        if u.is_zero:
            continue
        ls = linear_set(u)
        assert sum(q ** w - 1 for w in ls.weight_index().values()) == q ** u.rank - 1


def test_weight_examples():
    u = frobenius_graph(F8)
    full = fqm_subspace(F8, 2, [[1, 0], [0, 1]])
    assert weight(u, full) == u.rank
    p_off = Point(F8, (0, 1))  # (0:1) not in the graph set
    assert weight(u, p_off) == 0


def test_scattered_examples():
    for field in (F8, F16, F4Q):
        assert is_scattered(frobenius_graph(field))
    # weight-2 point breaks scatteredness: span {v, lam*v, w} with lam off F_q
    lam = F16.generator
    v = (1, 3)
    w = (5, 2)
    u = system_create(F16, 2, [v, tuple(F16.mul(lam, z) for z in v), w])
    assert u.rank == 3
    assert not is_scattered(u)
    assert weight(u, Point(F16, v)) == 2
    assert is_scattered(system_create(F16, 2, [[1, 2]]))  # rank 1


def test_max_h_scattered_bound():
    assert max_h_scattered_bound(2, 3, 1) == 3
    assert max_h_scattered_bound(3, 4, 2) == 4
    m, r = 4, 3
    k = r * (m - 2) // 2
    assert max_h_scattered_bound(k, m, m - 3) == r * m // 2


def test_is_h_scattered_subgeometry():
    # the subgeometry is (k-1)-scattered
    u = subgeometry(F4Q, 3)
    ok, witness = is_h_scattered(u, 2)
    assert ok and witness is None


def test_is_h_scattered_graph():
    u = frobenius_graph(F8)  # k=2, h=1, rank 3 = floor(km/(h+1))
    ok, _ = is_h_scattered(u, 1)
    assert ok
    assert u.rank == max_h_scattered_bound(2, 3, 1)


def test_is_h_scattered_non_spanning():
    u = system_create(F16, 3, [[1, 0, 0], [F16.generator, 0, 0]])
    ok, _ = is_h_scattered(u, 1)
    assert not ok


def test_h_scattered_witness_is_real():
    # rank 5 in V(2, 16) must fail 1-scattered with an explicit witness
    gens = [(b, F16.frobenius(b, 1)) for b in F16.power_basis]
    gens.append((1, 0))
    u = system_create(F16, 2, gens)
    assert u.rank == 5
    ok, witness = is_h_scattered(u, 1)
    assert not ok and witness is not None
    assert weight(u, witness) > 1


def _subspaces_from_vectors(field, k, h):
    """Every h-dimensional F_{q^m}-subspace of F_{q^m}^k, spanned by h
    points taken from the ambient vectors (no echelon walk)."""
    points = {fqm_subspace(field, k, [v]).rows[0]
              for v in itertools.product(range(field.order), repeat=k) if any(v)}
    out = {fqm_subspace(field, k, vs)
           for vs in itertools.combinations(sorted(points), h)}
    return [w for w in out if w.dim == h]


def test_is_h_scattered_matches_oracle():
    rng = random.Random(11)
    verdicts = set()
    for fld in (F4, F8, F9):
        k = 3
        ws = {h: _subspaces_from_vectors(fld, k, h) for h in (1, 2)}
        systems = [subgeometry(fld, k)]
        for _ in range(8):
            gens = [[rng.randrange(fld.order) for _ in range(k)]
                    for _ in range(rng.randint(2, 6))]
            systems.append(system_create(fld, k, gens))
        for u in systems:
            # U spans the ambient iff no hyperplane (k = 3: no plane) holds it
            spans = all(dim_intersection(u, w) < u.rank for w in ws[2])
            for h in (1, 2):
                expect = spans and max(dim_intersection(u, w) for w in ws[h]) <= h
                ok, witness = is_h_scattered(u, h)
                assert ok == expect
                verdicts.add(ok)
                if witness is not None:
                    assert not ok and witness.dim == h
                    assert dim_intersection(u, witness) > h
                elif not ok:
                    assert not spans
    assert verdicts == {True, False}


def test_project_case1_shape():
    # project {(x, x^q, x^{q^2})} from (0:0:1) onto X_2 = 0
    gens = [(b, F16.frobenius(b, 1), F16.frobenius(b, 2)) for b in F16.power_basis]
    u = system_create(F16, 3, gens)
    center = Point(F16, (0, 0, 1))
    hyp = fqm_subspace(F16, 3, [[1, 0, 0], [0, 1, 0]])
    pr = project(u, center, hyp)
    assert pr.rank == u.rank == 4
    assert is_scattered(pr)
    expected = system_create(F16, 2, [(b, F16.frobenius(b, 1))
                                      for b in F16.power_basis])
    assert pr == expected


def test_project_subgeometry():
    fld = F4Q
    u = subgeometry(fld, 3)
    center = Point(fld, (1, fld.generator, 0))  # weight 0 in the subgeometry
    assert weight(u, center) == 0
    hyp = coordinate_hyperplane_avoiding(fld, 3, center)
    pr = project(u, center, hyp)
    assert pr.rank == 3 and pr.k == 2


def test_project_center_errors():
    u = subgeometry(F4Q, 3)
    center = Point(F4Q, (1, 1, 1))  # in the subgeometry
    hyp = fqm_subspace(F4Q, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(CenterInsideLinearSet):
        project(u, center, hyp)
    off = Point(F4Q, (1, F4Q.generator, 0))
    hyp_through = fqm_subspace(F4Q, 3, [[1, F4Q.generator, 0], [0, 0, 1]])
    with pytest.raises(CenterOnHyperplane):
        project(u, off, hyp_through)
