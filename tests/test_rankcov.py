"""Saturation, covering radius, duality, bounds."""

import random

import numpy as np
import pytest

from ranksat.constructions import MooreParams, moore_system
from ranksat.errors import InvalidRho
from ranksat.gf import field_create
from ranksat.linalg import system_create
from ranksat.linset import Point, linear_set, pg_num_points, point_unrank
from ranksat.rankcov import (
    Code,
    code_from_system,
    covering_radius,
    is_rank_saturating,
    known_value,
    lower_bound,
    one_saturated,
    rank_weight,
    rank_weight_batch,
    saturates_within,
    saturating_index,
    saturation_report,
    upper_bound,
)

from .reference import RefField, ref_point_saturated

F4 = field_create(2, 1, 2)
F8 = field_create(2, 1, 3)
F16 = field_create(2, 1, 4)
F9 = field_create(3, 1, 2)


def subgeometry(field, k):
    return system_create(field, k, [[1 if i == j else 0 for j in range(k)]
                                    for i in range(k)])


def full_ambient(field, k):
    gens = []
    for i in range(k):
        for b in field.power_basis:
            for s in field.subfield_elements("mid")[1:2]:
                pass
            gens.append([field.mul(b, 1) if j == i else 0 for j in range(k)])
    # F_q-basis of the whole space: power basis in every coordinate
    gens = []
    for i in range(k):
        for b in field.power_basis:
            gens.append([b if j == i else 0 for j in range(k)])
    return system_create(field, k, gens)


def ref_field(field):
    return RefField(field.p, field.modulus)


def all_points(field, k):
    return point_unrank(field, k, np.arange(pg_num_points(field.order, k)))


def brute_saturating_index(u):
    """Independent oracle: check every point against all rho-subsets."""
    ref = ref_field(u.field)
    pts = linear_set(u).points.tolist()
    allpts = all_points(u.field, u.k).tolist()
    for rho in range(1, u.k + 1):
        if all(ref_point_saturated(ref, pts, q, rho) for q in allpts):
            return rho
    return None  # a non-spanning U leaves some point outside every span


def test_subgeometry_saturates_at_k():
    # index k needs the ambient plane to outgrow the secant cover; at tiny
    # q^m the subgeometry saturates earlier (brute-checked below)
    for field, k in ((F4, 2), (F8, 2), (F8, 3), (F9, 2), (F16, 3)):
        u = subgeometry(field, k)
        assert saturating_index(u) == k


def test_subgeometry_small_plane_saturates_early():
    u = subgeometry(F4, 3)
    assert saturating_index(u) == 2 == brute_saturating_index(u)


def test_full_ambient_index_one():
    u = full_ambient(F4, 2)
    assert u.rank == F4.m * 2
    assert saturating_index(u) == 1


def test_non_spanning_absent():
    u = system_create(F8, 2, [[1, 0], [F8.generator, 0]])
    assert saturating_index(u) is None
    assert not saturates_within(u, 2)


def test_saturating_index_matches_brute():
    rng = random.Random(21)
    for _ in range(12):
        gens = [[rng.randrange(8) for _ in range(2)]
                for _ in range(rng.randrange(1, 5))]
        u = system_create(F8, 2, gens)
        if u.is_zero:
            continue
        assert saturating_index(u) == brute_saturating_index(u)
    for _ in range(6):
        gens = [[rng.randrange(4) for _ in range(3)]
                for _ in range(rng.randrange(2, 6))]
        u = system_create(F4, 3, gens)
        if u.is_zero:
            continue
        assert saturating_index(u) == brute_saturating_index(u)


def test_saturation_report_witnesses():
    u = subgeometry(F8, 3)
    rep = saturation_report(u)
    assert rep.rho == 3
    ref = ref_field(F8)
    pts = linear_set(u).points.tolist()
    for level, witness in rep.witnesses.items():
        assert not ref_point_saturated(ref, pts, witness.coords, level)
    allpts = all_points(F8, 3).tolist()
    for level, count in rep.coverage.items():
        assert count == sum(ref_point_saturated(ref, pts, q, level)
                            for q in allpts)


def test_exact_and_at_most_predicates():
    u = subgeometry(F8, 3)
    assert is_rank_saturating(u, 3)
    assert not is_rank_saturating(u, 2)
    assert not is_rank_saturating(u, 1)
    assert saturates_within(u, 3) and not saturates_within(u, 2)


def test_is_point_saturated_examples():
    u = subgeometry(F16, 3)
    ref = ref_field(F16)
    pts = linear_set(u).points.tolist()
    assert ref_point_saturated(ref, pts, pts[0], 1)
    # spanning frame: any point is k-saturated
    q = (1, F16.generator, 3)
    assert ref_point_saturated(ref, pts, q, 3)
    # (1 : x : x^2) lies on no line defined over F_2
    assert not ref_point_saturated(ref, pts, (1, 2, 4), 2)
    assert ref_point_saturated(ref, pts, (1, 2, 4), 3)


def test_one_saturated_scan_matches_dfs():
    rng = random.Random(33)
    for field, k, max_gens, draws in ((F8, 2, 4, 15), (F9, 2, 4, 6),
                                      (F4, 3, 5, 6)):
        ref = ref_field(field)
        for _ in range(draws):
            gens = [[rng.randrange(field.order) for _ in range(k)]
                    for _ in range(rng.randrange(1, max_gens))]
            u = system_create(field, k, gens)
            if u.is_zero:
                continue
            ls = linear_set(u)
            pts = ls.points.tolist()
            for q in all_points(field, k).tolist():
                fast = one_saturated(field, ls.points, Point(field, q))
                assert fast == ref_point_saturated(ref, pts, q, 2)


@pytest.mark.parametrize("make, coverage", [
    (lambda: subgeometry(F8, 3), {1: 7, 2: 49, 3: 73}),
    (lambda: subgeometry(F16, 4), {1: 15, 2: 505, 3: 3025, 4: 4369}),
    (lambda: subgeometry(field_create(3, 1, 3), 3), {1: 13, 2: 325, 3: 757}),
    (lambda: moore_system(MooreParams(F8, 3, 2)), {1: 63, 2: 3969, 3: 37449}),
], ids=["subgeometry-F8-k3", "subgeometry-F16-k4", "subgeometry-F27-k3",
        "moore-q2-m3-rho3-t2"])
def test_level_coverage(make, coverage):
    rep = saturation_report(make())
    assert rep.coverage == coverage
    assert rep.rho == max(coverage)


def test_rank_weight():
    g = F16.generator
    assert rank_weight(F16, [0, 0, 0]) == 0
    assert rank_weight(F16, list(F16.power_basis)) == F16.m
    assert rank_weight(F16, [1, 1, 1]) == 1
    assert rank_weight(F16, [3, 0, 3]) == 1
    batch = np.array([[0, 0, 0], [1, g, 0], [1, 1, 1]], dtype=np.int64)
    assert list(rank_weight_batch(F16, batch)) == [0, 2, 1]


def test_code_from_system_shapes():
    u = subgeometry(F8, 3)
    c = code_from_system(u)
    assert c.n == 3 and c.dim == 3
    d = c.dual()
    assert d.dim == 0
    u2 = system_create(F8, 2, [(b, F8.frobenius(b, 1)) for b in F8.power_basis])
    c2 = code_from_system(u2)
    assert c2.n == 3 and c2.dim == 2
    assert c2.dual().dim == 1


def test_dual_involution():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 5)
        kc = rng.randrange(1, n)
        rows = [[rng.randrange(8) for _ in range(n)] for _ in range(kc)]
        c = Code(F8, n, rows)
        dd = c.dual().dual()
        assert dd.gen == c.gen
        # orthogonality
        for r1 in c.gen:
            for r2 in c.dual().gen:
                acc = 0
                for a, b in zip(r1, r2):
                    acc = F8.add(acc, F8.mul(a, b))
                assert acc == 0


def test_covering_radius_trivial_cases():
    full = Code(F8, 2, [[1, 0], [0, 1]])
    assert covering_radius(full) == 0
    zero = Code(F8, 2, [])
    assert covering_radius(zero) == 2  # n <= m: a rank-n vector exists
    zero3 = Code(F8, 3, [])
    assert covering_radius(zero3) == 3


def test_covering_radius_paths_agree():
    rng = random.Random(7)
    for field in (F4, F8, F9):
        for _ in range(12):
            n = rng.randrange(2, 4)
            kc = rng.randrange(1, n)
            rows = [[rng.randrange(field.order) for _ in range(n)]
                    for _ in range(kc)]
            c = Code(field, n, rows)
            if c.dim == 0:
                continue
            assert covering_radius(c, "syndrome") == covering_radius(c, "full")


def test_duality_theorem_small():
    # saturating_index(U) == covering_radius(dual(code(U))) when defined
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        gens = [[rng.randrange(8) for _ in range(2)]
                for _ in range(rng.randrange(1, 5))]
        u = system_create(F8, 2, gens)
        if u.is_zero:
            continue
        idx = saturating_index(u)
        if idx is None:
            continue
        cr = covering_radius(code_from_system(u).dual())
        assert cr == idx
        checked += 1
    assert checked >= 20


def test_bounds_formulas():
    assert lower_bound(3, 4, 3, 2) == 4
    assert lower_bound(2, 4, 3, 2) == 4  # ceil(11/2) - 4 + 2
    assert lower_bound(2, 4, 3, 1) == 9
    assert upper_bound(4, 3, 2) == 6
    with pytest.raises(InvalidRho):
        lower_bound(2, 2, 3, 3)
    with pytest.raises(InvalidRho):
        upper_bound(4, 3, 0)


def test_known_value_rows():
    kv = known_value(3, 3, 4, 2)  # k = rho * t with t = 2
    assert kv is not None and kv.lo == kv.hi == 3 * 1 + 2
    kv = known_value(2, 4, 3, 2)
    assert (kv.lo, kv.hi) == (5, 5)
    kv = known_value(5, 2, 7, 2)
    assert (kv.lo, kv.hi) == (7, 7)
    kv = known_value(4, 4, 3, 2)  # open: only the 4..5 window
    assert (kv.lo, kv.hi) == (4, 5)
    kv = known_value(2, 3, 3, 2)
    assert (kv.lo, kv.hi) == (4, 4)
    assert known_value(2, 10, 3, 2).lo == 7  # q = 2 = 2^1, gcd(1,15)=1
    kv = known_value(2, 4, 4, 3)  # m=k=4=2r, rho=2r-1
    assert (kv.lo, kv.hi) == (5, 5)
    kv = known_value(2, 5, 3, 2)
    assert (kv.lo, kv.hi) == (5, 6)


def test_known_value_within_bounds():
    for q in (2, 3, 4, 5):
        for m in range(2, 11):
            for k in range(2, 7):
                for rho in range(1, min(k, m) + 1):
                    kv = known_value(q, m, k, rho)
                    if kv is None:
                        continue
                    assert lower_bound(q, m, k, rho) <= kv.lo <= kv.hi
                    assert kv.hi <= upper_bound(m, k, rho)


def test_no_system_below_lower_bound_2_2_2_1():
    # exhaustive at (q,m,k,rho)=(2,2,2,1): no rank < m(k-1)+1 = 3 saturates at 1
    from itertools import combinations
    field = F4
    lb = lower_bound(2, 2, 2, 1)
    vecs = [(x, y) for x in range(4) for y in range(4) if (x, y) != (0, 0)]
    seen = set()
    for r in range(1, lb):
        for gens in combinations(vecs, r):
            u = system_create(field, 2, list(gens))
            if u.rank != r or u.canonical in seen:
                continue
            seen.add(u.canonical)
            assert saturating_index(u) != 1
