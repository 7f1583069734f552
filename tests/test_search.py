"""Canonical forms, orbit covers, and rank searches."""

import random

import pytest

from ranksat.constructions import MooreParams, moore_system
from ranksat.errors import InvalidParams, InvalidRho
from ranksat.gf import field_create
from ranksat.linalg import fqm_rank, gaussian_binomial, system_create
from ranksat.rankcov import is_rank_saturating
from ranksat.search import (
    SearchTask,
    canonical_key,
    canonical_reduce,
    enumerate_rank_subspaces,
    graph_cover_is_complete,
    graph_form_enumerate,
    min_rank_search,
    orbit_representatives,
    search_table,
)

F4 = field_create(2, 1, 2)
F8 = field_create(2, 1, 3)
F16 = field_create(2, 1, 4)
F9 = field_create(3, 1, 2)


def random_invertible(field, k, rng):
    while True:
        m = [[rng.randrange(field.order) for _ in range(k)] for _ in range(k)]
        if fqm_rank(field, m) == k:
            return m


def apply_mat(field, mat, u):
    gens = []
    for b in u.basis:
        vec = [0] * u.k
        for i in range(u.k):
            for j in range(u.k):
                vec[i] = field.add(vec[i], field.mul(mat[i][j], b[j]))
        gens.append(vec)
    return system_create(field, u.k, gens)


def test_canonical_key_orbit_invariance():
    rng = random.Random(17)
    # odd characteristic takes the slow vector path: a few draws of rank <= 2
    for fld, draws, max_gens in ((F8, 120, 3), (F9, 6, 2)):
        for _ in range(draws):
            gens = [[rng.randrange(fld.order) for _ in range(2)]
                    for _ in range(rng.randrange(1, max_gens + 1))]
            u = system_create(fld, 2, gens)
            if u.is_zero:
                continue
            key = canonical_key(u)
            twisted = apply_mat(fld, random_invertible(fld, 2, rng), u)
            assert canonical_key(twisted) == key
            j = rng.randrange(fld.degree)
            frob = system_create(fld, 2, [[fld.frob_abs(z, j) for z in b]
                                          for b in u.basis])
            assert canonical_key(frob) == key


def test_canonical_key_many_tied_candidates():
    # the rank-4 Moore system in V(4, 4) keeps more than 64 tied candidates
    # whose image tuples still hold unset (None) images
    u = moore_system(MooreParams(F4, 2, 2))
    key = canonical_key(u)
    assert len(key) == F4.q ** u.rank - 1
    twisted = apply_mat(F4, random_invertible(F4, 4, random.Random(9)), u)
    assert canonical_key(twisted) == key


def test_canonical_reduce_idempotent_and_in_orbit():
    rng = random.Random(3)
    for _ in range(20):
        gens = [[rng.randrange(16) for _ in range(2)]
                for _ in range(rng.randrange(1, 4))]
        u = system_create(F16, 2, gens)
        if u.is_zero:
            continue
        rep = canonical_reduce(u)
        assert canonical_key(rep) == canonical_key(u)
        assert canonical_reduce(rep) == rep


def test_subgeometry_is_own_representative():
    for field, k in ((F4, 2), (F8, 2), (F4, 3)):
        sub = system_create(field, k, [[1 if i == j else 0 for j in range(k)]
                                       for i in range(k)])
        assert canonical_reduce(sub) == sub


def test_orbit_representatives_cover():
    # every rank-2 subspace of V(2, 4) is equivalent to exactly one rep
    reps = orbit_representatives(F4, 2, 2)
    keys = {canonical_key(r) for r in reps[2]}
    assert len(keys) == len(reps[2])
    seen = set()
    for u in enumerate_rank_subspaces(F4, 2, 2):
        seen.add(canonical_key(u))
    assert seen == keys


def test_enumerate_rank_subspaces_counts():
    n = gaussian_binomial(4, 2, 2)
    subs = list(enumerate_rank_subspaces(F4, 2, 2))
    assert len(subs) == n
    assert len({u.canonical for u in subs}) == n
    # shards partition the walk
    parts = []
    for i in range(3):
        parts.extend(enumerate_rank_subspaces(F4, 2, 2, shard=(i, 3)))
    assert sorted(u.canonical for u in parts) == sorted(u.canonical for u in subs)


def test_enumerate_rank_subspaces_are_canonical():
    for fld, k, r in ((F4, 2, 2), (F9, 2, 2), (F8, 2, 3)):
        for u in enumerate_rank_subspaces(fld, k, r):
            assert u == system_create(fld, k, u.basis)
            assert u.rank == r


def test_graph_form_lemma_mode_counts():
    from collections import Counter
    labels = Counter(lbl for _u, lbl in graph_form_enumerate(F16))
    assert labels == {"case1": 1, "case2": 15, "case3": 3, "case4": 15}
    for u, _lbl in graph_form_enumerate(F16):
        assert u.rank == 4


def test_graph_form_complete_counts():
    systems = list(graph_form_enumerate(F16, complete=True))
    assert len(systems) == 16 * 16 + 16 + 1  # the 273 coefficient planes
    assert len({u.canonical for u, _ in systems}) == 273


def test_graph_none_saturating_q2():
    # no graph-form system at q = 2 is a rank 2-saturating system
    for u, _lbl in graph_form_enumerate(F16, complete=True):
        assert not is_rank_saturating(u, 2)


def test_counting_certificate():
    assert graph_cover_is_complete(F16, 4, 3)
    assert graph_cover_is_complete(field_create(3, 1, 4), 4, 3)
    assert not graph_cover_is_complete(F16, 3, 3)


def test_naive_vs_canonical_small():
    # identical values and per-rank verdicts at (q=2, m=2, k=2)
    for rho in (1, 2):
        rn = min_rank_search(SearchTask(F4, 2, rho, rho, 4, reduction="naive"))
        rc = min_rank_search(SearchTask(F4, 2, rho, rho, 4, reduction="canonical"))
        assert rn.value == rc.value
        vn = {o.rank: o.found is not None for o in rn.outcomes}
        vc = {o.rank: o.found is not None for o in rc.outcomes}
        assert vn == vc


def test_search_values_match_table():
    table = search_table(F4, 2)
    assert table[(2, 1)] == 3  # m(k-1)+1
    assert table[(2, 2)] == 2  # k


def test_search_bounds_respected():
    from ranksat.rankcov import lower_bound, upper_bound
    table = search_table(F4, 2)
    for (k, rho), val in table.items():
        if val is not None:
            assert lower_bound(2, 2, k, rho) <= val <= upper_bound(2, k, rho)


def test_graph_reduction_small_headline():
    res = min_rank_search(SearchTask(F16, 3, 2, 4, 5, reduction="graph"))
    assert res.value == 5
    assert res.outcomes[0].found is None and res.outcomes[0].examined == 273
    assert "counting certificate" in res.outcomes[0].note


def test_checkpoint_roundtrip(tmp_path):
    ck = str(tmp_path / "ck.json")
    task = SearchTask(F4, 2, 2, 2, 4, reduction="naive", checkpoint=ck)
    res = min_rank_search(task)
    assert res.value == 2
    # resume from the checkpoint: no re-examination of completed ranks
    task2 = SearchTask(F4, 2, 2, 2, 4, reduction="naive", checkpoint=ck)
    res2 = min_rank_search(task2)
    assert res2.value == 2


def test_task_validation():
    with pytest.raises(InvalidParams):
        SearchTask(F4, 2, 2, 1, 4)  # rank range below rho
    with pytest.raises(InvalidParams):
        SearchTask(F4, 2, 1, 1, 2, reduction="mystery")
    with pytest.raises(InvalidParams):
        SearchTask(F8, 2, 1, 1, 2, reduction="graph")  # wrong regime
    with pytest.raises(InvalidRho):
        SearchTask(F4, 4, 3, 3, 6)  # rho above m
    with pytest.raises(InvalidRho):
        SearchTask(F4, 2, 0, 1, 2)
