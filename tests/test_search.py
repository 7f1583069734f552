"""Canonical forms, orbit covers, and rank searches."""

import random
import time

import pytest

from ranksat import config
from ranksat.constructions import MooreParams, moore_system
from ranksat.errors import (BudgetExceeded, InternalInconsistency, InvalidParams,
                            InvalidRho)
from ranksat.gf import field_create
from ranksat.linalg import fqm_rank, gaussian_binomial, system_create
from ranksat.rankcov import is_rank_saturating
from ranksat.search import (
    SearchTask,
    _extensions,
    _gl_minimal_key,
    canonical_key,
    canonical_reduce,
    enumerate_rank_subspaces,
    graph_cover_is_complete,
    graph_form_enumerate,
    min_rank_search,
    orbit_representatives,
    search_table,
)

from .reference import ref_orbit_keys

F4 = field_create(2, 1, 2)
F8 = field_create(2, 1, 3)
F16 = field_create(2, 1, 4)
F9 = field_create(3, 1, 2)
F128 = field_create(2, 1, 7)


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
    for fld, draws, max_gens in ((F8, 120, 3), (F9, 6, 3)):
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


def test_canonical_key_past_2_pow_20_encodings():
    # V(3, 2^7) holds 2^21 vector encodings
    rng = random.Random(5)
    u = system_create(F128, 3, [[rng.randrange(128) for _ in range(3)]
                                for _ in range(2)])
    assert u.rank == 2
    key = canonical_key(u)
    assert len(key) == 3
    twisted = apply_mat(F128, random_invertible(F128, 3, rng), u)
    frob = system_create(F128, 3, [[F128.frob_abs(z, 3) for z in b]
                                   for b in twisted.basis])
    assert canonical_key(frob) == key


def test_canonical_key_many_tied_candidates():
    # the rank-4 Moore system in V(4, 4) keeps more than 64 tied candidates
    # whose image tuples still hold unset (None) images
    u = moore_system(MooreParams(F4, 2, 2))
    key = canonical_key(u)
    assert len(key) == F4.q ** u.rank - 1
    twisted = apply_mat(F4, random_invertible(F4, 4, random.Random(9)), u)
    assert canonical_key(twisted) == key


def _whole_space(field, k):
    return system_create(field, k, [[b if j == i else 0 for j in range(k)]
                                    for i in range(k) for b in field.power_basis])


def test_canonical_key_whole_space():
    # the whole space is a single orbit: its key is every nonzero encoding
    full = _whole_space(F4, 2)
    assert full.rank == 4
    assert canonical_key(full) == _gl_minimal_key(full) == tuple(range(1, 16))
    full = _whole_space(F9, 2)
    t0 = time.perf_counter()
    assert canonical_key(full) == tuple(range(1, 81))
    assert time.perf_counter() - t0 < 1.0


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


@pytest.mark.parametrize("fld, k, max_rank", [(F4, 3, 4), (F8, 3, 3), (F9, 2, 3)],
                         ids=["q2-m2-k3", "q2-m3-k3", "q3-m2-k2"])
def test_pruned_walk_matches_unpruned(fld, k, max_rank):
    # the stabilizer-pruned walk finds the orbits that extending every
    # representative by every vector finds
    reps = orbit_representatives(fld, k, max_rank)
    ref = ref_orbit_keys(fld, k, max_rank, fld.subfield_elements("mid"),
                         lambda gens: canonical_key(system_create(fld, k, gens)))
    for r in range(max_rank + 1):
        keys = [canonical_key(u) for u in reps[r]]
        assert len(set(keys)) == len(keys)
        assert set(keys) == ref[r]


def test_extensions_take_one_vector_outside_the_span():
    # in V(3, 4) some rank-3 representatives span a proper F_4-subspace W:
    # each is extended inside W and by exactly one vector outside it
    proper = 0
    for u in orbit_representatives(F4, 3, 3)[3]:
        dim_w = fqm_rank(F4, u.basis)
        outside = [c for c in _extensions(F4, 3, [u], 4)
                   if fqm_rank(F4, c.basis) > dim_w]
        assert len(outside) == (dim_w < 3)
        proper += dim_w < 3
    assert proper


def test_enumerate_rank_subspaces_counts():
    n = gaussian_binomial(4, 2, 2)
    subs = list(enumerate_rank_subspaces(F4, 2, 2))
    assert len(subs) == n
    assert len({u.canonical for u in subs}) == n


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


def test_search_walks_the_orbits_once(monkeypatch):
    # the covers at ranks 3 and 4 of (q, m, k, rho) = (2, 3, 3, 2) need the
    # orbits up to rank 3: one walk labels them once, and the rank-4 witness
    # stops it before it labels rank 4
    import ranksat.search as search
    calls = []
    monkeypatch.setattr(search, "canonical_key",
                        lambda u: calls.append(u.rank) or canonical_key(u))
    res = min_rank_search(SearchTask(F8, 3, 2, 3, 5, reduction="canonical"))
    assert res.value == 4
    assert sorted(set(calls)) == [1, 2, 3]
    searched = len(calls)
    walk = search._OrbitWalk(F8, 3)
    orbit_representatives(F8, 3, 3, walk)
    assert searched == walk.nodes


def test_naive_vs_canonical_odd_characteristic():
    # (q=3, m=2, k=3, rho=2): value 3 with the same per-rank verdicts
    results = [min_rank_search(SearchTask(F9, 3, 2, 2, 4, reduction=red))
               for red in ("naive", "canonical")]
    for res in results:
        assert res.value == 3
    vn, vc = ({o.rank: o.found is not None for o in res.outcomes}
              for res in results)
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


def test_checkpoint_keyed_by_node_budget(tmp_path, monkeypatch):
    ck = str(tmp_path / "ck.json")
    monkeypatch.setattr(config, "SEARCH_NODE_BUDGET", 1000)
    res = min_rank_search(SearchTask(F4, 2, 1, 1, 3, reduction="naive",
                                     checkpoint=ck))
    assert res.value == 3
    # rank 1 alone has 15 subspaces: a reused checkpoint would hide that
    monkeypatch.setattr(config, "SEARCH_NODE_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        min_rank_search(SearchTask(F4, 2, 1, 1, 3, reduction="naive",
                                   checkpoint=ck))


def test_construction_hint_faults_propagate(monkeypatch):
    import ranksat.constructions as constructions

    def broken(params):
        raise InternalInconsistency("solver post-check failed")

    monkeypatch.setattr(constructions, "moore_system", broken)
    # (k, rho, rank) = (2, 1, 3) is the Moore hint's rank m(t-1) + rho
    with pytest.raises(InternalInconsistency):
        min_rank_search(SearchTask(F4, 2, 1, 3, 3, reduction="naive"))


def test_task_validation():
    with pytest.raises(InvalidParams):
        SearchTask(F4, 2, 2, 1, 4)  # rank range below rho
    with pytest.raises(InvalidParams):
        SearchTask(F4, 2, 1, 3, 2)  # empty rank range
    with pytest.raises(InvalidParams):
        SearchTask(F4, 2, 1, 1, 2, reduction="mystery")
    with pytest.raises(InvalidParams):
        SearchTask(F8, 2, 1, 1, 2, reduction="graph")  # wrong regime
    with pytest.raises(InvalidRho):
        SearchTask(F4, 4, 3, 3, 6)  # rho above m
    with pytest.raises(InvalidRho):
        SearchTask(F4, 2, 0, 1, 2)
