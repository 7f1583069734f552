"""The budget rule: each ranksat.config cap is strict and read at call time."""

import pytest

from ranksat import config
from ranksat.errors import BudgetExceeded
from ranksat.gf import field_create
from ranksat.linalg import gaussian_binomial, system_create
from ranksat.linset import is_h_scattered, linear_set
from ranksat.rankcov import code_from_system, covering_radius, saturation_report
from ranksat.search import _extensions, enumerate_rank_subspaces, orbit_representatives

F4 = field_create(2, 1, 2)
F16 = field_create(2, 1, 4)
FRAME = system_create(F16, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # rank 3, spans
CODE = code_from_system(system_create(F4, 2, [[1, 0], [2, 0], [0, 1]]))  # n 3, dim 2


def _orbit_walk_nodes(field, k, max_rank):
    """Candidates orbit_representatives labels: every extension it walks."""
    reps = orbit_representatives(field, k, max_rank)
    return sum(len(list(_extensions(field, k, reps[r - 1], r)))
               for r in range(1, max_rank + 1))


# (budget constant, the walk it caps, the walk's exact size)
WALKS = [
    ("VECTOR_BUDGET", lambda: linear_set(FRAME), 2 ** 3),
    ("SUBSPACE_BUDGET", lambda: is_h_scattered(FRAME, 1),
     gaussian_binomial(3, 1, 16)),
    ("POINT_BUDGET", lambda: saturation_report(FRAME), 16 ** 2 + 16 + 1),
    ("COVERING_BUDGET", lambda: covering_radius(CODE, "syndrome"), 4 ** 3),
    ("COVERING_BUDGET", lambda: covering_radius(CODE, "full"), 4 ** 3),
    ("COVERING_BUDGET", CODE.codewords, 4 ** 2),
    ("SEARCH_NODE_BUDGET", lambda: list(enumerate_rank_subspaces(F4, 2, 2)),
     gaussian_binomial(4, 2, 2)),
    ("SEARCH_NODE_BUDGET", lambda: orbit_representatives(F4, 2, 3),
     _orbit_walk_nodes(F4, 2, 3)),
]


@pytest.mark.parametrize("name, walk, total", WALKS, ids=[
    "vectors-linear_set", "subspaces-is_h_scattered", "points-saturation_report",
    "covering-syndrome", "covering-full", "covering-codewords",
    "nodes-naive_walk", "nodes-orbit_walk"])
def test_budget_is_a_strict_cap(monkeypatch, name, walk, total):
    monkeypatch.setattr(config, name, total)
    walk()  # a walk exactly at its cap runs
    monkeypatch.setattr(config, name, total - 1)
    with pytest.raises(BudgetExceeded, match=f"{name.lower()} = {total - 1}$"):
        walk()
