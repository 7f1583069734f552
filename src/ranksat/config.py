"""Budgets and tunables: the one place that sets an enumeration limit.

Each constant is run-wide: `ranksat --config FILE` sets any of them from a
JSON object keyed by lowercase name.  Enumeration-heavy operations call
`check_budget` with the size of the walk they start; over its cap the walk
raises BudgetExceeded (CLI exit 3) rather than silently truncating.
"""

from .errors import BudgetExceeded

# Fields up to this order get log/antilog tables at creation (O(1) mul/inv).
# Larger fields fall back to carry-less polynomial arithmetic unless the
# caller raises the threshold explicitly.
TABLE_THRESHOLD = 1 << 20

# Hard cap from the field layer's scope: no fields beyond 2^32 elements.
MAX_FIELD_ORDER = 1 << 32

# Cap on q^n when a subspace's vectors are enumerated (linear sets, weights).
VECTOR_BUDGET = 1 << 24

# Cap on the number of F_{q^m}-subspaces walked by is_h_scattered.
SUBSPACE_BUDGET = 1 << 22

# Cap on the number of projective points a saturation scan may touch.
POINT_BUDGET = 1 << 26

# Cap on ambient-space vectors enumerated by covering-radius scans.
COVERING_BUDGET = 1 << 24

# Cap on subspaces per naive rank walk, and on orbit-walk nodes over all ranks.
SEARCH_NODE_BUDGET = 1 << 26


def check_budget(name: str, total: int, what: str) -> None:
    """BudgetExceeded if total > config.<name>, read now so --config applies."""
    cap = globals()[name]
    if total > cap:
        raise BudgetExceeded(f"{total} {what} exceed {name.lower()} = {cap}")
