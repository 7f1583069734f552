"""Budget defaults and tunables.

Every enumeration-heavy operation takes an optional budget override; these
module constants are only the defaults.  Exceeding a budget raises
BudgetExceeded rather than silently truncating.
"""

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

# Node cap for exhaustive searches (subspaces examined per rank).
SEARCH_NODE_BUDGET = 1 << 26
