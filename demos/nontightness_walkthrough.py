"""Why the lower bound is not tight at (q=2, m=4, k=3, rho=2).

The generic bounds put the minimal saturating rank in {4, 5}; this script
shows rank 5 is achieved, and that no rank-4 system works, by the complete
graph-form sweep (its completeness rests on a counting certificate: a
rank-4 linear set meets at most 15 * 17 = 255 of the 273 lines of
PG(2, 16), so some line misses it and the orbit contains a graph form).

Takes about a second.
"""

import time

from ranksat.constructions import rank5_example
from ranksat.gf import field_create
from ranksat.linalg import fqm_subspace
from ranksat.linset import weight
from ranksat.rankcov import lower_bound, saturating_index, upper_bound
from ranksat.search import SearchTask, graph_cover_is_complete, min_rank_search

fld = field_create(2, 1, 4)
print(fld.describe())
print(f"bounds for (q=2, m=4, k=3, rho=2): "
      f"lower {lower_bound(2, 4, 3, 2)}, upper {upper_bound(4, 3, 2)}")

# The rank-5 witness: a scattered rank-4 space on the line X_2 = 0 plus a
# point off it.  The line carries weight 4.
u5 = rank5_example(fld)
line = fqm_subspace(fld, 3, [[1, 0, 0], [0, 1, 0]])
print(f"\nrank-5 example: rank {u5.rank}, weight of X_2 = 0: {weight(u5, line)}")
print(f"saturating index over the 273 points of PG(2,16): {saturating_index(u5)}")

# The rank-4 non-existence, via the complete coefficient-plane sweep.
print(f"\ngraph cover complete at rank 4? "
      f"{graph_cover_is_complete(fld, 4, 3)} (counting certificate)")
t0 = time.time()
res = min_rank_search(SearchTask(fld, 3, 2, 4, 5, reduction="graph"))
for o in res.outcomes:
    state = "witness found" if o.found is not None else "no system"
    print(f"rank {o.rank}: {state} ({o.examined} candidates)")
print(f"minimal rank: {res.value}  ({time.time() - t0:.1f}s)")

# The same verdict at q = 3 makes the pair of computational claims:
print("\nq = 3 takes a few minutes more; run with --q3 if curious")
import sys
if "--q3" in sys.argv:
    fld3 = field_create(3, 1, 4)
    t0 = time.time()
    res3 = min_rank_search(SearchTask(fld3, 3, 2, 4, 5, reduction="graph"))
    print(f"q=3 minimal rank: {res3.value} ({time.time() - t0:.0f}s)")
