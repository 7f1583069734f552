"""Exhaustive and orbit-reduced searches for minimal saturating ranks.

The canonical form of an F_q-subspace under the semilinear group (invertible
matrices composed with field automorphisms) is the minimum, over the group,
of the sorted encoding tuple of the image vector set, computed by a
position-wise minimal-image walk over partial linear maps.  Orbit
enumeration runs rank by rank: exact canonical dedup below the target rank,
then a direct check of every single-generator extension at the target rank,
which is a sound orbit cover without canonicalizing at the top.

A vector (z_0, ..., z_{k-1}) of F_{p^n}^k is encoded as the integer
sum z_i * p^(n(k-1-i)), that is, as the base-p digit string of its
F_p-coordinates.  Field addition and subtraction act digit-wise, so
field.add and field.sub act on whole vector encodings (XOR when p = 2).
Coordinate i is read off as enc // p^(n(k-1-i)) mod p^n, and c * v is
memoized per scalar c: the first product decodes v, multiplies each
coordinate by c and stores the result.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import config
from .certificates import write_atomic
from .errors import BudgetExceeded, InvalidParams
from .gf import Field
from .linalg import System, gaussian_binomial, system_create
from .rankcov import _check_rho, is_rank_saturating


def _enc_vector(field: Field, vec: Sequence[int]) -> int:
    out = 0
    for z in vec:
        out = out * field.order + int(z)
    return out


def _dec_vector(field: Field, enc: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(enc % field.order)
        enc //= field.order
    return tuple(reversed(out))


def _apply_automorphism(u: System, j: int) -> System:
    """The subspace image under the absolute Frobenius x -> x^{p^j}."""
    field = u.field
    gens = [[field.frob_abs(z, j) for z in b] for b in u.basis]
    return system_create(field, u.k, gens)


class _ScalarProducts(dict):
    """c·v for one scalar c, keyed by the encoded vector v and filled on
    first use."""

    def __init__(self, field: Field, k: int, c: int):
        super().__init__()
        self.field, self.k, self.c = field, k, c

    def __missing__(self, venc: int) -> int:
        field = self.field
        prod = _enc_vector(field, [field.mul(self.c, z)
                                   for z in _dec_vector(field, venc, self.k)])
        self[venc] = prod
        return prod


class _VecOps:
    """Vector arithmetic on encoded vectors (see the module docstring)."""

    def __init__(self, field: Field, k: int):
        self.field = field
        self.k = k
        self.space = field.order ** k
        self.add = field.add
        self.sub = field.sub
        self.products = [_ScalarProducts(field, k, c) for c in range(field.order)]
        self.places = [field.order ** (k - 1 - i) for i in range(k)]

    def scmul(self, c: int, venc: int) -> int:
        return self.products[c][venc]

    def coord(self, venc: int, i: int) -> int:
        return venc // self.places[i] % self.field.order


_OPS_CACHE: dict = {}


def _vec_ops(field: Field, k: int) -> _VecOps:
    key = (id(field), k)
    ops = _OPS_CACHE.get(key)
    if ops is None:
        ops = _VecOps(field, k)
        _OPS_CACHE[key] = ops
    return ops


class _Chart:
    """Echelonized partial linear map on encoded vectors.

    A vector is pinned only to an image outside the span of the images so
    far, so the images are independent and span the image of the map."""

    __slots__ = ("ops", "rows", "imgs", "pivots", "_span")

    def __init__(self, ops, rows=(), imgs=(), pivots=()):
        self.ops = ops
        self.rows = rows
        self.imgs = imgs
        self.pivots = pivots
        self._span = None

    def reduce(self, venc: int) -> tuple[int, int]:
        """(residual, image of the removed part), both encoded."""
        ops = self.ops
        img = 0
        for row, irow, piv in zip(self.rows, self.imgs, self.pivots):
            c = ops.coord(venc, piv)
            if c:
                venc = ops.sub(venc, ops.scmul(c, row))
                img = ops.add(img, ops.scmul(c, irow))
        return venc, img

    def image_value(self, venc: int) -> Optional[int]:
        res, img = self.reduce(venc)
        return img if res == 0 else None

    def span_set(self) -> set:
        """Every encoded vector in the span of the images (cached)."""
        if self._span is None:
            ops = self.ops
            cur = {0}
            for img in self.imgs:
                mults = [ops.scmul(c, img) for c in range(ops.field.order)]
                cur = {ops.add(a, m) for a in cur for m in mults}
            self._span = cur
        return self._span

    def pin(self, uenc: int, wenc: int) -> "_Chart":
        ops = self.ops
        field = ops.field
        res, img = self.reduce(uenc)
        wres = ops.sub(wenc, img)
        piv = next(i for i in range(ops.k) if ops.coord(res, i))
        inv = field.inv(ops.coord(res, piv))
        return _Chart(ops, self.rows + (ops.scmul(inv, res),),
                      self.imgs + (ops.scmul(inv, wres),),
                      self.pivots + (piv,))


def _gl_minimal_key(u: System, ub=None) -> Optional[tuple[int, ...]]:
    """Minimum sorted-encoding tuple of g(U) over invertible matrices g.

    With ub given, aborts (returning None) as soon as the prefix exceeds it."""
    field, k = u.field, u.k
    ops = _vec_ops(field, k)
    svecs = sorted(_enc_vector(field, tuple(int(z) for z in row))
                   for row in u.vectors() if any(row))
    n_out = len(svecs)
    cands = {(): _Chart(ops)}
    out: list[int] = []
    last = -1
    for pos in range(n_out):
        best_val = None
        best: dict = {}
        for chart in cands.values():
            img_vals = {}
            pend = []
            for t in svecs:
                iv = chart.image_value(t)
                img_vals[t] = iv
                if iv is not None and iv > last:
                    pend.append(iv)
            fmin = min(pend) if pend else None
            if fmin is not None and (best_val is None or fmin <= best_val):
                if best_val is None or fmin < best_val:
                    best_val, best = fmin, {}
                # the state is determined by the images of the set vectors
                best.setdefault(tuple(img_vals[t] for t in svecs), chart)
            for s in svecs:
                if img_vals[s] is not None:
                    continue
                res = _pin_minimal(chart, s, svecs, img_vals, last, best_val)
                if res is None:
                    continue
                val, nchart = res
                if best_val is None or val < best_val:
                    best_val, best = val, {}
                if val == best_val:
                    nkey = tuple(nchart.image_value(t) for t in svecs)
                    best.setdefault(nkey, nchart)
        if best_val is None:
            raise InvalidParams("minimal-image walk stalled")
        out.append(best_val)
        if ub is not None:
            if best_val > ub[pos]:
                return None
            if best_val < ub[pos]:
                ub = None
        last = best_val
        cands = best
        if len(cands) > 64:
            # None (an unset image) orders below every encoding
            cands = dict(sorted(cands.items(), key=lambda kv: tuple(
                -1 if v is None else v for v in kv[0]))[:64])
    return tuple(out)


def _pin_minimal(chart, s, svecs, img_vals, last, bound):
    """Smallest legal emission by pinning s, with the extended state."""
    ops = chart.ops
    field = ops.field
    sres, _ = chart.reduce(s)
    spiv = next(i for i in range(ops.k) if ops.coord(sres, i))
    sinv = field.inv(ops.coord(sres, spiv))
    deps = []
    for t in svecs:
        if img_vals[t] is not None or t == s:
            continue
        tres, timg = chart.reduce(t)
        c = field.mul(ops.coord(tres, spiv), sinv)
        if ops.sub(tres, ops.scmul(c, sres)) == 0:
            deps.append((timg, c))
    v = last + 1
    limit = ops.space
    span = chart.span_set()
    add, scmul = ops.add, ops.scmul
    while v < limit:
        if bound is not None and v > bound:
            return None
        if v in span:
            v += 1
            continue
        ok = True
        for base, c in deps:
            if add(base, scmul(c, v)) <= v:
                ok = False
                break
        if ok:
            return v, chart.pin(s, v)
        v += 1
    return None


def canonical_key(u: System) -> tuple[int, ...]:
    """Canonical invariant of the semilinear orbit of U."""
    if u.is_zero:
        return ()
    field = u.field
    best = None
    for j in range(field.degree):
        w = _apply_automorphism(u, j) if j else u
        key = _gl_minimal_key(w, ub=best)
        if key is not None and (best is None or key < best):
            best = key
    return best


def canonical_reduce(u: System) -> System:
    """A canonical orbit representative (same key => same orbit and back)."""
    return _key_system(u.field, u.k, canonical_key(u))


def _key_system(field: Field, k: int, key: tuple[int, ...]) -> System:
    """The subspace whose nonzero vectors are the encodings in key."""
    return system_create(field, k, [_dec_vector(field, e, k) for e in key])


# ----------------------------------------------------------------------
# orbit enumeration and searches
# ----------------------------------------------------------------------

def _extensions(field: Field, k: int, reps: list[System], rank: int,
                shard: Optional[tuple[int, int]]) -> Iterator[System]:
    """Each distinct rank-`rank` span of a representative and one more
    vector, in a fixed order; with a shard (i, n), every n-th from the i-th."""
    ambient = [_dec_vector(field, enc, k) for enc in range(1, field.order ** k)]
    seen: set = set()
    for base in reps:
        for v in ambient:
            cand = system_create(field, k, list(base.basis) + [list(v)])
            if cand.rank != rank or cand.canonical in seen:
                continue
            seen.add(cand.canonical)
            if shard is None or (len(seen) - 1) % shard[1] == shard[0]:
                yield cand


def orbit_representatives(field: Field, k: int, max_rank: int,
                          node_budget: Optional[int] = None,
                          ) -> dict[int, list[System]]:
    """Semilinear orbit representatives of subspaces up to max_rank.

    Complete by induction: every rank-r subspace contains a rank-(r-1)
    subspace, so extending every representative by every vector covers
    every orbit at the next rank.  Each representative is the system
    spanned by its canonical key, as canonical_reduce returns it."""
    cap = node_budget if node_budget is not None else config.SEARCH_NODE_BUDGET
    reps: dict[int, list[System]] = {0: [system_create(field, k, [])]}
    nodes = 0
    for r in range(1, max_rank + 1):
        seen: dict = {}
        for cand in _extensions(field, k, reps[r - 1], r, None):
            nodes += 1
            if nodes > cap:
                raise BudgetExceeded(f"orbit walk exceeded {cap} nodes")
            key = canonical_key(cand)
            if key not in seen:
                seen[key] = _key_system(field, k, key)
        reps[r] = list(seen.values())
    return reps


def enumerate_rank_subspaces(field: Field, k: int, r: int,
                             budget: Optional[int] = None,
                             shard: Optional[tuple[int, int]] = None,
                             ) -> Iterator[System]:
    """Every rank-r F_q-subspace of F_{q^m}^k exactly once (echelon walk)."""
    q = field.q
    ncols = field.m * k
    total = gaussian_binomial(ncols, r, q)
    cap = budget if budget is not None else config.SEARCH_NODE_BUDGET
    if total > cap:
        raise BudgetExceeded(f"{total} subspaces exceed budget {cap}")
    mids = field.subfield_elements("mid")
    counter = 0
    for pivots in itertools.combinations(range(ncols), r):
        free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, ncols)
                if j not in pivots]
        nfree = len(free)
        for idx in range(q ** nfree):
            if shard is not None and counter % shard[1] != shard[0]:
                counter += 1
                continue
            counter += 1
            rows = [[0] * ncols for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            v = idx
            for (i, j) in free:
                rows[i][j] = mids[v % q]
                v //= q
            # the rows are already the canonical F_q-RREF
            yield System(field, k, rows)


def graph_form_enumerate(field: Field, complete: bool = False,
                         ) -> Iterator[tuple[System, str]]:
    """Rank-m graph systems {(x, f(x), g(x))} in V(3, q^4) with case labels.

    The default walk reproduces the four-case normal forms with their
    parameter sweeps; complete=True walks every coefficient plane of the
    span of x^q, x^{q^2}, x^{q^3} instead (every graph form up to row
    operations, with no normal-form assumption)."""
    from .constructions import _graph_system, normalized_alphas, normalized_pairs
    if field.m != 4:
        raise InvalidParams("graph forms live in V(3, q^4)")
    order = field.order
    if not complete:
        yield _graph_system(field, {1: 1}, {2: 1}), "case1"
        for a in range(1, order):
            yield _graph_system(field, {1: 1, 2: a}, {3: 1}), "case2"
        for a in normalized_alphas(field):
            yield _graph_system(field, {1: 1, 3: a}, {2: 1}), "case3"
        for a, b in normalized_pairs(field):
            yield _graph_system(field, {1: 1, 3: a}, {2: 1, 3: b}), "case4"
        return
    # complete sweep: echelon planes in coordinates (q, q^2, q^3)
    for a in range(order):
        for b in range(order):
            label = ("case1" if a == 0 and b == 0 else
                     "case3" if b == 0 else
                     "case4" if a != 0 else "case4-degenerate")
            yield _graph_system(field, {1: 1, 3: a}, {2: 1, 3: b}), label
    for a in range(order):
        label = "case2" if a else "case2-degenerate"
        yield _graph_system(field, {1: 1, 2: a}, {3: 1}), label
    yield _graph_system(field, {2: 1}, {3: 1}), "plane-23"


def graph_cover_is_complete(field: Field, rank: int, k: int) -> bool:
    """Counting certificate: every rank-`rank` subspace of V(k, q^m) admits
    a disjoint line when max secants < total lines, so a graph form exists
    in its orbit (k = 3)."""
    if k != 3 or rank != field.m:
        return False
    q, order = field.q, field.order
    max_points = (q ** rank - 1) // (q - 1)
    lines_through_point = order + 1
    total_lines = order * order + order + 1
    return max_points * lines_through_point < total_lines


@dataclass
class RankOutcome:
    rank: int
    found: Optional[System]
    examined: int
    reduction: str
    note: str = ""


@dataclass
class SearchResult:
    value: Optional[int]
    outcomes: list[RankOutcome]
    task: "SearchTask"


@dataclass
class SearchTask:
    field: Field
    k: int
    rho: int
    rank_lo: int
    rank_hi: int
    reduction: str = "canonical"
    node_budget: Optional[int] = None
    shard: Optional[tuple[int, int]] = None
    checkpoint: Optional[str] = None

    def __post_init__(self):
        _check_rho(self.k, self.field.m, self.rho)
        if self.rank_lo < self.rho:
            raise InvalidParams("rank range must start at rho or above")
        if self.reduction not in ("naive", "canonical", "graph"):
            raise InvalidParams(f"unknown reduction {self.reduction!r}")
        if self.reduction == "graph" and not (self.k == 3 and self.field.m == 4):
            raise InvalidParams("graph reduction needs the rank = m, k = 3 regime")


def _construction_hints(field: Field, k: int, rho: int, rank: int):
    """Known families that may witness a positive at this rank."""
    from .constructions import MooreParams, moore_system, rank5_example
    hints = []
    if rho >= 1 and k % rho == 0 and rho <= field.m:
        t = k // rho
        if rank == field.m * (t - 1) + rho:
            hints.append(lambda: moore_system(MooreParams(field, rho, t)))
    if field.m == 4 and k == 3 and rank == 5 and rho == 2:
        hints.append(lambda: rank5_example(field))
    if rank == field.m * k and rho == 1:
        hints.append(lambda: system_create(
            field, k, [[b if j == i else 0 for j in range(k)]
                       for i in range(k) for b in field.power_basis]))
    return hints


def min_rank_search(task: SearchTask) -> SearchResult:
    """Least rank in range with a system of saturating index exactly rho.

    Positive ranks short-circuit on the first witness (construction hints
    first, then enumeration); negative ranks certify an orbit-complete
    sweep under the stated reduction."""
    outcomes = []
    done = _load_checkpoint(task)
    for rank in range(task.rank_lo, task.rank_hi + 1):
        if rank in done:
            outcomes.append(done[rank])
            if done[rank].found is not None:
                return SearchResult(rank, outcomes, task)
            continue
        outcome = _search_rank(task, rank)
        outcomes.append(outcome)
        _save_checkpoint(task, outcomes)
        if outcome.found is not None:
            return SearchResult(rank, outcomes, task)
    return SearchResult(None, outcomes, task)


def _search_rank(task: SearchTask, rank: int) -> RankOutcome:
    field, k, rho = task.field, task.k, task.rho
    examined = 0
    for hint in _construction_hints(field, k, rho, rank):
        u = hint()
        examined += 1
        if u.rank == rank and is_rank_saturating(u, rho):
            return RankOutcome(rank, u, examined, task.reduction, "construction hint")
    note = ""
    if task.reduction == "naive":
        candidates = enumerate_rank_subspaces(field, k, rank,
                                              budget=task.node_budget,
                                              shard=task.shard)
    elif task.reduction == "canonical":
        reps = orbit_representatives(field, k, rank - 1,
                                     node_budget=task.node_budget)
        candidates = _extensions(field, k, reps[rank - 1], rank, task.shard)
        note = (f"orbit cover: {len(reps[rank - 1])} representatives at "
                f"rank {rank - 1}, all single-generator extensions checked")
    else:
        if rank != field.m:
            raise InvalidParams("graph reduction only covers rank = m")
        if not graph_cover_is_complete(field, rank, k):
            note = "graph cover without the disjoint-line counting certificate"
        else:
            note = "complete by the disjoint-line counting certificate"
        candidates = (u for u, _label in graph_form_enumerate(field, complete=True))
    found = None
    for u in candidates:
        if u.rank != rank:
            continue
        examined += 1
        if is_rank_saturating(u, rho):
            found = u
            break
    return RankOutcome(rank, found, examined, task.reduction, note)


def _load_checkpoint(task: SearchTask) -> dict[int, RankOutcome]:
    if not task.checkpoint:
        return {}
    try:
        with open(task.checkpoint) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise InvalidParams(
            f"checkpoint {task.checkpoint} is not valid JSON: {exc}") from exc
    try:
        if data.get("task") != _task_fingerprint(task):
            return {}
        out = {}
        for row in data.get("ranks", []):
            found = None
            if row.get("found") is not None:
                found = system_create(task.field, task.k,
                                      [list(g) for g in row["found"]])
            out[row["rank"]] = RankOutcome(row["rank"], found, row["examined"],
                                           row["reduction"], row.get("note", ""))
    except (AttributeError, KeyError, TypeError) as exc:
        raise InvalidParams(
            f"checkpoint {task.checkpoint} has a missing or malformed field: "
            f"{exc!r}") from exc
    return out


def _save_checkpoint(task: SearchTask, outcomes: list[RankOutcome]):
    if not task.checkpoint:
        return
    data = {
        "task": _task_fingerprint(task),
        "ranks": [
            {"rank": o.rank, "examined": o.examined, "reduction": o.reduction,
             "note": o.note,
             "found": None if o.found is None else [list(g) for g in o.found.basis]}
            for o in outcomes
        ],
    }
    write_atomic(task.checkpoint, json.dumps(data))


def _task_fingerprint(task: SearchTask) -> str:
    return (f"{task.field.describe()} k={task.k} rho={task.rho} "
            f"range={task.rank_lo}..{task.rank_hi} red={task.reduction} "
            f"shard={task.shard} budget={task.node_budget}")


def search_table(field: Field, k_max: int, budget: Optional[int] = None,
                 ) -> dict[tuple[int, int], Optional[int]]:
    """Minimal-rank table s(k, rho) by naive search at tiny parameters."""
    out = {}
    for k in range(2, k_max + 1):
        for rho in range(1, min(k, field.m) + 1):
            task = SearchTask(field, k, rho, rank_lo=rho,
                              rank_hi=field.m * k, reduction="naive",
                              node_budget=budget)
            res = min_rank_search(task)
            out[(k, rho)] = res.value
    return out
