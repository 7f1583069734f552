"""Spans around ranksat's public functions, installed from outside the package.

`Tracer.install()` replaces each listed function (in every ranksat module
that binds it) and each listed method with a wrapper that records a span:
name, start, end and parent.  `uninstall()` puts the originals back, so
untraced rounds run the unmodified program.

Self time is a span's duration minus the time its child spans cover; it is
derived as each span closes.  Two layers are recorded more cheaply:

* a `gf` function called while a `gf` span is open is not a span of its
  own: its time belongs to the `gf` call that made it (the layer boundary
  is the call into `gf`, not gf's internal calls);
* the scalar field operations (`add`, `mul`, `inv`, `pow`, `frobenius`) run
  millions of times, so they are counted and timed per call but not kept as
  span records; their time is still subtracted from the enclosing span.

Span records are kept in memory up to a cap and written as JSON lines when
the run ends; the metrics cover every span, kept or not.
"""

from __future__ import annotations

import collections
import inspect
import json
import sys
import time

import numpy as np

SPAN_RECORD_CAP = 50_000

SCALAR_OPS = ("add", "mul", "inv", "pow", "frobenius")


def _size(x) -> int:
    return int(np.size(x))


def _points_marked(tr, args, kwargs, rep, parent):
    cov = rep.coverage
    prev = 0
    for level in sorted(cov):
        tr.counts[f"rankcov.points_marked.l{level}"] += cov[level] - prev
        prev = cov[level]


def _grid_points(tr, args, kwargs, rep, parent):
    numeric = kwargs.get("numeric", args[2] if len(args) > 2 else True)
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    if numeric and rep.l1_derived is not None and rep.l2_derived is not None:
        order = args[0].field.order
        tr.counts["identities.grid_points"] += order * order if grid is None else len(grid[0])


def _scan(tr, args, kwargs, rep, parent):
    tr.counts["identities.scan_elems"] += args[0].order - 1


def _examined(tr, args, kwargs, res, parent):
    tr.counts["search.examined"] += sum(o.examined for o in res.outcomes)


def _representatives(tr, args, kwargs, reps, parent):
    tr.counts["search.representatives"] += sum(len(v) for v in reps.values())


def _saturation_check(tr, args, kwargs, res, parent):
    if parent is not None and parent[4] == "search":
        tr.counts["search.saturation_checks"] += 1


def _elems(metric, pick):
    def count(tr, args, kwargs, res, parent):
        tr.counts[metric] += pick(args, res)
    return count


# (module, attribute, span name, counter or None).  "Class.method" wraps a
# method; every other entry is a module-level function.
WRAPPED = [
    ("gf", "field_create", "gf.field_create", None),
    ("gf", "Field.vmul", "gf.vmul", _elems("gf.vmul_elems", lambda a, r: _size(r))),
    ("gf", "Field.vfrob", "gf.vfrob", _elems("gf.vfrob_elems", lambda a, r: _size(r))),
    ("gf", "Field.vpow", "gf.vpow", None),
    ("gf", "Field.vadd", "gf.vadd", _elems("gf.vadd_elems", lambda a, r: _size(r))),
    ("gf", "Field.vsub", "gf.vadd", _elems("gf.vadd_elems", lambda a, r: _size(r))),
    ("gf", "Field.vinv", "gf.vinv", None),
    ("gf", "BitLinearMap.apply", "gf.linear_map_apply",
     _elems("gf.linear_map_apply_elems", lambda a, r: _size(r))),
    ("linalg", "system_create", "linalg.system_create", None),
    ("linalg", "fq_rref", "linalg.fq_rref", None),
    ("linalg", "fqm_rref", "linalg.fqm_rref", None),
    ("linalg", "fq_rank", "linalg.fq_rank", None),
    ("linalg", "fqm_rank", "linalg.fqm_rank", None),
    ("linalg", "fq_span_dim", "linalg.fq_span_dim", None),
    ("linalg", "fq_rank_batch", "linalg.fq_rank_batch", None),
    ("linalg", "gf2_rank_batch", "linalg.gf2_rank_batch", None),
    ("linalg", "spans_ambient", "linalg.spans_ambient", None),
    ("linset", "linear_set", "linset.linear_set",
     _elems("linset.linear_set_points", lambda a, r: len(r))),
    ("linset", "normalize_rows", "linset.normalize_rows",
     _elems("linset.normalize_rows_elems", lambda a, r: len(r[0]))),
    ("linset", "point_index", "linset.point_index",
     _elems("linset.point_index_elems", lambda a, r: len(r))),
    ("linset", "point_unrank", "linset.point_unrank", None),
    ("rankcov", "saturation_report", "rankcov.saturation_report", _points_marked),
    ("rankcov", "saturating_index", "rankcov.saturating_index", None),
    ("rankcov", "is_rank_saturating", "rankcov.is_rank_saturating", _saturation_check),
    ("rankcov", "one_saturated", "rankcov.one_saturated", None),
    ("constructions", "moore_system", "constructions.moore_system", None),
    ("constructions", "case_system", "constructions.case_system", None),
    ("constructions", "rank5_example", "constructions.rank5_example", None),
    ("constructions", "moore_saturate_witness", "constructions.moore_saturate_witness", None),
    ("constructions", "contains_vector", "constructions.contains_vector", None),
    ("identities", "verify_identities", "identities.verify_identities", _grid_points),
    ("identities", "g_chain_polys", "identities.g_chain_polys", None),
    ("identities", "uvw_derived", "identities.uvw_derived", None),
    ("identities", "delta_sets", "identities.delta_sets", None),
    ("identities", "scattered_pair_scan", "identities.scattered_pair_scan", _scan),
    ("identities", "verify_delta_unsaturated", "identities.verify_delta_unsaturated", None),
    ("search", "min_rank_search", "search.min_rank_search", _examined),
    ("search", "orbit_representatives", "search.orbit_representatives", _representatives),
    ("search", "canonical_key", "search.canonical_key", None),
    ("search", "canonical_reduce", "search.canonical_reduce", None),
    ("search", "enumerate_rank_subspaces", "search.enumerate_rank_subspaces", None),
    ("certificates", "Certificate.write", "certificates.write", None),
    ("certificates", "Certificate.load", "certificates.load", None),
    ("certificates", "verify_certificate", "certificates.verify_certificate", None),
]

# Metrics measured by re-running calls with a parameter changed, because no
# public function isolates them (see Workload.decompose).
DECOMPOSED = ("rankcov.level1_s", "rankcov.level2_s", "rankcov.level3_s",
              "identities.symbolic_s", "identities.numeric_sweep_s")

LAYERS = ("gf", "linalg", "linset", "rankcov", "constructions", "identities",
          "search", "certificates")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []       # [name, start, child time, span id, layer]
        self.self_s: dict = collections.defaultdict(float)
        self.incl_s: dict = collections.defaultdict(float)
        self.calls: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.records: list[tuple] = []
        self.dropped = 0
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------

    def _close(self, frame, t1):
        dur = t1 - frame[1]
        name = frame[0]
        self.self_s[name] += dur - frame[2]
        self.incl_s[name] += dur
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.records) < SPAN_RECORD_CAP:
            self.records.append((frame[3], parent[3] if parent else 0, name, frame[1], t1))
        else:
            self.dropped += 1
        return parent

    def _wrap(self, fn, name, layer, counter):
        tr = self
        perf = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            if layer == "gf" and stack and stack[-1][4] == "gf":
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0, tr._next_id, layer]
            tr._next_id += 1
            stack.append(frame)
            frame[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent = tr._close(frame, t1)
            if counter is not None:
                counter(tr, args, kwargs, result, parent)
            return result

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0, 0.0, tr._next_id, layer]
                    tr._next_id += 1
                    stack.append(frame)
                    frame[1] = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf()
                        stack.pop()
                        tr._close(frame, t1)
                    yield item
            return gen_wrapper
        return wrapper

    def _wrap_scalar(self, fn):
        tr = self
        perf = time.perf_counter
        stack = self.stack
        self_s, calls = self.self_s, self.calls

        def wrapper(*args):
            if stack and stack[-1][4] == "gf":
                return fn(*args)
            frame = ["gf.scalar", 0.0, 0.0, 0, "gf"]
            stack.append(frame)
            t0 = frame[1] = perf()
            try:
                return fn(*args)
            finally:
                dur = perf() - t0
                stack.pop()
                self_s["gf.scalar"] += dur
                calls["gf.scalar"] += 1
                if stack:
                    stack[-1][2] += dur
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {name[len("ranksat."):]: mod for name, mod in sys.modules.items()
                if name.startswith("ranksat.")}
        rebinding = [mod for name, mod in sys.modules.items()
                     if name == "ranksat" or name.startswith("ranksat.")]
        for modname, attr, name, counter in WRAPPED:
            mod = mods[modname]
            layer = modname
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, layer, counter))
                else:
                    new = self._wrap(raw, name, layer, counter)
                self._patch(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(orig, name, layer, counter)
            for m in rebinding:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, new)
        field_cls = mods["gf"].Field
        for op in SCALAR_OPS:
            self._patch(field_cls, op, self._wrap_scalar(field_cls.__dict__[op]))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def reset(self):
        """Start the metrics afresh (span records are kept)."""
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def write_jsonl(self, path: str, header: dict):
        t0 = self.records[0][3] if self.records else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans_kept": len(self.records),
                                 "spans_dropped": self.dropped}) + "\n")
            for sid, parent, name, start, end in self.records:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"aggregate": name, "calls": self.calls[name],
                                     "self_s": self.self_s[name]}) + "\n")


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics (without the decomposition and trace.* ones)."""
    s, c, n = snap["self_s"], snap["calls"], collections.Counter(snap["counts"])
    S = lambda *names: sum(s.get(x, 0.0) for x in names)
    C = lambda *names: sum(c.get(x, 0) for x in names)
    out = {
        "gf.field_create_s": S("gf.field_create"),
        "gf.vmul_s": S("gf.vmul"), "gf.vmul_elems": n["gf.vmul_elems"],
        "gf.vfrob_s": S("gf.vfrob"), "gf.vfrob_elems": n["gf.vfrob_elems"],
        "gf.vpow_s": S("gf.vpow"),
        "gf.vadd_s": S("gf.vadd"), "gf.vadd_elems": n["gf.vadd_elems"],
        "gf.vinv_s": S("gf.vinv"),
        "gf.linear_map_apply_s": S("gf.linear_map_apply"),
        "gf.linear_map_apply_elems": n["gf.linear_map_apply_elems"],
        "gf.scalar_calls": C("gf.scalar"), "gf.scalar_s": S("gf.scalar"),
        "linalg.system_create_calls": C("linalg.system_create"),
        "linalg.system_create_s": S("linalg.system_create"),
        "linalg.rref_calls": C("linalg.fq_rref"),
        "linalg.rref_s": S("linalg.fq_rref", "linalg.fqm_rref"),
        "linalg.rank_batch_s": S("linalg.fq_rank_batch", "linalg.gf2_rank_batch"),
        "linset.linear_set_s": S("linset.linear_set"),
        "linset.linear_set_points": n["linset.linear_set_points"],
        "linset.normalize_rows_s": S("linset.normalize_rows"),
        "linset.normalize_rows_elems": n["linset.normalize_rows_elems"],
        "linset.point_index_s": S("linset.point_index"),
        "linset.point_index_elems": n["linset.point_index_elems"],
        "rankcov.saturation_calls": C("rankcov.saturation_report"),
        "rankcov.saturation_s": S("rankcov.saturation_report"),
        "rankcov.one_saturated_s": S("rankcov.one_saturated"),
        "rankcov.points_marked.l1": n["rankcov.points_marked.l1"],
        "rankcov.points_marked.l2": n["rankcov.points_marked.l2"],
        "rankcov.points_marked.l3": n["rankcov.points_marked.l3"],
        "constructions.build_s": S("constructions.moore_system", "constructions.case_system",
                                   "constructions.rank5_example"),
        "constructions.witness_calls": C("constructions.moore_saturate_witness"),
        "constructions.witness_s": S("constructions.moore_saturate_witness"),
        "identities.verify_calls": C("identities.verify_identities"),
        "identities.grid_points": n["identities.grid_points"],
        "identities.delta_sets_s": S("identities.delta_sets"),
        "identities.scans": C("identities.scattered_pair_scan"),
        "identities.scan_s": S("identities.scattered_pair_scan"),
        "identities.scan_elems": n["identities.scan_elems"],
        "search.canonical_key_calls": C("search.canonical_key"),
        "search.canonical_key_s": S("search.canonical_key"),
        "search.orbit_reps_s": S("search.orbit_representatives"),
        "search.representatives": n["search.representatives"],
        "search.enumerate_s": S("search.enumerate_rank_subspaces"),
        "search.examined": n["search.examined"],
        "search.saturation_checks": n["search.saturation_checks"],
        "certificates.write_s": S("certificates.write"),
        "certificates.load_s": S("certificates.load"),
        "certificates.verify_s": S("certificates.verify_certificate"),
    }
    keys = c.get("search.canonical_key", 0)
    out["search.canonical_yield"] = n["search.representatives"] / keys if keys else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.startswith(layer + "."))
    return out
