"""One workload of the ranksat benchmark, run in a process of its own.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --root CHECKOUT

`run.py` starts this file and reads the JSON object it prints last.  Set-up
(import, fields with their tables, seeded inputs) ends at `setup_done`.
Then whole rounds of the workload's claims run, each claim timed on its
own; `verify_s` is the sum over claims of each claim's median time.  The
number of rounds is `--seconds` divided by the workload's
nominal round time (at least one), a fixed number, so that every run of a
workload attempts the same claims.  The outputs of the first round are
checked against `checks`/`reference` after the timed window, and every
later round must reproduce them exactly.

With `--trace 1` the process first runs half the rounds untraced (at least
one), then one round with spans installed (see `tracing`), and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("saturation", "identities", "delta-q64", "search")

# Sample sizes, fixed so that each workload is steady (see README.md).
MOORE_GRID = [(2, 1, 2, 2, 2), (2, 1, 3, 2, 2), (3, 1, 2, 2, 2), (2, 1, 4, 2, 2),
              (2, 1, 3, 3, 2), (2, 2, 3, 2, 2), (3, 1, 4, 2, 2), (7, 1, 2, 2, 2)]
WITNESS_TARGETS = 25           # moore_saturate_witness targets per grid point
CASE4_Q4_PAIRS = 6             # sampled (alpha, beta) pairs at q = 4
IDENTITY_Q4_C_PER_PAIR = 1     # sampled C per (alpha, beta) at q = 4
DELTA_SCANS = 3                # sampled (beta, z) scatteredness scans at q = 64
IDENTITY_CHECK_POINTS = 64     # seeded (x, y) points per q = 4 triple


class Workload:
    """setup() builds fields and inputs; run_round() decides every claim and
    returns (records, attempted, failed); check() returns problems.

    NOMINAL_ROUND_S is a round's time on the 2-core machine the benchmark
    was tuned on; it only sets how many rounds fit in --seconds."""

    NOMINAL_ROUND_S: float

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.durations: list[float] = []
        self.failures: list[str] = []

    def attempt(self, fn, *args, **kwargs):
        """Decide one claim and time it; an exception counts the claim as
        failed and returns None."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:      # a failed claim is reported, not fatal
            if len(self.failures) < 5:
                self.failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.durations.append(time.perf_counter() - t0)

    def decompose(self) -> dict:
        return {}

    def cleanup(self):
        pass


class Saturation(Workload):
    NOMINAL_ROUND_S = 24

    def setup(self):
        from ranksat import constructions, gf
        self.moore = []
        for pt in MOORE_GRID:
            p, a, m, rho, t = pt
            fld = gf.field_create(p, a, m)
            targets = [tuple(self.rng.randrange(fld.order) for _ in range(rho * t))
                       for _ in range(WITNESS_TARGETS)]
            self.moore.append((pt, fld, targets))
        f3, f4 = gf.field_create(3, 1, 4), gf.field_create(2, 2, 4)
        self.case4 = [(f3, a, b) for a, b in constructions.normalized_pairs(f3)]
        self.case4 += [(f4, a, b) for a, b in
                       self.rng.sample(constructions.normalized_pairs(f4), CASE4_Q4_PAIRS)]
        self.cert_dir = os.path.join(self.out_dir, f"certs-{os.getpid()}")
        os.makedirs(self.cert_dir, exist_ok=True)

    def moore_claims(self, i, pt, fld, targets) -> dict:
        from ranksat import certificates, constructions, linset, rankcov
        p, a, m, rho, t = pt
        params = constructions.MooreParams(fld, rho, t)
        u = constructions.moore_system(params)
        rep = rankcov.saturation_report(u)
        w = rep.witnesses.get(rho - 1)
        ls = linset.linear_set(u)
        if rho - 1 >= 2:
            unsat = w is not None and not rankcov.one_saturated(fld, ls.points, w)
        else:
            unsat = w is not None and not ls.contains(w)
        path = os.path.join(self.cert_dir, f"moore-{i}.cert")
        cert = certificates.Certificate.for_system(u)
        cert.add_claim("rank", value=u.rank)
        cert.add_claim("saturating-index", value=rep.rho)
        cert.write(path)
        back = certificates.Certificate.load(path)
        cert_ok, report = certificates.verify_certificate(back)
        solver = [(v, [tuple(x) for x in constructions.moore_saturate_witness(params, v)])
                  for v in targets]
        verdicts = [u.rank == m * (t - 1) + rho and rep.rho == rho, unsat, cert_ok]
        verdicts += [len(outs) == rho for _v, outs in solver]
        return {"point": pt, "modulus": fld.modulus, "rank": u.rank, "basis": u.basis,
                "rho": rep.rho, "coverage": dict(rep.coverage),
                "witness": None if w is None else w.coords,
                "solver": solver, "verdicts": verdicts,
                "cert": {"ok": cert_ok, "report": report, "generators": back.generators,
                         "claims": [c for c in back.claims]}}

    def case4_claims(self, fld, alpha, beta) -> dict:
        from ranksat import constructions, linset, rankcov
        u = constructions.case_system(fld, 4, alpha=alpha, beta=beta)
        rep = rankcov.saturation_report(u, stop_after=2)
        w = rep.witnesses.get(2)
        unsat = w is not None and not rankcov.one_saturated(
            fld, linset.linear_set(u).points, w)
        return {"field": (fld.p, fld.a), "modulus": fld.modulus, "alpha": alpha,
                "beta": beta, "basis": u.basis, "rho": rep.rho,
                "coverage1": rep.coverage.get(1), "witness": None if w is None else w.coords,
                "verdicts": [rep.rho != 2, unsat]}

    def run_round(self):
        records = {"moore": [], "case4": []}
        attempted = failed = 0
        for i, (pt, fld, targets) in enumerate(self.moore):
            n = 3 + len(targets)
            attempted += n
            rec = self.attempt(self.moore_claims, i, pt, fld, targets)
            failed += n if rec is None else rec["verdicts"].count(False)
            records["moore"].append(rec)
        for fld, alpha, beta in self.case4:
            attempted += 2
            rec = self.attempt(self.case4_claims, fld, alpha, beta)
            failed += 2 if rec is None else rec["verdicts"].count(False)
            records["case4"].append(rec)
        return records, attempted, failed

    def check(self, records) -> list[str]:
        import checks
        from ranksat import certificates
        bad = []
        for rec in records["moore"]:
            if rec is not None:
                bad += checks.check_moore(rec)
        for rec in records["case4"]:
            if rec is not None:
                bad += checks.check_case4(rec)
        # a certificate with one claim value altered must be reported FALSIFIED
        if records["moore"][0] is not None:
            path = os.path.join(self.cert_dir, "moore-0.cert")
            cert = certificates.Certificate.load(path)
            cert.claims[-1]["value"] += 1
            ok, report = certificates.verify_certificate(cert)
            if ok or not any("FALSIFIED" in line for line in report):
                bad.append(f"altered certificate accepted: {report}")
        return bad

    def decompose(self) -> dict:
        """rankcov.level{r}_s = T(stop_after=r) - T(stop_after=r-1) on the
        Moore systems, with T(0) = 0 (level 1 includes the span check)."""
        from ranksat import constructions, rankcov
        levels = {f"rankcov.level{r}_s": 0.0 for r in (1, 2, 3)}
        for pt, fld, _targets in self.moore:
            _p, _a, _m, rho, t = pt
            u = constructions.moore_system(constructions.MooreParams(fld, rho, t))
            prev = 0.0
            for r in range(1, rho + 1):
                t0 = time.perf_counter()
                rankcov.saturation_report(u, stop_after=r)
                dt = time.perf_counter() - t0
                levels[f"rankcov.level{r}_s"] += dt - prev
                prev = dt
        return levels

    def cleanup(self):
        shutil.rmtree(self.cert_dir, ignore_errors=True)


class Identities(Workload):
    NOMINAL_ROUND_S = 8

    def setup(self):
        import numpy as np
        from ranksat import constructions, gf, identities
        f2, f4 = gf.field_create(2, 1, 4), gf.field_create(2, 2, 4)
        n = f4.order
        grid4 = (np.repeat(np.arange(n, dtype=np.int64), n),
                 np.tile(np.arange(n, dtype=np.int64), n))
        self.triples = []
        for alpha, beta in constructions.normalized_pairs(f2):
            ctx = identities.AppendixContext(f2, alpha, beta)
            self.triples += [(ctx, c, None) for c in range(f2.order)]
        for alpha, beta in constructions.normalized_pairs(f4):
            ctx = identities.AppendixContext(f4, alpha, beta)
            self.triples += [(ctx, c, grid4)
                             for c in self.rng.sample(range(n), IDENTITY_Q4_C_PER_PAIR)]

    def run_round(self):
        from ranksat import identities
        records = []
        failed = 0
        for ctx, c, grid in self.triples:
            rep = self.attempt(identities.verify_identities, ctx, c, numeric=True, grid=grid)
            ok = rep is not None and rep.ok_derived
            failed += not ok
            records.append(None if rep is None else
                           {"q": ctx.q, "modulus": ctx.field.modulus, "alpha": ctx.alpha,
                            "beta": ctx.beta, "c": c, "ok": ok,
                            "l1": rep.l1_derived, "l2": rep.l2_derived})
        return records, len(self.triples), failed

    def check(self, records) -> list[str]:
        import checks
        from ranksat import identities
        rng = random.Random(f"identity-points:{self.seed}")
        bad = []
        for (ctx, c, _grid), rec in zip(self.triples, records):
            if rec is None:
                continue
            chain = identities.g_chain_polys(ctx, c)
            uvw = identities.uvw_derived(ctx, c, chain)
            pts = checks.identity_points(ctx.field.order, IDENTITY_CHECK_POINTS ** 2
                                         if ctx.q == 2 else IDENTITY_CHECK_POINTS, rng)
            bad += checks.check_identity(rec, chain, uvw, pts)
        return bad

    def decompose(self) -> dict:
        """identities.symbolic_s = T(numeric=False) over every triple."""
        from ranksat import identities
        t0 = time.perf_counter()
        for ctx, c, _grid in self.triples:
            identities.verify_identities(ctx, c, numeric=False)
        return {"identities.symbolic_s": time.perf_counter() - t0}


class DeltaQ64(Workload):
    NOMINAL_ROUND_S = 5.7

    def setup(self):
        from ranksat import gf
        self.field = gf.field_create(2, 6, 4, table_threshold=1 << 24)
        self.betas = self.field.subfield_elements("mid")[1:]
        picks = self.rng.sample(range(len(self.betas)), DELTA_SCANS)
        self.sample = [(self.betas[i], self.rng.randrange(1 << 30)) for i in picks]

    def run_round(self):
        from ranksat import identities
        fld = self.field
        sets = {}
        failed = 0
        for beta in self.betas:
            sets[beta] = self.attempt(identities.delta_sets, fld, beta, 0)
            failed += not sets[beta]
        scans = []
        for beta, j in self.sample:
            members = sets[beta]
            z = members[j % len(members)] if members else None
            rep = None if z is None else self.attempt(
                identities.verify_delta_unsaturated, fld, beta, 0, z, strict=False)
            failed += rep is None or not rep.scattered
            if rep is not None:
                scans.append({"beta": beta, "z": z, "distinct": rep.distinct,
                              "expected": rep.expected, "kernel": rep.kernel_size,
                              "scattered": rep.scattered})
        return {"sets": sets, "scans": scans}, len(self.betas) + len(self.sample), failed

    def check(self, records) -> list[str]:
        import checks
        fld = self.field
        ref = checks.ref_field(2, fld.modulus)
        dref = checks.DeltaReference(ref, fld.q)
        return checks.check_delta(records, dref, fld.a)


class Search(Workload):
    NOMINAL_ROUND_S = 13
    TASKS = [((2, 3, 3, 2), 3, 5, "canonical"),
             ((2, 2, 4, 2), 2, 5, "naive"),
             ((2, 2, 4, 2), 2, 5, "canonical")]

    def setup(self):
        from ranksat import gf, search
        self.tasks = []
        for (q, m, k, rho), lo, hi, red in self.TASKS:
            fld = gf.field_create(2, q.bit_length() - 1, m)
            self.tasks.append(((q, m, k, rho), fld,
                               search.SearchTask(fld, k, rho, lo, hi, reduction=red)))

    def run_round(self):
        from ranksat import search
        records = []
        failed = 0
        for params, fld, task in self.tasks:
            res = self.attempt(search.min_rank_search, task)
            failed += res is None or res.value is None
            records.append(None if res is None else
                           {"params": params, "p": fld.p, "modulus": fld.modulus,
                            "reduction": task.reduction, "value": res.value,
                            "outcomes": [(o.rank, None if o.found is None else o.found.basis,
                                          o.examined) for o in res.outcomes]})
        return records, len(self.tasks), failed

    def check(self, records) -> list[str]:
        import checks
        from ranksat import linalg, search
        bad = []
        for rec in records:
            if rec is not None:
                bad += checks.check_search(rec)
        if records[1] is not None and records[2] is not None:
            bad += checks.check_search_agreement(records[1], records[2])
        # The seed picks a semilinear map; the (2, 3, 3, 2) witness's key must
        # not move.  The (2, 2, 4, 2) witness is left out: canonical_key raises
        # TypeError on it (the candidate cut in _gl_minimal_key, see CHANGES.md).
        params, fld, task = self.tasks[0]
        for rank, found, _examined in (records[0]["outcomes"] if records[0] else []):
            if found is None:
                continue
            ref = checks.ref_field(fld.p, fld.modulus)
            image = checks.semilinear_image(
                ref, found, checks.random_invertible(ref, task.k, self.rng),
                self.rng.randrange(fld.degree))
            bad += checks.check_canonical_invariance(
                f"search{params} rank {rank}",
                search.canonical_key(linalg.system_create(fld, task.k, found)),
                search.canonical_key(linalg.system_create(fld, task.k, image)))
        return bad


CLASSES = {"saturation": Saturation, "identities": Identities,
           "delta-q64": DeltaQ64, "search": Search}


def _rounds(wl, n: int):
    """n rounds; returns per-round claim times, outputs and claim counts."""
    claim_times, outputs = [], []
    attempted = failed = 0
    for _ in range(n):
        wl.durations = []
        records, att, fail = wl.run_round()
        claim_times.append(wl.durations)
        outputs.append(records)
        attempted += att
        failed += fail
    return claim_times, outputs, attempted, failed


def verify_time(claim_times: list[list[float]]) -> float:
    """Time to decide every claim once: the sum over claims of each claim's
    median over the rounds, so that a slow spell of the machine during one
    round does not count."""
    return sum(statistics.median(ts) for ts in zip(*claim_times))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import ranksat
    if not os.path.abspath(ranksat.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ranksat imported from {ranksat.__file__}, not {src}", file=sys.stderr)
        return 2
    import ranksat.certificates, ranksat.constructions, ranksat.identities  # noqa: E401
    import ranksat.linset, ranksat.rankcov, ranksat.search  # noqa: E401

    out_dir = os.path.join(args.root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    wl = CLASSES[args.workload](args.seed, out_dir)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl.setup()
    setup_done = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        setup_snap = tracer.snapshot()
        tracer.reset()

    n_rounds = max(1, round(args.seconds / wl.NOMINAL_ROUND_S))
    if tracer is not None:
        n_rounds = max(1, n_rounds // 2)
    claim_times, outputs, attempted, failed = _rounds(wl, n_rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_done": setup_done, "rounds": len(claim_times),
              "round_s": [sum(ts) for ts in claim_times],
              "verify_s": verify_time(claim_times), "peak_rss_mb": peak_rss_mb}

    if tracer is not None:
        tracer.install()
        wl.durations = []
        records, att, fail = wl.run_round()
        traced_s = sum(wl.durations)
        round_snap = tracer.snapshot()
        extra = wl.decompose()
        tracer.uninstall()
        outputs.append(records)
        attempted += att
        failed += fail
        layers = tracing.layer_metrics(round_snap)
        layers["gf.field_create_s"] = setup_snap["self_s"].get("gf.field_create", 0.0)
        for name in tracing.DECOMPOSED:
            layers[name] = extra.get(name, 0.0)
        if "identities.symbolic_s" in extra:
            numeric = round_snap["incl_s"].get("identities.verify_identities", 0.0)
            layers["identities.numeric_sweep_s"] = numeric - extra["identities.symbolic_s"]
        layers["trace.verify_s"] = traced_s
        layers["trace.untraced_verify_s"] = result["verify_s"]
        layers["trace.overhead_s"] = traced_s - result["verify_s"]
        layers["trace.spans"] = sum(n for k, n in round_snap["calls"].items()
                                    if k != "gf.scalar")
        result["per_layer"] = layers
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path, {"workload": args.workload, "seed": args.seed})

    problems = wl.check(outputs[0])
    wl.cleanup()
    for i, later in enumerate(outputs[1:], start=2):
        if later != outputs[0]:
            problems.append(f"round {i} decided differently from round 1")
    for line in wl.failures:
        print(f"failed claim: {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    result.update(correct=not problems, attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
