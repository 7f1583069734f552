"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must pass on genuine program outputs and fail on a corrupted
copy: a flipped verdict, an off-by-one coverage, a perturbed L1
coefficient, a witness outside U, a wrong `distinct`, and more.  Small
instances keep it short, except the q = 64 scan, which builds the 2^24-entry
tables (about 2 s and 550 MB).  Exits 1 if any check misbehaves.
"""

from __future__ import annotations

import copy
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ranksat import constructions, gf, identities, linalg, search  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, problems: list[str], should_fail: bool):
    ok = bool(problems) == should_fail
    RESULTS.append((label, ok))
    state = "ok  " if ok else "BAD "
    detail = problems[0] if problems else "no problem found"
    print(f"{state} {label}: {detail}")


def corrupt(rec: dict, edit) -> dict:
    bad = copy.deepcopy(rec)
    edit(bad)
    return bad


def saturation_cases(tmp: str):
    wl = workloads.Saturation(seed=1, out_dir=tmp)
    wl.cert_dir = tmp
    for pt in ((2, 1, 3, 2, 2), (3, 1, 2, 2, 2)):
        p, a, m, rho, t = pt
        fld = gf.field_create(p, a, m)
        rng = random.Random(7)
        targets = [tuple(rng.randrange(fld.order) for _ in range(rho * t)) for _ in range(5)]
        rec = wl.moore_claims(0, pt, fld, targets)
        name = f"moore{pt}"
        expect(f"{name} genuine", checks.check_moore(rec), False)
        expect(f"{name} flipped index verdict",
               checks.check_moore(corrupt(rec, lambda r: r.update(rho=rho - 1))), True)
        expect(f"{name} off-by-one coverage[1]",
               checks.check_moore(corrupt(rec, lambda r: r["coverage"].__setitem__(
                   1, r["coverage"][1] + 1))), True)
        expect(f"{name} off-by-one last coverage",
               checks.check_moore(corrupt(rec, lambda r: r["coverage"].__setitem__(
                   max(r["coverage"]), r["coverage"][max(r["coverage"])] - 1))), True)

        def outside_u(r):
            # (1, 0, .., 0) is not in U (x = 1 forces x^q = 1), so w + e_1 is not
            target, outs = r["solver"][0]
            w = list(outs[0])
            w[0] = fld.add(w[0], 1)
            r["solver"][0] = (target, [tuple(w)] + list(outs[1:]))
        expect(f"{name} solver witness outside U",
               checks.check_moore(corrupt(rec, outside_u)), True)
        expect(f"{name} saturated level witness",
               checks.check_moore(corrupt(rec, lambda r: r.update(
                   witness=(1, 1) + (0,) * (rho * t - 2)))), True)
        expect(f"{name} certificate rejected",
               checks.check_moore(corrupt(rec, lambda r: r["cert"].update(ok=False))), True)
        expect(f"{name} certificate claim altered",
               checks.check_moore(corrupt(rec, lambda r: r["cert"]["claims"][1].update(
                   value=rho + 1))), True)

    f3 = gf.field_create(3, 1, 4)
    alpha, beta = constructions.normalized_pairs(f3)[5]
    rec = wl.case4_claims(f3, alpha, beta)
    expect("case4 q=3 genuine", checks.check_case4(rec), False)
    expect("case4 q=3 flipped verdict",
           checks.check_case4(corrupt(rec, lambda r: r.update(rho=2))), True)
    expect("case4 q=3 off-by-one coverage[1]",
           checks.check_case4(corrupt(rec, lambda r: r.update(coverage1=r["coverage1"] + 1))),
           True)
    on_set = (1, f3.add(1, alpha), f3.add(1, beta))          # x = 1, a point of L_U
    expect("case4 q=3 saturated witness",
           checks.check_case4(corrupt(rec, lambda r: r.update(witness=on_set))), True)


def identity_cases():
    rng = random.Random(3)
    for a in (1, 2):
        fld = gf.field_create(2, a, 4)
        alpha, beta = constructions.normalized_pairs(fld)[1]
        ctx = identities.AppendixContext(fld, alpha, beta)
        c = 5
        rep = identities.verify_identities(ctx, c, numeric=True)
        rec = {"q": ctx.q, "modulus": fld.modulus, "alpha": alpha, "beta": beta, "c": c,
               "ok": rep.ok_derived, "l1": rep.l1_derived, "l2": rep.l2_derived}
        chain = identities.g_chain_polys(ctx, c)
        uvw = identities.uvw_derived(ctx, c, chain)
        pts = checks.identity_points(fld.order, 64, rng)
        name = f"identity q={ctx.q}"
        expect(f"{name} genuine", checks.check_identity(rec, chain, uvw, pts), False)
        e1 = sorted(rec["l1"])[0]
        expect(f"{name} perturbed L1 coefficient",
               checks.check_identity(corrupt(rec, lambda r: r["l1"].__setitem__(
                   e1, r["l1"][e1] ^ 1)), chain, uvw, pts), True)
        e2 = sorted(rec["l2"])[-1]
        expect(f"{name} perturbed L2 coefficient",
               checks.check_identity(corrupt(rec, lambda r: r["l2"].__setitem__(
                   e2, r["l2"][e2] ^ 1)), chain, uvw, pts), True)
        expect(f"{name} flipped verdict",
               checks.check_identity(corrupt(rec, lambda r: r.update(ok=False)),
                                     chain, uvw, pts), True)


def delta_cases():
    fld = gf.field_create(2, 6, 4, table_threshold=1 << 24)
    beta = fld.subfield_elements("mid")[5]
    members = identities.delta_sets(fld, beta, 0)
    z = members[0]
    rep = identities.verify_delta_unsaturated(fld, beta, 0, z, strict=False)
    rec = {"sets": {beta: members},
           "scans": [{"beta": beta, "z": z, "distinct": rep.distinct,
                      "expected": rep.expected, "kernel": rep.kernel_size,
                      "scattered": rep.scattered}]}
    dref = checks.DeltaReference(checks.ref_field(2, fld.modulus), fld.q)
    expect("delta genuine", checks.check_delta(rec, dref, fld.a), False)
    expect("delta wrong distinct", checks.check_delta(corrupt(
        rec, lambda r: r["scans"][0].update(distinct=rep.distinct - 1)), dref, fld.a), True)
    expect("delta flipped verdict", checks.check_delta(corrupt(
        rec, lambda r: r["scans"][0].update(scattered=False)), dref, fld.a), True)
    outsider = next(y for y in fld.subfield_elements("mid") if y not in members)
    expect("delta z outside Delta_0", checks.check_delta(corrupt(
        rec, lambda r: r["scans"][0].update(z=outsider)), dref, fld.a), True)
    expect("delta empty set", checks.check_delta(corrupt(
        rec, lambda r: r["sets"].__setitem__(beta, ())), dref, fld.a), True)


def search_cases():
    fld = gf.field_create(2, 1, 2)
    recs = {}
    for red in ("naive", "canonical"):
        res = search.min_rank_search(search.SearchTask(fld, 3, 2, 2, 4, reduction=red))
        recs[red] = {"params": (2, 2, 3, 2), "p": 2, "modulus": fld.modulus,
                     "reduction": red, "value": res.value,
                     "outcomes": [(o.rank, None if o.found is None else o.found.basis,
                                   o.examined) for o in res.outcomes]}
    rec = recs["canonical"]
    expect("search genuine", checks.check_search(rec), False)
    expect("search genuine agreement",
           checks.check_search_agreement(recs["naive"], rec), False)
    expect("search value above the upper bound",
           checks.check_search(corrupt(rec, lambda r: r.update(value=5))), True)

    def weak_witness(r):
        rank, found, ex = r["outcomes"][-1]
        # F_4 x F_2 x 0 spans no plane, so it saturates nothing beyond its line
        r["outcomes"][-1] = (rank, [(1, 0, 0), (2, 0, 0), (0, 1, 0)], ex)
    expect("search non-saturating witness", checks.check_search(corrupt(rec, weak_witness)),
           True)
    found = rec["outcomes"][-1][1]
    ref = checks.ref_field(2, fld.modulus)
    image = checks.semilinear_image(ref, found, checks.random_invertible(
        ref, 3, random.Random(5)), 1)
    key = lambda basis: search.canonical_key(linalg.system_create(fld, 3, basis))
    expect("search canonical key invariant", checks.check_canonical_invariance(
        "search", key(found), key(image)), False)
    other = [(1, 0, 0), (2, 0, 0), (0, 1, 0)]      # spans no plane: another orbit
    expect("search canonical key of another orbit", checks.check_canonical_invariance(
        "search", key(found), key(other)), True)
    expect("search naive/canonical disagree", checks.check_search_agreement(
        recs["naive"], corrupt(rec, lambda r: r.update(value=r["value"] + 1))), True)


def main() -> int:
    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        saturation_cases(tmp)
    identity_cases()
    search_cases()
    delta_cases()
    bad = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} checks behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
