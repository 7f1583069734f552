"""Command-line surface and the reproduce-the-tables batch driver.

Exit codes are the machine contract: 0 success / claims verified,
1 claim falsified, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from . import claims, config
from .certificates import Certificate, verify_certificate
from .errors import BudgetExceeded, RanksatError
from .gf import field_create, prime_power
from .linset import is_h_scattered, is_scattered
from .rankcov import (
    code_from_system,
    covering_radius,
    is_rank_saturating,
    known_value,
    lower_bound,
    saturating_index,
    upper_bound,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _prime_power(q: int) -> tuple[int, int]:
    pp = prime_power(q)
    if pp is None:
        raise argparse.ArgumentTypeError(f"q={q} is not a prime power")
    return pp


def _field_from_args(args):
    p, a = _prime_power(args.q)
    modulus = [int(c) for c in args.modulus.split(",")] if args.modulus else None
    return field_create(p, a, args.m, modulus, table_threshold=args.table_threshold)


def _emit_certificate(args, cert: Certificate):
    path = getattr(args, "cert", None)
    if path:
        out_dir = os.environ.get("RANKSAT_OUT", "")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        cert.write(path)
        print(f"certificate written to {path}")


def _load_system(field, k, path):
    cert = Certificate.load(path)
    if not cert.field.same_as(field) or cert.k != k:
        raise RanksatError("system file does not match the requested ambient")
    return cert.system()


def _apply_config_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read config file {path}: {exc.strerror}") from exc
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError(
            f"config file {path} holds {type(data).__name__}, not a JSON object")
    for key, val in data.items():
        name = key.upper()
        if not hasattr(config, name):
            raise argparse.ArgumentTypeError(f"unknown config key {key!r}")
        try:
            setattr(config, name, int(val))
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(
                f"config key {key!r} needs an integer, not {val!r}") from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_field(args):
    fld = _field_from_args(args)
    print(fld.describe())
    print(f"order={fld.order} q={fld.q} generator={fld.generator}")
    print(f"subfield: {list(fld.subfield_elements('mid'))[:16]}"
          + (" ..." if fld.q > 16 else ""))
    return EXIT_OK


def _cmd_construct(args):
    from .constructions import (MooreParams, case_system, hscattered_moore,
                                moore_system, rank5_example, thin_to_saturating)
    fld = _field_from_args(args)
    if args.what == "moore":
        shifts = tuple(int(s) for s in args.shifts.split(",")) if args.shifts else ()
        u = moore_system(MooreParams(fld, args.rho, args.t, shifts))
        label = f"moore rho={args.rho} t={args.t}"
    elif args.what == "case":
        u = case_system(fld, args.case, alpha=args.alpha, beta=args.beta)
        label = f"case {args.case}"
    elif args.what == "rank5":
        u = rank5_example(fld)
        label = "rank5"
    elif args.what == "hscattered":
        u = hscattered_moore(fld, args.h, args.t)
        if args.thin:
            u = thin_to_saturating(u, args.h)
        label = f"hscattered h={args.h} t={args.t}" + (" thinned" if args.thin else "")
    else:
        raise argparse.ArgumentTypeError(f"unknown construction {args.what!r}")
    print(f"{label}: ambient k={u.k}, rank {u.rank}")
    cert = Certificate.for_system(u)
    cert.add_claim("rank", value=u.rank)
    if args.check_index:
        idx = saturating_index(u)
        print(f"saturating index: {idx}")
        cert.add_claim("saturating-index", value=idx)
    _emit_certificate(args, cert)
    return EXIT_OK


def _cmd_check(args):
    fld = _field_from_args(args)
    u = _load_system(fld, args.k, args.system)
    cert = Certificate.for_system(u)
    ok = True
    if args.what == "saturating":
        got = is_rank_saturating(u, args.rho)
        print(f"claim saturating rho={args.rho} result={'true' if got else 'false'}")
        cert.add_claim("saturating", rho=args.rho, result=got)
        ok = got
    elif args.what == "scattered":
        got = is_scattered(u)
        print(f"claim scattered result={'true' if got else 'false'}")
        cert.add_claim("scattered", result=got)
        ok = got
    elif args.what == "hscattered":
        got, witness = is_h_scattered(u, args.h)
        print(f"claim hscattered h={args.h} result={'true' if got else 'false'}")
        if witness is not None:
            print(f"witness subspace rows: {witness.rows}")
        cert.add_claim("hscattered", h=args.h, result=got)
        ok = got
    _emit_certificate(args, cert)
    return EXIT_OK if ok else EXIT_FALSIFIED


def _cmd_covrad(args):
    fld = _field_from_args(args)
    u = _load_system(fld, args.k, args.system)
    code = code_from_system(u)
    if args.dual:
        code = code.dual()
    value = covering_radius(code, method=args.method)
    print(f"claim covering-radius value={value} dual={'true' if args.dual else 'false'}")
    cert = Certificate.for_system(u)
    cert.add_claim("covering-radius", value=value, dual=bool(args.dual))
    _emit_certificate(args, cert)
    return EXIT_OK


def _cmd_bounds(args):
    _prime_power(args.q)
    lo = lower_bound(args.q, args.m, args.k, args.rho)
    hi = upper_bound(args.m, args.k, args.rho)
    print(f"lower {lo}")
    print(f"upper {hi}")
    kv = known_value(args.q, args.m, args.k, args.rho)
    if kv is not None:
        print(f"known lo={kv.lo} hi={kv.hi} source={kv.source}")
    return EXIT_OK


def _cmd_search(args):
    from .search import SearchTask, min_rank_search
    fld = _field_from_args(args)
    task = SearchTask(fld, args.k, args.rho, args.rank_min, args.rank_max,
                      reduction=args.reduction, checkpoint=args.resume)
    t0 = time.time()
    res = min_rank_search(task)
    for o in res.outcomes:
        verdict = "found" if o.found is not None else "none"
        print(f"rank {o.rank}: {verdict} (examined {o.examined}, {o.reduction}"
              + (f"; {o.note}" if o.note else "") + ")")
    print(f"value {res.value if res.value is not None else 'none'} "
          f"({time.time() - t0:.1f}s)")
    if args.cert:
        witness = next((o.found for o in res.outcomes if o.found is not None), None)
        cert = (Certificate.for_system(witness) if witness is not None
                else Certificate(fld, args.k))
        for o in res.outcomes:
            cert.add_claim("search", q=fld.q, m=fld.m, k=args.k, rho=args.rho,
                           rank=o.rank, found=o.found is not None,
                           examined=o.examined, reduction=o.reduction)
        _emit_certificate(args, cert)
    return EXIT_OK


def _cmd_appendix(args):
    from .identities import (AppendixContext, delta_sets, gamma_set,
                             verify_delta_unsaturated, verify_gamma_unsaturated,
                             verify_identities)
    fld = _field_from_args(args)
    rc = EXIT_OK
    if args.what == "gamma":
        ctx = AppendixContext(fld, args.alpha, args.beta)
        gam = gamma_set(ctx)
        print(f"finding gamma size {len(gam)}")
        print(f"finding gamma lang-weil-order {fld.q ** 3}")
    elif args.what == "identities":
        ctx = AppendixContext(fld, args.alpha, args.beta)
        cs = range(fld.order) if args.c is None else [args.c]
        bad = 0
        for c in cs:
            rep = verify_identities(ctx, c, numeric=True)
            status = "ok" if rep.ok_derived else "violated"
            bad += not rep.ok_derived
            print(f"finding identities C={c} {status}")
            for name, val in rep.findings.items():
                if val != "ok":
                    print(f"finding transcription {name} C={c} {val}")
        rc = EXIT_OK if bad == 0 else EXIT_FALSIFIED
    elif args.what == "gamma-unsat":
        ctx = AppendixContext(fld, args.alpha, args.beta)
        rep = verify_gamma_unsaturated(ctx)
        status = "vacuous" if rep.vacuous else ("ok" if rep.ok else "violated")
        print(f"finding gamma-unsat checked={rep.checked} {status}")
        rc = EXIT_OK if rep.ok else EXIT_FALSIFIED
    elif args.what == "delta":
        dset = delta_sets(fld, args.beta, args.which)
        print(f"finding delta{args.which} size {len(dset)}")
        zs = dset if args.z is None else [args.z]
        for z in zs:
            rep = verify_delta_unsaturated(fld, args.beta, args.which, z,
                                           strict=False)
            status = "ok" if rep.scattered else "violated"
            print(f"finding delta{args.which} z={z} scattered "
                  f"{rep.distinct}/{rep.expected} {status}")
            if not rep.scattered:
                rc = EXIT_FALSIFIED
    return rc


def _cmd_verify_cert(args):
    cert = Certificate.load(args.path)
    ok, report = verify_certificate(cert)
    for line in report:
        print(line)
    return EXIT_OK if ok else EXIT_FALSIFIED


# ----------------------------------------------------------------------
# reproduce suites
# ----------------------------------------------------------------------

# each suite chains claim batches from ranksat.claims; --q picks the field
# of the case sweep
_SUITES = {
    "bounds-table": lambda q: claims.bounds_table(),
    "moore-grid": lambda q: claims.moore_grid(),
    "hscattered": lambda q: claims.hscattered_grid(),
    "case-sweep": lambda q: claims.case_sweep(q or 2),
    "appendix-q2": lambda q: itertools.chain(claims.appendix_identities(2),
                                             claims.gamma(2)),
    "appendix-q4": lambda q: itertools.chain(claims.appendix_identities(4),
                                             claims.gamma(4)),
    "delta-q64": lambda q: claims.delta_q64(),
    "search-q2m4": lambda q: claims.headline_search(),
}


def _cmd_reproduce(args):
    t0 = time.time()
    n_claims = n_fail = 0
    cert_dir = args.cert_dir or os.environ.get("RANKSAT_OUT", "")
    for i, (label, good) in enumerate(_SUITES[args.suite](args.q)):
        n_claims += 1
        print(f"{'PASS' if good else 'FAIL'} {label}")
        n_fail += not good
        if cert_dir:
            cert = Certificate(field_create(2, 1, 2), 2)
            cert.add_claim("suite", name=args.suite, index=i,
                           label=label.replace(" ", "_"), result=bool(good))
            cert.write(os.path.join(cert_dir, f"{args.suite}-{i:04d}.cert"))
    print(f"{n_claims - n_fail}/{n_claims} claims pass "
          f"({time.time() - t0:.1f}s)")
    return EXIT_OK if n_fail == 0 else EXIT_FALSIFIED


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_field_args(p, need_m=True):
    p.add_argument("--q", type=int, required=True, help="subfield order (prime power)")
    if need_m:
        p.add_argument("--m", type=int, required=True, help="relative degree")
    p.add_argument("--modulus", type=str, default=None,
                   help="little-endian coefficients, comma separated")
    p.add_argument("--table-threshold", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ranksat",
        description="saturating linear sets, rank covering radii, and their checks")
    ap.add_argument("--config", type=str, default=None,
                    help="JSON file of ranksat.config settings (budgets)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="create and describe a field tower")
    _add_field_args(p)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("construct", help="build a named system")
    p.add_argument("what", choices=["moore", "case", "rank5", "hscattered"])
    _add_field_args(p, need_m=False)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--rho", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--shifts", type=str, default=None)
    p.add_argument("--case", type=int, default=1)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--thin", action="store_true")
    p.add_argument("--check-index", action="store_true")
    p.add_argument("--cert", type=str, default=None)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("check", help="check a property of a stored system")
    p.add_argument("what", choices=["saturating", "scattered", "hscattered"])
    _add_field_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=int, default=2)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--system", type=str, required=True)
    p.add_argument("--cert", type=str, default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("covrad", help="rank covering radius of a stored code")
    _add_field_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--system", type=str, required=True)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--method", choices=["syndrome", "full"], default="syndrome")
    p.add_argument("--cert", type=str, default=None)
    p.set_defaults(fn=_cmd_covrad)

    p = sub.add_parser("bounds", help="lower/upper/known values")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("search", help="minimal saturating rank search")
    _add_field_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--rank-min", type=int, required=True)
    p.add_argument("--rank-max", type=int, required=True)
    p.add_argument("--reduction", choices=["naive", "canonical", "graph"],
                   default="canonical")
    p.add_argument("--resume", type=str, default=None)
    p.add_argument("--cert", type=str, default=None)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("appendix", help="registry sweeps and distinguished sets")
    p.add_argument("what", choices=["gamma", "identities", "gamma-unsat", "delta"])
    _add_field_args(p, need_m=False)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--which", type=int, default=0)
    p.set_defaults(fn=_cmd_appendix)

    p = sub.add_parser("reproduce", help="run a named claim batch")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--cert-dir", type=str, default=None)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("verify-cert", help="re-verify a certificate file")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_verify_cert)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.config:
            _apply_config_file(args.config)
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RanksatError, argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
