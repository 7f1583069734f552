"""Line-oriented certificates: self-contained, re-verifiable claim records.

Format: UTF-8 text, one record per line, `#` comments, integers only for
element encodings.

    %RANKSAT-CERT v1
    field p=2 a=1 m=4 modulus=[1,1,0,0,1]
    ambient k=3
    gen 1 2 4
    claim saturating rho=2 result=true
    finding L1 ok
    provenance tool=ranksat-0.1.0 wall=1.23

Re-verification needs only the certificate and the package: generators are
rebuilt into a System and every claim is recomputed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .gf import Field, parse_field_line
from .linalg import System, system_create

MAGIC = "%RANKSAT-CERT v1"


def write_atomic(path: str, text: str):
    """Write text through a temporary file beside path, then rename it, so
    that path holds either its old contents or all of the new ones."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@dataclass
class Certificate:
    field: Field
    k: int
    generators: list[tuple[int, ...]] = dc_field(default_factory=list)
    claims: list[dict] = dc_field(default_factory=list)
    findings: list[str] = dc_field(default_factory=list)
    provenance: dict = dc_field(default_factory=dict)

    @classmethod
    def for_system(cls, u: System) -> "Certificate":
        return cls(u.field, u.k, [tuple(b) for b in u.basis])

    def system(self) -> System:
        return system_create(self.field, self.k, [list(g) for g in self.generators])

    def add_claim(self, kind: str, **kv) -> dict:
        claim = {"kind": kind, **kv}
        self.claims.append(claim)
        return claim

    def add_finding(self, name: str, status: str, detail: str = ""):
        line = f"finding {name} {status}"
        if detail:
            line += f" {detail}"
        self.findings.append(line)

    # -- serialization --------------------------------------------------

    def dumps(self) -> str:
        lines = [MAGIC, self.field.describe(), f"ambient k={self.k}"]
        for g in self.generators:
            lines.append("gen " + " ".join(str(int(z)) for z in g))
        for claim in self.claims:
            kind = claim["kind"]
            parts = [f"claim {kind}"]
            for key, val in claim.items():
                if key == "kind":
                    continue
                if isinstance(val, bool):
                    val = "true" if val else "false"
                parts.append(f"{key}={val}")
            lines.append(" ".join(parts))
        lines.extend(self.findings)
        prov = dict(self.provenance)
        prov.setdefault("tool", _tool_tag())
        lines.append("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        write_atomic(path, self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
                 if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines or lines[0][1].strip() != MAGIC:
            raise ValueError("missing certificate magic line")
        fld = None
        k = None
        gens = []
        claims = []
        findings = []
        prov = {}
        for n, ln in lines[1:]:
            head = ln.split(None, 1)[0]
            if head not in ("field", "ambient", "gen", "claim", "finding",
                            "provenance"):
                raise ValueError(f"line {n}: unknown certificate record {head!r}")
            try:
                if head == "field":
                    fld = parse_field_line(ln)
                elif head == "ambient":
                    k = int(ln.split("k=")[1])
                elif head == "gen":
                    gens.append(tuple(int(v) for v in ln.split()[1:]))
                elif head == "claim":
                    parts = ln.split()
                    claim = {"kind": parts[1]}
                    for part in parts[2:]:
                        key, val = part.split("=", 1)
                        claim[key] = _parse_value(val)
                    claims.append(claim)
                elif head == "finding":
                    findings.append(ln)
                else:
                    for part in ln.split()[1:]:
                        key, val = part.split("=", 1)
                        prov[key] = val
            except (IndexError, KeyError, ValueError) as exc:
                raise ValueError(
                    f"line {n}: malformed {head} record {ln.strip()!r}") from exc
        if fld is None or k is None:
            raise ValueError("certificate lacks field or ambient lines")
        return cls(fld, k, gens, claims, findings, prov)

    @classmethod
    def load(cls, path: str) -> "Certificate":
        with open(path) as fh:
            return cls.loads(fh.read())


def _parse_value(val: str):
    if val == "true":
        return True
    if val == "false":
        return False
    if val in ("none", "None"):
        return None
    try:
        return int(val)
    except ValueError:
        return val


def _tool_tag() -> str:
    from . import __version__
    return f"ranksat-{__version__}"


class _Params(dict):
    """A claim's parameters: a missing one is a malformed certificate."""

    def __missing__(self, key):
        raise ValueError(f"claim {self['kind']} lacks the parameter {key}=")


# claim kinds recomputed on the certificate's system
_ON_SYSTEM = ("saturating", "saturating-within", "saturating-index", "scattered",
              "hscattered", "rank", "covering-radius", "search")


def verify_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Recompute every claim: (all good, report lines); ValueError if malformed."""
    from .linset import is_scattered, is_h_scattered
    from .rankcov import (code_from_system, covering_radius, is_rank_saturating,
                          lower_bound, saturating_index, upper_bound)
    report = []
    ok = True
    u = cert.system() if cert.generators else None
    if u is not None and u.rank != len(cert.generators):
        report.append("generators: dependent rows (tampered or malformed)")
        ok = False
    for claim in map(_Params, cert.claims):
        kind = claim["kind"]
        # a negative search line is stated, not recomputed
        if u is None and kind in _ON_SYSTEM and claim.get("found", True):
            raise ValueError(f"claim {kind} needs a system, and the "
                             f"certificate has no gen lines")
        good: Optional[bool] = None
        if kind == "saturating":
            got = is_rank_saturating(u, int(claim["rho"]))
            good = got == bool(claim["result"])
        elif kind == "saturating-within":
            from .rankcov import saturates_within
            got = saturates_within(u, int(claim["rho"]))
            good = got == bool(claim["result"])
        elif kind == "saturating-index":
            got = saturating_index(u)
            want = claim["value"]
            good = got == (None if want is None else int(want))
        elif kind == "scattered":
            good = is_scattered(u) == bool(claim["result"])
        elif kind == "hscattered":
            got, _w = is_h_scattered(u, int(claim["h"]))
            good = got == bool(claim["result"])
        elif kind == "rank":
            good = u.rank == int(claim["value"])
        elif kind == "covering-radius":
            code = code_from_system(u)
            if claim.get("dual"):
                code = code.dual()
            good = covering_radius(code) == int(claim["value"])
        elif kind == "bounds":
            q, m, k, rho = (int(claim[x]) for x in ("q", "m", "k", "rho"))
            good = (lower_bound(q, m, k, rho) == int(claim["lo"])
                    and upper_bound(m, k, rho) == int(claim["hi"]))
        elif kind == "suite":
            report.append(f"suite {claim.get('name')}[{claim.get('index')}]: "
                          f"stated (result={claim.get('result')})")
            if not claim.get("result"):
                ok = False
            continue
        elif kind == "search":
            # negative search lines are statements about an enumeration; a
            # positive carries its witness as the certificate system
            if claim.get("found"):
                good = is_rank_saturating(u, int(claim["rho"]))
            else:
                report.append(f"search rank={claim.get('rank')}: stated "
                              f"(enumeration of {claim.get('examined')} candidates)")
                continue
        else:
            report.append(f"{kind}: unknown claim kind")
            ok = False
            continue
        state = "verified" if good else "FALSIFIED"
        report.append(f"{kind}: {state}")
        ok = ok and bool(good)
    return ok, report
