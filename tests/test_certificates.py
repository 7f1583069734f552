"""Certificate round-trips and re-verification."""

import pytest

from ranksat.certificates import Certificate, verify_certificate
from ranksat.constructions import MooreParams, moore_system
from ranksat.gf import field_create
from ranksat.linalg import system_create

F8 = field_create(2, 1, 3)


def test_roundtrip(tmp_path):
    u = moore_system(MooreParams(F8, 2, 2))
    cert = Certificate.for_system(u)
    cert.add_claim("rank", value=5)
    cert.add_claim("saturating", rho=2, result=True)
    cert.add_finding("demo", "ok")
    path = str(tmp_path / "m.cert")
    cert.write(path)
    text = open(path).read()
    assert text.startswith("%RANKSAT-CERT v1\n")
    assert "field p=2 a=1 m=3 modulus=" in text
    back = Certificate.load(path)
    assert back.field.same_as(F8)
    assert back.generators == [tuple(b) for b in u.basis]
    assert back.system() == u
    ok, report = verify_certificate(back)
    assert ok, report


def test_tampered_generator_falsifies(tmp_path):
    u = moore_system(MooreParams(F8, 2, 2))
    cert = Certificate.for_system(u)
    cert.add_claim("saturating", rho=2, result=True)
    text = cert.dumps()
    lines = text.splitlines()
    gi = next(i for i, ln in enumerate(lines) if ln.startswith("gen "))
    parts = lines[gi].split()
    parts[1] = str((int(parts[1]) + 1) % 8)
    lines[gi] = " ".join(parts)
    tampered = Certificate.loads("\n".join(lines))
    ok, _report = verify_certificate(tampered)
    assert not ok


def test_false_claim_falsifies():
    u = system_create(F8, 2, [[1, 0]])
    cert = Certificate.for_system(u)
    cert.add_claim("scattered", result=False)  # rank-1 sets are scattered
    ok, report = verify_certificate(cert)
    assert not ok


def test_negative_search_claim_is_stated():
    u = moore_system(MooreParams(F8, 2, 2))
    cert = Certificate.for_system(u)
    cert.add_claim("search", rank=4, found=False, examined=10, rho=2)
    ok, report = verify_certificate(cert)
    assert ok
    assert any("stated" in ln for ln in report)


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        Certificate.loads("not a certificate\n")


def test_malformed_claims_are_usage_errors():
    # a missing parameter or system is a malformed certificate, not a
    # falsified claim: ValueError, named, before anything is recomputed
    u = moore_system(MooreParams(F8, 2, 2))
    no_rho = Certificate.loads(Certificate.for_system(u).dumps()
                               + "claim saturating result=true\n")
    with pytest.raises(ValueError, match="claim saturating lacks the parameter rho"):
        verify_certificate(no_rho)
    no_gen = Certificate.loads(Certificate(F8, 2).dumps()
                               + "claim rank value=0\n")
    with pytest.raises(ValueError, match="claim rank needs a system"):
        verify_certificate(no_gen)


@pytest.mark.parametrize("record", [
    "field p=2 m=3", "field p=2 a=1 m=3 modulus=[1,x]", "ambient 3",
    "ambient k=three", "gen 1 x 2", "claim", "claim rank value", "provenance tool"])
def test_malformed_records_name_their_line(record):
    # each record kind that carries fields; a finding is free text
    lines = Certificate.for_system(moore_system(MooreParams(F8, 2, 2))).dumps().splitlines()
    lines.insert(3, record)
    with pytest.raises(ValueError, match=rf"^line 4: malformed {record.split()[0]} record"):
        Certificate.loads("\n".join(lines) + "\n")
