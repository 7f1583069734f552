"""CLI exit codes and external formats."""

import json
import os

from ranksat.cli import main

def run(argv):
    return main(argv)


def test_bounds_output(capsys):
    assert run(["bounds", "--q", "3", "--m", "4", "--k", "3", "--rho", "2"]) == 0
    out = capsys.readouterr().out
    assert "lower 4" in out and "upper 6" in out and "known" in out


def test_usage_error_exit_code(capsys):
    assert run(["bounds", "--q", "3", "--m", "4"]) == 2
    assert run(["fieldify"]) == 2
    for q in ("6", "1"):  # not prime powers
        assert run(["bounds", "--q", q, "--m", "4", "--k", "3", "--rho", "2"]) == 2
    assert run(["search", "--q", "2", "--m", "2", "--k", "4", "--rho", "3",
                "--rank-min", "3", "--rank-max", "6"]) == 2  # rho above m


def test_field_command(capsys):
    assert run(["field", "--q", "4", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "field p=2 a=2 m=2" in out


def test_construct_check_verify_cycle(tmp_path, capsys):
    cert = str(tmp_path / "moore.cert")
    assert run(["construct", "moore", "--q", "2", "--m", "3", "--rho", "2",
                "--t", "2", "--cert", cert]) == 0
    assert os.path.exists(cert)
    assert run(["check", "saturating", "--q", "2", "--m", "3", "--k", "4",
                "--rho", "2", "--system", cert]) == 0
    out = capsys.readouterr().out
    assert "claim saturating rho=2 result=true" in out
    assert run(["verify-cert", cert]) == 0
    # a wrong rho claim exits 1
    assert run(["check", "saturating", "--q", "2", "--m", "3", "--k", "4",
                "--rho", "3", "--system", cert]) == 1


def test_verify_cert_tampered(tmp_path, capsys):
    cert = str(tmp_path / "m.cert")
    assert run(["construct", "moore", "--q", "2", "--m", "2", "--rho", "2",
                "--t", "2", "--check-index", "--cert", cert]) == 0
    text = open(cert).read().splitlines()
    gis = [i for i, ln in enumerate(text) if ln.startswith("gen ")]
    text[gis[0]] = text[gis[1]]  # duplicated generator: dependent rows
    open(cert, "w").write("\n".join(text) + "\n")
    assert run(["verify-cert", cert]) == 1


def test_covrad_duality(tmp_path, capsys):
    cert = str(tmp_path / "m.cert")
    assert run(["construct", "moore", "--q", "2", "--m", "3", "--rho", "2",
                "--t", "2", "--cert", cert]) == 0
    assert run(["covrad", "--q", "2", "--m", "3", "--k", "4",
                "--system", cert, "--dual"]) == 0
    out = capsys.readouterr().out
    assert "claim covering-radius value=2" in out


def test_appendix_gamma(capsys):
    assert run(["appendix", "gamma", "--q", "2", "--alpha", "6",
                "--beta", "8"]) == 0
    out = capsys.readouterr().out
    assert "finding gamma size 0" in out


def test_appendix_delta_needs_tables(capsys):
    # F_{64^4} is past the default table threshold; the scan needs tables
    assert run(["appendix", "delta", "--q", "64", "--beta", "4174",
                "--which", "0", "--z", "2065534"]) == 2
    assert "table_threshold" in capsys.readouterr().err


def test_appendix_delta_q64_example(capsys):
    # the README's q = 64 example: one member of Delta_0 certifies a scattered pair
    assert run(["appendix", "delta", "--q", "64", "--beta", "4174",
                "--which", "0", "--z", "2065534",
                "--table-threshold", "16777216"]) == 0
    assert "scattered 266305/266305 ok" in capsys.readouterr().out


def test_search_cli(tmp_path, capsys):
    assert run(["search", "--q", "2", "--m", "2", "--k", "2", "--rho", "2",
                "--rank-min", "2", "--rank-max", "3",
                "--reduction", "naive"]) == 0
    out = capsys.readouterr().out
    assert "value 2" in out


def test_search_corrupt_checkpoint(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    argv = ["search", "--q", "2", "--m", "2", "--k", "2", "--rho", "1",
            "--rank-min", "1", "--rank-max", "3", "--reduction", "naive",
            "--resume", str(ck)]
    assert run(argv) == 0
    text = ck.read_text()
    data = json.loads(text)
    del data["ranks"][0]["examined"]
    for corrupt in (json.dumps(data), text[:len(text) // 2]):
        ck.write_text(corrupt)
        capsys.readouterr()
        assert run(argv) == 2
        assert str(ck) in capsys.readouterr().err


def test_reproduce_small_suite(capsys):
    assert run(["reproduce", "hscattered"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_reproduce_case_sweep_rejects_odd_q(capsys):
    assert run(["reproduce", "case-sweep", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "even q" in captured.err
