import hashlib
import json
import subprocess
import sys

import pytest

from heis7.cli import main

CLI = [sys.executable, "-m", "heis7.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_verify_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run("verify", "syzygy", "--quiet", "--json", str(f1))
    r2 = run("verify", "syzygy", "--quiet", "--json", str(f2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()
    report = json.loads(f1.read_text())
    assert report["schema"] == "heis7-report-v1"
    assert report["seed"] == 42
    assert set(report["summary"]) == {"pass", "fail", "flagged"}
    assert report["summary"]["fail"] == 0
    for c in report["checks"]:
        assert set(c) == {"id", "status", "details", "ms"}
        assert c["ms"] == 0  # reproducibility: timings suppressed by default


def test_verify_unknown_suite_usage_error():
    r = run("verify", "nonsense")
    assert r.returncode == 2


@pytest.mark.parametrize("t", ["1,0,1,1", "0,0,0,0"])
def test_verify_refuses_an_inadmissible_point(t, capsys):
    # refused before any check runs: no report, a usage error
    assert main(["verify", "moduli", "--t", t]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: explicit parameter must satisfy t1 t2 t3 != 0\n"


# sha256 of the report `verify moduli --t 2,1,3,5` writes with --json
MODULI_T_SHA = "600fe62fbcfc8fd7c19b146202cc9db01867d198ed8a93d754f079f959f6fbe8"


def test_verify_records_the_explicit_point(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "moduli", "--t", "2,1,3,5", "--quiet", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["extra_t"] == ["2", "1", "3", "5"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MODULI_T_SHA


# every cubic vanishes mod 3 at this point, and 5 divides a denominator
CUBICS_VANISH_MOD_3 = "6/5,-3/8,6,3"


def test_surface_moves_a_prime_that_kills_the_cubics(tmp_path):
    out = tmp_path / "s.json"
    assert main(["surface", "--t", CUBICS_VANISH_MOD_3, "--coeff", "fp:3", "--quiet", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["hilbert_function"] == [1, 7, 28, 63, 112, 175]
    assert payload["provenance"]["coeff"] == "fp:11"


def test_verify_moves_a_prime_that_kills_the_cubics(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "moduli", "--coeff", "fp:3", "--t", CUBICS_VANISH_MOD_3, "--quiet", "--json", str(out)]) == 0
    details = {c["id"]: c["details"] for c in json.loads(out.read_text())["checks"]}
    assert details["moduli.surface_resolution"].endswith("(over F11, as the cubics are dependent mod 3)")


def test_grassmann_refuses_the_zero_point(capsys):
    assert main(["grassmann", "--t", "0,0,0,0"]) == 2
    assert capsys.readouterr().err == "error: t must be a point of projective 3-space\n"


@pytest.mark.parametrize("t, part", [("1/0,1,1,1", "'1/0'"), ("1,1,x,1", "'x'")])
def test_verify_names_a_part_of_t_that_is_not_rational(t, part, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "moduli", "--t", t, "--quiet"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --t: {part} is not a rational number" in err, err


@pytest.mark.parametrize("entry", ["x", "1/0"])
def test_grassmann_names_a_raw_entry_that_is_not_rational(entry, capsys):
    raw = ",".join([entry] + ["0"] * 20)
    with pytest.raises(SystemExit) as exit_info:
        main(["grassmann", "--raw", raw, "--quiet"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --raw: {entry!r} is not a rational number\n"), err
    assert "Traceback" not in err


def test_surface_degenerate_parameter():
    r = run("surface", "--t", "1,0,0,0", "--quiet")
    assert r.returncode != 0
    assert "degenerate" in r.stderr


def test_surface_output(tmp_path):
    out = tmp_path / "surf.json"
    r = run("surface", "--t", "2,1,3,5", "--out", str(out), "--quiet")
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["generators"]) == 21
    assert data["hilbert_function"] == [1, 7, 28, 63, 112, 175]


def test_grassmann_modes():
    r = run("grassmann", "--equational", "--quiet")
    assert r.returncode == 0
    r = run("grassmann", "--t", "1,1,1,1", "--quiet")
    assert r.returncode == 0
    raw = ",".join(["1", "0", "0", "0", "0", "0", "0",
                    "0", "1", "0", "0", "0", "0", "0",
                    "1", "1", "1", "1", "1", "1", "1"])
    r = run("grassmann", "--raw", raw, "--quiet")
    assert r.returncode == 1  # generic plane fails membership
    r = run("grassmann", "--quiet")
    assert r.returncode == 2


def test_grassmann_contraction_values():
    r = run("grassmann", "--t", "1,1,1,1")
    assert r.returncode == 0
    assert "member" in r.stdout
    line = [l for l in r.stdout.splitlines() if l.startswith("contractions")][0]
    values = line.split(":", 1)[1].split(",")
    assert len(values) == 9
    assert all(v.strip() == "0" for v in values)


@pytest.mark.parametrize(
    "argv",
    [["verify", "syzygy"], ["verify", "moduli"], ["surface", "--t", "1,1,1,1"], ["grassmann", "--equational"]],
    ids=["verify-syzygy", "verify-moduli", "surface", "grassmann"],
)
def test_bad_coeff_is_a_usage_error(argv, capsys):
    for coeff in ["fp:4", "fp:2", "fp:7", "fp:x", "fp:1", "fp:-5", "nonsense"]:
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--coeff", coeff, "--quiet"])
        assert exit_info.value.code == 2, coeff
        err = capsys.readouterr().err
        assert "error: argument --coeff:" in err and "Traceback" not in err, (coeff, err)


@pytest.mark.parametrize("flag", [["--json", "r.json"], ["--timing"]], ids=["json", "timing"])
@pytest.mark.parametrize(
    "argv", [["surface", "--t", "1,1,1,1"], ["grassmann", "--t", "1,1,1,1"]], ids=["surface", "grassmann"]
)
def test_report_flags_belong_to_verify(argv, flag, tmp_path, monkeypatch, capsys):
    # surface and grassmann write no report, so they refuse its flags
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, *flag, "--quiet"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_syzygy_field_agreement_reads_coeff(tmp_path):
    def detail(*coeff):
        out = tmp_path / "r.json"
        r = run("verify", "syzygy", *coeff, "--quiet", "--json", str(out))
        assert r.returncode == 0, r.stderr
        checks = json.loads(out.read_text())["checks"]
        return next(c for c in checks if c["id"] == "syzygy.field_agreement")["details"]

    assert "over Q and over F37 agree" in detail("--coeff", "fp:37")
    # the default prime goes unnamed, as before --coeff was read here
    assert "over Q and over the default prime field agree" in detail()


def test_spellings_of_one_prime_give_one_report(tmp_path, capsys):
    # the report records the canonical fp:<p>, not the spelling given
    reports = []
    for i, coeff in enumerate(["fp:31", "fp:031", "fp:+31", "fp: 31"]):
        out = tmp_path / f"r{i}.json"
        assert main(["verify", "syzygy", "--coeff", coeff, "--quiet", "--json", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1:] == reports[:1] * 3
    assert json.loads(reports[0])["config"]["coeff"] == "fp:31"
    out = tmp_path / "big.json"
    assert main(["verify", "syzygy", "--coeff", "fp:1_000_003", "--quiet", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["coeff"] == "fp:1000003"


@pytest.mark.parametrize(
    "argv", [["verify", "syzygy"], ["surface", "--t", "1,1,1,1"]], ids=["verify", "surface"]
)
@pytest.mark.parametrize(
    "budget, why",
    [("-1", "the degree budget must be >= 0, not -1"), ("x", "'x' is not an integer")],
    ids=["negative", "not-an-integer"],
)
def test_bad_budget_is_a_usage_error(argv, budget, why, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--budget-degree", budget, "--quiet"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --budget-degree: {why}" in err and "Traceback" not in err, err


def test_budget_help_names_the_degree_floor(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "max(budget, 9)" in " ".join(capsys.readouterr().out.split())
