import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

from flagcw import charclass, cli, counts, wdring

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "flagcw", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_module_entry_point_runs_verify():
    proc = run_module("--format", "json", "verify", "--suite", "poincare")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["command"] == "verify"
    assert payload["checks"]
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_module_entry_point_rejects_malformed_shape():
    proc = run_module("poincare", "--shape", "x", "--theory", "chow")
    assert proc.returncode == 1
    assert "malformed shape" in proc.stderr


def test_negative_degree_max_is_rejected(capsys):
    assert cli.run(["wring", "--shape", "2,2", "--degree-max", "-3"]) == 1
    assert "--degree-max -3 is negative" in capsys.readouterr().err


def test_roots_outside_root_names_are_rejected(capsys):
    limit = len(charclass.ROOT_NAMES)
    for roots in (0, limit + 1):
        assert cli.run(["euler", "--roots", str(roots), "--expr", "D1"]) == 1
        assert f"out of range 1..{limit}" in capsys.readouterr().err
    assert cli.run(["euler", "--roots", str(limit), "--expr", f"D{limit}"]) == 0


def test_zero_block_is_rejected_before_twist_and_block(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["poincare", "--shape", "1,0,2", "--theory", "w",
                        "--twist", "2"]) == 1
        assert "block 2 has size 0" in capsys.readouterr().err
        # block 3 is in range for the original shape, not for a renumbered one
        assert cli.run(["annihilator", "--shape", "2,0,2", "--block", "3"]) == 1
        assert "block 2 has size 0" in capsys.readouterr().err


def test_chow_poincare_checks_the_multinomial(capsys):
    for theory in ("chow", "ch2"):
        assert cli.run(["--format", "json", "poincare", "--shape", "2,2,4",
                        "--theory", theory]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["result"]["coefficients"]) == 420
        assert payload["checks"] == [
            {"name": "coefficients sum to the multinomial N!/prod d_i! = 420",
             "status": "pass"}
        ]


def test_failed_verification_exits_2(monkeypatch, capsys):
    def failing(shape, i):
        return None, {"statement": "forced failure", "status": "fail",
                      "degrees_checked": []}

    monkeypatch.setattr(wdring, "ann_euler", failing)
    assert cli.run(["annihilator", "--shape", "2,2", "--block", "1"]) == 2
    assert "status: fail" in capsys.readouterr().out


SCHEMA_COMMANDS = [
    ["poincare", "--shape", "1,2", "--theory", "chow"],
    ["poincare", "--shape", "1,1,1", "--theory", "torsion"],
    ["wring", "--shape", "2,2", "--degree-max", "4"],
    ["annihilator", "--shape", "2,2", "--block", "1"],
    ["euler", "--expr", "sym^3(D1)"],
    ["count", "--preset", "cubic-lines"],
    ["count", "--preset", "quintic-4planes"],
    ["count", "--preset", "flag-3-5"],
    ["verify", "--suite", "poincare"],
]


def test_json_payload_schema(capsys):
    for argv in SCHEMA_COMMANDS:
        assert cli.run(["--format", "json", *argv]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "input", "result", "checks"}, argv
        assert payload["command"] == argv[0]
        for check in payload["checks"]:
            assert set(check) == {"name", "status"}, argv
            assert check["status"] in ("pass", "fail"), argv


def test_count_fills_checks(capsys):
    for preset, n_checks in [("cubic-lines", 3), ("quintic-4planes", 1),
                             ("flag-3-5", 4)]:
        assert cli.run(["count", "--preset", preset]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) == n_checks, preset
        assert all(c["status"] == "pass" for c in checks), checks


def test_failed_count_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(counts, "count_preset", lambda name: {"complex": 1})
    assert cli.run(["count", "--preset", "quintic-4planes"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"name": "complex count = QUINTIC_FOURPLANES",
                       "status": "fail"}]


def test_count_output_is_deterministic():
    argv = ("--format", "json", "count", "--preset", "quintic-4planes")
    first, second = run_module(*argv), run_module(*argv)
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["result"] == {
        "complex": counts.QUINTIC_FOURPLANES
    }


def test_euler_checks_the_cauchy_route(capsys):
    assert cli.run(["--format", "json", "euler", "--expr", "sym^5(D1 + D2)"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"].split(":")[0] for c in checks] == [
        "Sym^4(D1) (x) Sym^1(D2)",
        "Sym^3(D1) (x) Sym^2(D2)",
        "Sym^2(D1) (x) Sym^3(D2)",
        "Sym^1(D1) (x) Sym^4(D2)",
    ]
    assert all(c["status"] == "pass" for c in checks)


def test_failed_euler_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(charclass, "euler_tensor_cauchy", lambda *args: 0)
    assert cli.run(["--format", "json", "euler", "--expr", "D1 * D2"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{
        "name": "Sym^1(D1) (x) Sym^1(D2): Cauchy determinant = "
                "euler_sym_tensor(1, 1)",
        "status": "fail",
    }]
