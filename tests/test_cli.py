import json
import os
import subprocess
import sys
from pathlib import Path

from flagcw import charclass, cli

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
