import json
import os
import subprocess
import sys
from pathlib import Path

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
