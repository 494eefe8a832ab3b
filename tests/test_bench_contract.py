"""The benchmark reaches into flagcw by name; every name it uses must exist.

``bench/tracer.py`` wraps the functions in its ``BOUNDARIES`` table and
``bench/child.py`` calls a few library entry points directly.  A rename
or deletion under ``src/`` would otherwise surface only as failed
benchmark jobs, and a layer that no longer goes through its wrapped name
only as a traced count of 0.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_tracer(monkeypatch):
    # load by path without leaving bytecode under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, qualname: str):
    obj = importlib.import_module(f"flagcw.{module}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    return obj


def test_every_tracer_boundary_resolves(monkeypatch):
    boundaries = load_tracer(monkeypatch).BOUNDARIES
    assert boundaries
    for module, qualname, _, _ in boundaries:
        assert callable(resolve(module, qualname)), (module, qualname)


def test_child_entry_points_resolve():
    for module, qualname in [
        ("steenrod", "torsion_poincare_from_sq2"),
        ("wdring", "TwistClass.from_blocks"),
        ("flagchow", "FlagShape"),
        ("cli", "run"),
        ("cli", "build_parser"),
    ]:
        assert callable(resolve(module, qualname)), (module, qualname)


def test_the_trace_sees_every_sq2_row_through_nf2(tmp_path):
    # the tracer rebinds class attributes, so it runs in its own process
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "child.py"), "--trace", str(out),
         "sq2-torsion-fl6", "0"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(out.read_text())["totals"]
    nf2, sq2, rows = (totals[f"steenrod.Mod2Chow.{name}"] for name in (
        "nf2.calls", "sq2.calls", "sq2_matrix_rows.rows_out"))
    assert nf2 == sq2 == rows > 0
    assert totals["steenrod.Mod2Chow.nf2.monomials_in"] >= nf2


def test_the_trace_sees_a_complete_flag_pontryagin_ring(tmp_path):
    # W_D of 2,2,2,2,2 is built on chow_ring of its half shape 1,1,1,1,1,
    # a FullFlagRing, so its normal forms show under that class's spans
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "child.py"), "--trace", str(out),
         "cli", "--format", "json", "annihilator", "--shape", "2,2,2,2,2",
         "--block", "1"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(out.read_text())["totals"]
    assert totals["flagchow.FullFlagRing.normal_form.calls"] > 0
    assert totals["flagchow.FullFlagRing.multiplication_matrix.calls"] > 0
