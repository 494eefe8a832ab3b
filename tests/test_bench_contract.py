"""The benchmark reaches into flagcw by name; every name it uses must exist.

``bench/tracer.py`` wraps the functions in its ``BOUNDARIES`` table and
``bench/child.py`` calls a few library entry points directly.  A rename
or deletion under ``src/`` would otherwise surface only as failed
benchmark jobs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
