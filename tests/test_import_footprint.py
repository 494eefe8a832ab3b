"""Import footprint of the CLI: every run is a fresh interpreter, so the
modules that ``import flagcw.cli`` loads are paid for on every command."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Costly standard-library modules the package must not load: dataclasses
# brings inspect, which brings ast, dis and tokenize.
FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def loaded_after(statements):
    """Forbidden modules present in sys.modules after running statements in
    an isolated interpreter without site packages."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); {statements}; "
        f"print(','.join(m for m in {FORBIDDEN!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [m for m in proc.stdout.strip().split(",") if m]


def test_the_probe_sees_a_forbidden_module():
    assert {"dataclasses", "inspect"} <= set(loaded_after("import dataclasses"))


def test_cli_import_and_parser_load_no_forbidden_module():
    assert loaded_after("import flagcw.cli; flagcw.cli.build_parser()") == []


def test_package_import_loads_no_forbidden_module():
    assert loaded_after("import flagcw") == []
