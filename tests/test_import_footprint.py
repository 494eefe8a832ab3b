"""Import footprint of the CLI: every run is a fresh interpreter, so the
modules that ``import flagcw.cli`` loads are paid for on every command."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Costly standard-library modules the package must not load: dataclasses
# brings inspect, which brings ast, dis and tokenize.
FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
# argparse and what it loads, which the CLI's option table does without;
# and the modules that only the commands reading them import
PARSER = ("argparse", "gettext", "locale")
COMMAND_MODULES = ("flagcw.charclass", "flagcw.counts", "flagcw.steenrod",
                   "flagcw.gf2")


def loaded_after(statements, names=FORBIDDEN):
    """The names present in sys.modules after running statements in an
    isolated interpreter without site packages."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); {statements}; "
        f"print(','.join(m for m in {names!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [m for m in proc.stdout.splitlines()[-1].split(",") if m]


def test_the_probe_sees_a_forbidden_module():
    assert {"dataclasses", "inspect"} <= set(loaded_after("import dataclasses"))
    assert loaded_after("import flagcw.counts", COMMAND_MODULES) == [
        "flagcw.charclass", "flagcw.counts"]


def test_cli_import_and_parser_load_no_forbidden_module():
    assert loaded_after("import flagcw.cli; flagcw.cli.build_parser()",
                        FORBIDDEN + PARSER + COMMAND_MODULES) == []


def test_annihilator_loads_no_other_command_module():
    run = ("import flagcw.cli; "
           "flagcw.cli.run(['annihilator', '--shape', '2,2', '--block', '1'])")
    assert loaded_after(run, FORBIDDEN + PARSER + COMMAND_MODULES) == []


def test_package_import_loads_no_forbidden_module():
    assert loaded_after("import flagcw") == []
