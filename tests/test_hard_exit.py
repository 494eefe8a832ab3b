"""The process path of the CLI: ``main`` flushes, then hard-exits.

The benchmark and users run ``python -m flagcw.cli`` (or ``python -m
flagcw``) with stdout redirected, so stdout is block-buffered and the
answer leaves the process at ``main``'s flush, right before ``os._exit``.
These tests run that path in child interpreters without the caller's
Python settings (PYTHONUNBUFFERED among them) and compare it with the
in-process ``run``.  A source scan pins ``os._exit`` to ``cli.main``:
``run`` and every library function return, so in-process callers, such
as a tracing harness that writes its totals after the run, keep control.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagcw import cli

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "flagcw"
# names whose reference can end the interpreter
EXITS = {"_exit", "exit", "quit", "abort"}


def spawn(args, stdout, **settings):
    """A child interpreter on ./src without PYTHON* settings other than
    the given ones; stderr is captured as bytes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(settings, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          timeout=120)


def spawn_to_file(tmp_path, args):
    """(exit code, stdout bytes, stderr bytes), stdout to a regular file."""
    out = tmp_path / "stdout"
    with open(out, "wb") as fh:
        proc = spawn(args, fh)
    return proc.returncode, out.read_bytes(), proc.stderr


def in_process(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


@pytest.mark.parametrize("module", ["flagcw.cli", "flagcw"])
def test_the_spawned_path_prints_what_run_prints(tmp_path, capsys, module):
    argv = ["--format", "json", "verify", "--suite", "piqp"]
    got = spawn_to_file(tmp_path, ["-m", module, *argv])
    assert got == in_process(capsys, argv)
    assert got[0] == 0


@pytest.mark.parametrize("module", ["flagcw.cli", "flagcw"])
def test_a_malformed_shape_exits_1_on_the_spawned_path(tmp_path, capsys, module):
    argv = ["poincare", "--shape", "x", "--theory", "chow"]
    got = spawn_to_file(tmp_path, ["-m", module, *argv])
    assert got == in_process(capsys, argv)
    assert got[:2] == (1, b"") and got[2].startswith(b"error: malformed shape")


def test_a_failed_check_exits_2_and_nothing_runs_after_main(tmp_path):
    code = (
        "from flagcw import cli, counts\n"
        "import atexit, sys\n"
        "atexit.register(print, 'teardown ran', file=sys.stderr)\n"
        "counts.count_quintic_fourplanes = lambda: 1\n"
        "sys.argv = ['flagcw', 'count', '--preset', 'quintic-4planes']\n"
        "cli.main()\n"
        "print('main returned', file=sys.stderr)\n"
    )
    rc, out, err = spawn_to_file(tmp_path, ["-c", code])
    assert rc == 2 and err == b""
    assert b'"name": "complex count = QUINTIC_FOURPLANES", "status": "fail"' in out


def test_an_exception_in_run_keeps_its_traceback_and_a_normal_exit(tmp_path):
    code = (
        "from flagcw import cli\n"
        "import atexit, sys\n"
        "atexit.register(print, 'teardown ran', file=sys.stderr)\n"
        "def broken(*args):\n"
        "    raise RuntimeError('internal')\n"
        "cli.run = broken\n"
        "sys.argv = ['flagcw', 'count', '--preset', 'cubic-lines']\n"
        "cli.main()\n"
    )
    rc, out, err = spawn_to_file(tmp_path, ["-c", code])
    assert rc == 1 and out == b""
    assert b"Traceback" in err and b"RuntimeError: internal" in err
    assert err.endswith(b"teardown ran\n")


def assert_write_error(proc):
    assert proc.returncode == 1
    line = proc.stderr.decode()
    assert line.startswith("error: cannot write output: ") and "Traceback" not in line
    assert line.count("\n") == 1 and line.endswith("\n")


# buffered, the answer fails at main's final flush; unbuffered, in print
# inside respond; both end the same way
def count_into(stdout, **settings):
    return spawn(["-m", "flagcw.cli", "count", "--preset", "cubic-lines"],
                 stdout, **settings)


def into_full_device(**settings):
    with open("/dev/full", "wb") as full:
        proc = count_into(full, **settings)
    assert_write_error(proc)
    assert "No space left on device" in proc.stderr.decode()


def into_closed_pipe(**settings):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = count_into(write_end, **settings)
    finally:
        os.close(write_end)
    assert_write_error(proc)


NO_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@NO_FULL
def test_a_full_device_is_a_write_error():
    into_full_device()


@NO_FULL
def test_a_full_device_is_a_write_error_unbuffered():
    into_full_device(PYTHONUNBUFFERED="1")


def test_a_closed_pipe_is_a_write_error():
    into_closed_pipe()


def test_a_closed_pipe_is_a_write_error_unbuffered():
    into_closed_pipe(PYTHONUNBUFFERED="1")


def exit_references(text):
    """(enclosing function, name) for every reference to a name in EXITS:
    an attribute, a bare name or an imported name; None outside any
    function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr in EXITS:
            found.append((owner, node.attr))
        elif isinstance(node, ast.Name) and node.id in EXITS:
            found.append((owner, node.id))
        elif isinstance(node, ast.alias) and node.name in EXITS:
            found.append((owner, node.name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(text), None)
    return found


def test_the_scan_sees_every_way_to_exit():
    text = (
        "import os, sys\n"
        "from os import _exit as leave\n"
        "def run(argv):\n    sys.exit(0)\n"
        "def helper():\n    exit(1)\n"
        "class C:\n    def stop(self):\n        os.abort()\n"
        "def main():\n    os._exit(0)\n"
        "quit()\n"
    )
    assert exit_references(text) == [
        (None, "_exit"), ("run", "exit"), ("helper", "exit"),
        ("stop", "abort"), ("main", "_exit"), (None, "quit"),
    ]


def test_only_cli_main_ends_the_process():
    found = {
        path.name: refs
        for path in sorted(PACKAGE.glob("*.py"))
        for refs in [exit_references(path.read_text())]
        if refs
    }
    assert found == {"cli.py": [("main", "_exit")]}
