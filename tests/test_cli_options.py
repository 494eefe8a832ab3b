"""The CLI's option table against the argparse parser it replaced.

``oracle_parser`` is the argparse tree that ``flagcw.cli`` used before its
option table.  Every valid line must parse to the same values under both,
and every malformed line must be refused by both; ``cli.run`` refuses it
with exit code 1, nothing on stdout and one ``error:`` line on stderr.
"""

import argparse
import contextlib
import io

import pytest

from flagcw import cli


def oracle_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcw",
        description="Exact Chow / mod-2 Chow / Witt-sheaf cohomology of "
        "type-A partial flag varieties.",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poincare", help="Poincare polynomials")
    p.add_argument("--shape", required=True)
    p.add_argument(
        "--theory", choices=["chow", "ch2", "w", "torsion"], required=True
    )
    p.add_argument("--twist", default="0")

    p = sub.add_parser("wring", help="Witt-sheaf cohomology basis by degree")
    p.add_argument("--shape", required=True)
    p.add_argument("--degree-max", type=int, required=True)
    p.add_argument("--twist", default="0")

    p = sub.add_parser("annihilator", help="annihilator of an Euler class")
    p.add_argument("--shape", required=True)
    p.add_argument("--block", type=int, required=True)

    p = sub.add_parser("euler", help="Euler class of a bundle expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--roots", type=int, default=2)

    p = sub.add_parser("count", help="enumerative presets")
    p.add_argument(
        "--preset",
        choices=["cubic-lines", "quintic-4planes", "flag-3-5"],
        required=True,
    )

    p = sub.add_parser("verify", help="verification suites")
    p.add_argument(
        "--suite",
        choices=["piqp", "annihilator", "sq2", "poincare"],
        required=True,
    )
    return parser


def oracle(argv):
    """The oracle's values, --format under its option name; None if it
    refuses the line."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            values = vars(oracle_parser().parse_args(argv))
    except SystemExit:
        return None
    values["format"] = values.pop("fmt")
    return values


# every command, option, choice and default, both --option forms, values
# starting with '-', and repeated options (the last one counts)
VALID = [
    "poincare --shape 1,1,2 --theory chow",
    "--format json poincare --theory ch2 --shape 2,2",
    "--format text poincare --shape 2,2 --theory w --twist 1,2",
    "poincare --shape=3,3,1 --theory=torsion --twist=0",
    "poincare --twist 2 --theory w --shape 2,2 --shape 1,3",
    "wring --shape 2,2 --degree-max 4",
    "--format=json wring --degree-max=7 --shape 2,2,4 --twist 1",
    "wring --shape 2,2 --degree-max -3",
    "wring --shape 2,2 --degree-max=-3",
    "wring --shape 2,2 --degree-max 1_0",
    "annihilator --shape 2,2 --block 1",
    "annihilator --block -1 --shape 2,2",
    "euler --expr sym^3(D1)",
    "euler --expr D1 --roots 3",
    "euler --roots=+4 --expr=D1*D2",
    "euler --expr D1 --roots -1",
    "count --preset cubic-lines",
    "count --preset quintic-4planes",
    "--format json --format text count --preset flag-3-5",
    "verify --suite piqp",
    "verify --suite annihilator",
    "verify --suite sq2",
    "--format json verify --suite poincare",
    "poincare --shape= --theory w",
]

# refused by the parser before any command runs, or (a value that starts
# with '-', which argparse read as an option) by the command
MALFORMED = [
    "",
    "--format json",
    "--format xml count --preset cubic-lines",
    "--format",
    "bogus --shape 2,2",
    "-- poincare --shape 1,1 --theory chow",
    "poincare --shape 1,1",
    "poincare --theory chow",
    "poincare --shape 1,1 --theory bogus",
    "poincare --shape 1,1 --theory",
    "poincare --shape 1,1 --theory chow extra",
    "poincare --shape 1,1 --theory chow --format json",
    "poincare --shape 1,1 --theory chow --block 1",
    "poincare --shape -1,2 --theory chow",
    "wring --shape 2,2",
    "wring --shape 2,2 --degree-max x",
    "wring --shape 2,2 --degree-max 1.5",
    "annihilator --shape 2,2 --block",
    "annihilator --shape 2,2 --block one",
    "euler --roots 2",
    "euler --expr D1 --roots two",
    "count",
    "count --preset",
    "count --preset cubic",
    "verify --suite all",
    "verify --suite sq2 poincare",
    "verify count --preset cubic-lines",
]


@pytest.mark.parametrize("line", VALID)
def test_valid_lines_parse_as_the_oracle_parses_them(line):
    argv = line.split()
    expected = oracle(argv)
    assert expected is not None, line
    assert vars(cli.parse_args(argv)) == expected


@pytest.mark.parametrize("line", MALFORMED)
def test_malformed_lines_are_refused_with_one_error_line(line, capsys):
    argv = line.split()
    assert oracle(argv) is None, line
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_an_error_is_one_line_when_argv_holds_a_newline(capsys):
    for argv in (["poincare", "--sh\nape", "1,1"], ["co\nunt"],
                 ["euler", "--expr", "D1", "--roots", "1\n2"],
                 ["count", "--preset", "flag\n3-5"]):
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_errors_name_the_option_and_the_allowed_values(capsys):
    for line, message in [
        ("poincare --shape 1,1 --theory bogus",
         "--theory must be one of chow, ch2, w, torsion, not 'bogus'"),
        ("poincare --shape 1,1", "poincare needs --theory"),
        ("wring --degree-max 2", "wring needs --shape"),
        ("euler --expr D1 --roots two", "--roots needs an integer, not 'two'"),
        ("count --preset", "--preset needs a value"),
        ("--format xml count --preset flag-3-5",
         "--format must be one of text, json, not 'xml'"),
        ("annihilator --shape 2,2 --block 1 --format json",
         "unknown option '--format'; annihilator takes --shape, --block"),
    ]:
        assert cli.run(line.split()) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_abbreviated_options_are_refused(capsys):
    # argparse took a unique prefix of an option; the table does not
    for line in ["poincare --sha 1,1 --theory chow",
                 "--form json count --preset cubic-lines",
                 "wring --shape 2,2 --degree 3"]:
        assert oracle(line.split()) is not None, line
        assert cli.run(line.split()) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unknown option '--"), err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--format", "json", "-h"],
                                  ["poincare", "--shape", "1,1", "--help"]])
def test_help_prints_the_usage_from_the_table(argv, capsys):
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out == cli.usage() + "\n"
    assert out.startswith("usage: flagcw [--format text|json] COMMAND")
    for command in cli.COMMANDS:
        (line,) = [ln for ln in out.splitlines() if ln.startswith(f"  {command} ")]
        for name, (_, allowed, default) in cli.OPTIONS[command].items():
            assert name in line, (command, name)
            for value in allowed or ():
                assert value in line, (command, value)
            if default is not None:
                assert f"{name} {default}" in out, (command, name)


def test_build_parser_returns_the_table():
    table = cli.build_parser()
    assert table is cli.OPTIONS
    assert set(cli.COMMANDS) == set(table) - {None}
