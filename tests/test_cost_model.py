"""The CLI's cost model against measured run times.

Each row is (argv, seconds): one CLI run (``python -m flagcw``) on a
2-core VM under a 3 GB address-space limit, timed from spawn to exit.  A
run that was stopped at 70 s is entered as 70 s, and a run that the CLI
refuses was timed with the limit lifted.  Each prediction of a row
of 1 s or more must be within a factor of 4 of it, and no row above the
limit may be admitted.  The rows of SMITH_BLOWUPS break that rule; their
test is expected to fail until the Smith form or the model sees their
growth.
"""

import math
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from flag_oracle import compositions
from test_cli import GOLDEN_COMMANDS, PINNED_OUTPUT

from flagcw import charclass, cli, flagchow
from flagcw.flagchow import FlagShape, TwistClass

SRC = Path(__file__).resolve().parents[1] / "src"


def FL(N):
    return ",".join(["1"] * N)


ROWS = [
    # annihilator, all-even shapes: records and kernels
    (("annihilator", "--shape", "2,2,2,2,2", "--block", "1"), 0.23),
    (("annihilator", "--shape", "2,2,2,2,4", "--block", "1"), 0.53),
    (("annihilator", "--shape", "4,4,4", "--block", "1"), 0.12),
    (("annihilator", "--shape", "2,6,4", "--block", "2"), 0.12),
    (("annihilator", "--shape", "4,4,6", "--block", "1"), 0.17),
    (("annihilator", "--shape", "2,4,4,4", "--block", "1"), 0.5),
    (("annihilator", "--shape", "2,2,2,2,6", "--block", "1"), 1.76),
    (("annihilator", "--shape", "6,6,6", "--block", "1"), 2.19),
    (("annihilator", "--shape", "2,2,2,2,2,2", "--block", "1"), 3.18),
    # ... and shapes near the limit, most with half blocks of 2
    (("annihilator", "--shape", "4,4,14", "--block", "1"), 2.33),
    (("annihilator", "--shape", "2,2,2,4,4", "--block", "1"), 5.04),
    (("annihilator", "--shape", "2,4,4,6", "--block", "2"), 4.91),
    (("annihilator", "--shape", "4,4,16", "--block", "1"), 6.75),
    (("annihilator", "--shape", "4,8,8", "--block", "1"), 9.23),
    (("annihilator", "--shape", "2,8,12", "--block", "1"), 4.0),
    (("annihilator", "--shape", "4,6,10", "--block", "1"), 4.73),
    (("annihilator", "--shape", "2,10,10", "--block", "1"), 4.94),
    (("annihilator", "--shape", "4,4,4,4", "--block", "1"), 70.02),  # stopped
    # ... and one long block
    (("annihilator", "--shape", "2,160", "--block", "1"), 0.09),
    (("annihilator", "--shape", "2,1000", "--block", "1"), 0.36),
    # annihilator, mixed shapes: no quotient records
    (("annihilator", "--shape", "3,4,4", "--block", "2"), 0.07),
    (("annihilator", "--shape", "1,4,4,4", "--block", "2"), 0.08),
    (("annihilator", "--shape", "1,2,2,2,2,2", "--block", "2"), 0.14),
    (("annihilator", "--shape", "2,2,2,2,2,3", "--block", "1"), 0.82),
    (("annihilator", "--shape", "2,2,2,2,2,2,1", "--block", "1"), 1.78),
    (("annihilator", "--shape", "1,2,2,2,2,2,2", "--block", "2"), 1.93),
    # poincare --theory w and wring, all-even shapes: Smith forms
    (("poincare", "--theory", "w", "--shape", "2,2,2,2,2,2,2"), 2.26),
    (("poincare", "--theory", "w", "--shape", "2,2,2,2,2,2,2", "--twist", "1"), 3.96),
    (("poincare", "--theory", "w", "--shape", "4,4,4,6"), 4.15),
    (("poincare", "--theory", "w", "--shape", "4,4,4,6", "--twist", "1,2"), 13.32),
    (("poincare", "--theory", "w", "--shape", "2,2,2,2,2,6"), 4.32),
    (("poincare", "--theory", "w", "--shape", "2,2,2,6,6"), 9.94),
    (("poincare", "--theory", "w", "--shape", "2,2,2,6,6", "--twist", "4"), 28.79),
    (("poincare", "--theory", "w", "--shape", "2,2,2,2,4,4"), 14.17),
    (("poincare", "--theory", "w", "--shape", "6,6,12"), 38.21),
    (("poincare", "--theory", "w", "--shape", "2,6,6,6"), 42.34),
    (("poincare", "--theory", "w", "--shape", "4,4,4,8"), 70.01),  # stopped
    (("poincare", "--theory", "w", "--shape", "8,8,8"), 70.01),  # stopped
    (("wring", "--shape", "2,2,2,6,6", "--degree-max", "40"), 0.16),
    (("wring", "--shape", "6,6,12", "--degree-max", "60"), 0.26),
    # the half shape's generators
    (("poincare", "--theory", "w", "--shape", "2,500"), 0.1),
    (("poincare", "--theory", "w", "--shape", "2,1000"), 0.17),
    (("poincare", "--theory", "w", "--shape", "2,2000"), 0.35),
    (("poincare", "--theory", "w", "--shape", "2,4000"), 1.13),
    (("poincare", "--theory", "w", "--shape", "2,6000"), 3.12),
    (("poincare", "--theory", "w", "--shape", "2,8000"), 5.8),
    (("poincare", "--theory", "w", "--shape", "2,20000"), 24.45),
    # mixed shapes: standard monomials
    (("poincare", "--theory", "w", "--shape", "2,2,2,2,2,2,2,1"), 0.12),
    (("poincare", "--theory", "w", "--shape", "1,16,16"), 0.21),
    (("poincare", "--theory", "w", "--shape", "1,8,8,8"), 0.22),
    (("poincare", "--theory", "w", "--shape", "3,8,8,8"), 2.24),
    # complete flags: the slot table
    (("poincare", "--theory", "w", "--shape", FL(32)), 1.0),
    (("poincare", "--theory", "w", "--shape", FL(36)), 4.52),
    (("poincare", "--theory", "w", "--shape", FL(40)), 17.25),
    (("poincare", "--theory", "w", "--shape", FL(42)), 31.94),
    # poincare --theory chow|ch2: the tower's series
    (("poincare", "--theory", "chow", "--shape", "64,64"), 0.13),
    (("poincare", "--theory", "chow", "--shape", "1,4000"), 0.07),
    (("poincare", "--theory", "chow", "--shape", "1,100000"), 0.13),
    (("poincare", "--theory", "chow", "--shape", "50,50,50,50"), 0.93),
    (("poincare", "--theory", "chow", "--shape", "100,100,100"), 1.57),
    (("poincare", "--theory", "chow", "--shape", "200,200"), 2.48),
    (("poincare", "--theory", "chow", "--shape", "300,300"), 11.22),
    (("poincare", "--theory", "chow", "--shape", "200,200,200"), 18.66),
    (("poincare", "--theory", "chow", "--shape", "400,400"), 26.29),
    (("poincare", "--theory", "ch2", "--shape", "400,400"), 31.95),
    (("poincare", "--theory", "chow", "--shape", "1000,1000"), 70.02),  # stopped
    # euler: the Cauchy boxes.  cauchy_minor_products prices every column
    # set of each determinant, but the expansion skips the sets that a
    # banded matrix cannot fill, so a long thin box is priced too high:
    # sym^3 * sym^41, timed with the limit lifted, is refused
    (("euler", "--expr", "sym^5(D1 + D2)"), 0.07),
    (("euler", "--expr", "sym^9(D1)*sym^9(D2)"), 0.18),
    (("euler", "--expr", "sym^11(D1)*sym^11(D2)"), 0.8),
    (("euler", "--expr", "sym^13(D1)*sym^13(D2)"), 3.69),
    (("euler", "--expr", "sym^15(D1)*sym^15(D2)"), 20.04),
    (("euler", "--expr", "sym^7(D1)*sym^19(D2)"), 0.96),
    (("euler", "--expr", "sym^3(D1)*sym^41(D2)"), 0.21),  # refused
    # euler with no tensor factor: e(E)^2 = p_top(E) reads the top terms
    (("euler", "--expr", "sym^1001(D1)"), 0.1),
    (("euler", "--expr", "sym^2801(D1)"), 0.07),
    (("euler", "--expr", "sym^1501(D1) + sym^1201(D2)"), 0.07),
]

# Measured rows that the model admits though they ran past the limit: one
# record of each, (2,2,4,10) I = {1,4} in Chow degree 13 a 133 x 116
# matrix with 4-bit entries, drives the entries of
# intlinalg.smith_normal_form from 76 to 12991 bits in two rounds.  No
# count of the shape sees that growth; the other records of these shapes
# take milliseconds.
SMITH_BLOWUPS = [
    (("annihilator", "--shape", "2,2,4,10", "--block", "1"), 70.08),  # stopped
    (("annihilator", "--shape", "2,2,4,12", "--block", "1"), 70.06),  # stopped
    (("annihilator", "--shape", "2,2,6,8", "--block", "1"), 70.1),  # stopped
    (("annihilator", "--shape", "2,2,2,2,8", "--block", "1"), 70.09),  # stopped
    (("poincare", "--theory", "w", "--shape", "2,2,4,10", "--twist", "1,4"),
     70.09),  # stopped
]


def predicted(argv) -> int:
    """cli.predict_ms of a command line, parsed as the CLI parses it."""
    args = cli.parse_args(list(argv))
    if args.command == "euler":
        return cli.predict_ms(args, charclass.parse_bundle(args.expr))
    shape = cli.parse_shape(args.shape)
    return cli.predict_ms(args, shape, cli.parse_twist(getattr(args, "twist", "0"),
                                                       shape.m))


def test_each_prediction_matches_its_measured_row():
    limit = cli.COST_LIMIT_MS / 1000
    for argv, seconds in ROWS:
        ms = predicted(argv)
        if seconds > limit:
            assert ms > cli.COST_LIMIT_MS, (argv, ms)
        elif seconds >= 1:
            assert seconds / 4 <= ms / 1000 <= 4 * seconds, (argv, ms, seconds)


@pytest.mark.xfail(strict=True, reason="the Smith form's entries explode on "
                   "one record of each row, which no count of the shape reads")
def test_no_row_where_the_smith_form_explodes_is_admitted():
    for argv, seconds in SMITH_BLOWUPS:
        assert seconds > cli.COST_LIMIT_MS / 1000
        assert predicted(argv) > cli.COST_LIMIT_MS, argv


def test_the_table_covers_every_family():
    argvs = {argv for argv, _ in ROWS}
    assert len(ROWS) == len(argvs) >= 15
    for argv in [
        ("annihilator", "--shape", "2,2,2,2,2", "--block", "1"),
        ("annihilator", "--shape", "2,2,2,2,2,2", "--block", "1"),
        ("poincare", "--theory", "chow", "--shape", "400,400"),
        ("euler", "--expr", "sym^11(D1)*sym^11(D2)"),
        ("euler", "--expr", "sym^13(D1)*sym^13(D2)"),
    ] + [("poincare", "--theory", "w", "--shape", shape) for shape in (
            "6,6,12", "2,6,6,6", "2,2,2,2,4,4", "2,2,2,2,2,2,2,1", "2,20000", FL(40))]:
        assert argv in argvs, argv


def test_rank_floor_is_exact_on_the_admitted_chow_rows():
    # the chow|ch2 check sums the series against rank_floor
    for argv, _ in ROWS:
        if argv[:2] == ("poincare", "--theory") and argv[2] in ("chow", "ch2") \
                and predicted(argv) <= cli.COST_LIMIT_MS:
            shape = cli.parse_shape(argv[-1])
            exact = math.prod(math.comb(stop, stop - start)
                              for start, stop in shape.spans)
            assert cli.rank_floor(shape) == exact, argv


def admitted_argvs():
    """Every composition of N <= 8 under every command that has a cost, and
    every golden, pinned, verify and benchmark command."""
    for N in range(1, 9):
        for parts in compositions(N):
            shape = ",".join(map(str, parts))
            for theory in ("chow", "ch2"):
                yield ("poincare", "--theory", theory, "--shape", shape)
            for twist in flagchow.all_twist_classes(len(parts)):
                yield ("poincare", "--theory", "w", "--shape", shape, "--twist",
                       str(twist))
                yield ("wring", "--shape", shape, "--degree-max", "100",
                       "--twist", str(twist))
            for block, d in enumerate(parts, start=1):
                if d % 2 == 0:
                    yield ("annihilator", "--shape", shape, "--block", str(block))
    for *argv, _ in GOLDEN_COMMANDS:
        yield tuple(argv)
    for argv, code, *_ in PINNED_OUTPUT:
        if code == 0:
            yield argv
    # the benchmark's jobs and the torsion oracle's W and Chow series
    for shape, block in [("2,2,2,2,2", 1), ("4,4,4", 1), ("2,6,4", 2)]:
        yield ("annihilator", "--shape", shape, "--block", str(block))
    for shape in ("3,3,1", "1,1,1,1,2", "1,1,2,2"):
        for theory in ("chow", "w"):
            yield ("poincare", "--theory", theory, "--shape", shape)


def test_every_small_and_used_command_is_admitted():
    # count, verify and poincare --theory torsion have no cost model
    costed = [argv for argv in admitted_argvs()
              if argv[0] in ("annihilator", "wring", "euler")
              or argv[0] == "poincare" and argv[2] != "torsion"]
    assert len(costed) > 7000
    for argv in costed:
        assert predicted(argv) <= cli.COST_LIMIT_MS, argv


# each exits 1 at once, with one line naming the prediction and the limit
REFUSED_AT_ONCE = [
    ("poincare", "--theory", "w", "--shape", "2,60000"),
    ("poincare", "--theory", "w", "--shape", FL(44)),
    ("poincare", "--theory", "chow", "--shape", "1000,1000"),
    ("poincare", "--theory", "chow", "--shape", "400000,400000"),
    ("annihilator", "--shape", "4,4,4,4", "--block", "1"),
]


@pytest.mark.parametrize("argv", REFUSED_AT_ONCE)
def test_a_long_run_is_refused_at_once(argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "flagcw", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert time.perf_counter() - start < 0.5, argv
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    name = argv[0] if argv[0] != "poincare" else f"poincare --theory {argv[2]}"
    shape = argv[argv.index("--shape") + 1]
    shown = cli.above(predicted(argv), cli.COST_LIMIT_MS)
    assert line == (f"error: {name} of shape {shape} is predicted to take "
                    f"{shown} ms, above the limit {cli.COST_LIMIT_MS} ms")


# admitted runs with one long block, each well under a second.  After a
# long last block a rule is a determinant in the Chern classes of that
# block alone; after a long first block it has s_1 + 1 rows, but its
# entries h_k vanish past the rank of the short blocks, so it is banded
LONG_BLOCK = [
    ("annihilator", "--shape", "2,160", "--block", "1"),
    ("poincare", "--theory", "torsion", "--shape", "1,200"),
    ("poincare", "--theory", "torsion", "--shape", "31,2"),
    ("poincare", "--theory", "torsion", "--shape", "21,1,1"),
]


@pytest.mark.parametrize("argv", LONG_BLOCK)
def test_an_admitted_long_block_finishes(argv):
    proc = subprocess.run([sys.executable, "-m", "flagcw", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr


def test_smith_cells_count_the_copies_of_the_smith_form():
    # the working block of an a x b matrix loses a row and a column a round
    for a in range(6):
        for b in range(6):
            copies = sum((a - t) * (b - t) for t in range(min(a, b)))
            assert cli.smith_cells(a, b) == copies, (a, b)


def test_series_steps_count_the_tower_factors():
    # (2,2,4): dim 20, and blocks 2 and 3 multiply in min(2, 2) and min(4, 4)
    # factors
    shape = FlagShape([2, 2, 4])
    assert shape.dim == 20 and cli.series_steps(shape) == 20 * (0 + 2 + 4)


def test_records_read_are_the_subsets_of_the_twist():
    # I and its complement share a twist class; annihilator reads every I
    for N in range(2, 9, 2):
        for parts in compositions(N):
            if any(d % 2 for d in parts):
                continue
            shape = FlagShape(parts)
            even = [i for i, d in enumerate(parts, start=1) if d % 2 == 0]
            subsets = [set(I) for r in range(len(even) + 1)
                       for I in combinations(even, r)]

            def by_k(chosen):
                ks = {}
                for I in chosen:
                    k = sum(parts[i - 1] // 2 for i in even if i not in I)
                    ks[k] = ks.get(k, 0) + 1
                return ks

            got = {k: c for k, c in cli.records_read(shape).items() if c}
            assert got == by_k(subsets), parts
            for twist in flagchow.all_twist_classes(shape.m):
                assert cli.records_read(shape, twist) == by_k(
                    [I for I in subsets
                     if TwistClass.from_blocks(shape.m, I) == twist]), (parts, twist)
