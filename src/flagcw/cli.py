"""Command-line front end: poincare, wring, annihilator, euler, count, verify.

Output is deterministic; ``--format json`` emits one object with the
schema {"command", "input", "result", "checks": [{"name", "status"}]}.
Exit codes: 0 success, 1 validation error, 2 verification failure.
One function, ``respond``, builds every payload and picks the exit code
of every answer; ``count`` prints its JSON object in either format, with
the checks that ``counts.count_preset`` returns beside its result.

Every run is a fresh interpreter, so each command pays for its imports.
This module imports only argparse, json, math, os, sys and the flagcw
modules; tests/test_import_footprint.py checks that neither it nor the
package loads dataclasses, inspect, ast, dis, tokenize or typing.

It also pays for its exit.  Once ``run`` has returned, a normal exit
tears down every module and the reducer memos, after the answer is
already printed.  From the flushed answer to the exit seen by the
parent, medians of 7 runs on a 2-core VM: 11.7 ms for ``count --preset
flag-3-5``, 12.3 ms for ``verify --suite piqp`` and 19.3 ms for
``annihilator --shape 2,2,2,2,2 --block 1``, against 1.1-1.7 ms with
``os._exit``; that is 10-20% of a benchmark job.  So ``main`` flushes
stdout and stderr and ends the process with ``os._exit``.  A flush that
fails (a full disk, a closed pipe) is an error: exit code 1 and one
``error: cannot write output`` line on stderr.  The outputs fit in the
8 KiB buffer of a redirected stdout, so the final flush is where a write
fails; with PYTHONUNBUFFERED or -u, ``print`` raises inside ``run``
instead.

``run`` is the library entry point and never exits the interpreter: it
returns the exit code, and an exception it raises propagates (from
``main`` too, with its traceback and a normal exit).  Tests, in-process
callers and tracing harnesses call ``run``; tests/test_hard_exit.py
checks that ``os._exit`` is called only in ``main``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import charclass, counts, flagchow, series, steenrod, wdring
from .flagchow import FlagShape, TwistClass, all_twist_classes


# Sq^2 torsion of a partial flag variety works on all multinomial(N; D)
# standard monomials of its Chow ring.  Single runs on a 2-core VM: rank
# 16632 (5,5,2) in 15 s and (2,5,5) in 2.3 s, 16800 (3,3,3,1) in 4.3-4.8 s,
# 34650 (4,4,4) in 0.3-0.4 s; in-process, 113400 (2,2,2,2,2) in 0.9 s and
# 92400 (3,3,3,2) in 116 s at 388 MB.  The rank is a coarse guide to the
# cost, and the limit admits (4,4,4) but not (3,3,3,2).
TORSION_RANK_LIMIT = 40000


# euler sums over the partitions in the Cauchy box of each distinct
# Sym^M (x) Sym^N factor, C(m + n, m) of them.  Single runs on a 2-core
# VM: sym^11(D1)*sym^11(D2) (924 partitions) in 1.7 s, sym^13 (3432) in
# 10.9 s; sym^15 (12870) had not ended after 60 s.
EULER_BOX_LIMIT = 3432


# ann_euler eliminates a kernel and an HNF per (degree, twist) slot.  Its
# components are the 2^|E| Euler subsets (E the even blocks) times A^d,
# A = CH^*(Fl(D/2)), so it is budgeted by 2^|E| * sum_d rank(A^d)^3.
# Single runs on a 2-core VM:
# (2,2,2,2,2) 1.1e6 in 0.13 s, (2,2,2,2,4) 1.9e7 in 0.9 s, (6,6,6) 1.6e8
# in 4.0 s, (2,2,2,2,2,2) 2.9e8 in 4.9 s; (4,4,4,4) 1.45e9 was killed
# after 120 s and (2,2,2,2,2,2,2) 1.3e11 had not ended after 490 s.
ANNIHILATOR_COST_LIMIT = 5 * 10**8


class ValidationError(Exception):
    pass


def multinomial(shape: FlagShape) -> int:
    """N! / prod d_i!, the rank of CH^*(Fl(D))."""
    out = math.factorial(shape.N)
    for d in shape.d:
        out //= math.factorial(d)
    return out


def annihilator_cost(shape: FlagShape) -> int:
    """2^|E| * sum_d rank(A^d)^3, the cost estimate of ``ann_euler``: E the
    even blocks, A the Chow ring of the half shape (d_i // 2 for d_i > 1)."""
    even = sum(1 for d in shape.d if d % 2 == 0)
    half = FlagShape(d // 2 for d in shape.d if d > 1)
    return 2**even * sum(r**3 for r in flagchow.chow_poincare(half))


def parse_shape(text: str) -> FlagShape:
    # int() refuses a non-integer part and FlagShape a zero or negative
    # one ("block 2 has size 0"); their message is quoted after the input
    try:
        return FlagShape(int(p) for p in text.strip().split(","))
    except ValueError as exc:
        raise ValidationError(f"malformed shape {text!r}: {exc}") from exc


def parse_twist(text: str, m: int) -> TwistClass:
    text = (text or "0").strip()
    if text == "0":
        return TwistClass.trivial(m)
    try:
        blocks = [int(tok) for tok in text.split(",")]
        return TwistClass.from_blocks(m, blocks)
    except ValueError as exc:
        raise ValidationError(f"malformed twist {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
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


def respond(args, inputs: dict, result: dict, checks, lines=None) -> int:
    """Print a command's answer; return 2 if one of its checks fails, else 0.

    checks are (statement, holds) pairs.  The payload is printed as JSON
    under --format json, and always when no text lines are given (count).
    """
    checks = [{"name": n, "status": "pass" if ok else "fail"} for n, ok in checks]
    payload = {"command": args.command, "input": inputs, "result": result,
               "checks": checks}
    if args.fmt == "json" or lines is None:
        lines = [json.dumps(payload, sort_keys=True)]
    for line in lines:
        print(line)
    return 2 if any(c["status"] == "fail" for c in checks) else 0


def cmd_poincare(args) -> int:
    shape = parse_shape(args.shape)
    twist = parse_twist(args.twist, shape.m)
    checks = []
    sq2_route = args.theory == "torsion" and not shape.is_full_flag()
    if sq2_route and multinomial(shape) > TORSION_RANK_LIMIT:
        raise ValidationError(
            f"shape {shape} has Chow rank {multinomial(shape)}, above the "
            f"limit {TORSION_RANK_LIMIT} for Sq^2 torsion"
        )
    if args.theory == "chow" or args.theory == "ch2":
        poly = flagchow.chow_poincare(shape)
        cells = multinomial(shape)
        checks = [(f"coefficients sum to the multinomial N!/prod d_i! = {cells}",
                   sum(poly) == cells)]
    elif args.theory == "w":
        poly = wdring.wd_poincare(shape, twist)
        if shape.is_full_flag() and twist.is_trivial():
            checks = [("slot-table series = closed form P_0(Fl(N))",
                       poly == steenrod.w_poincare_closed(shape.N))]
    elif sq2_route:
        poly = steenrod.torsion_poincare_from_sq2(shape, twist)
        # the Bockstein ranks reuse the cached Sq^2 ranks; W is cheap
        checks = [("Bockstein = W Poincare (P_d - T_{d+1} - T_d = W_d)",
                   steenrod.bockstein_cohomology_ranks(shape, twist)
                   == wdring.wd_poincare(shape, twist))]
    else:
        poly = steenrod.torsion_poincare_closed(shape.N, twist)
        # T = t * sum_d r_d t^d, r_d the rank of Sq^2 on Ch^d; the twist
        # v = c_1(T Fl(N)) mod 2 is trivial, so duality reads r_d = r_{dim-d-1}
        ranks = poly[1:] + [0] * (shape.dim + 1 - len(poly))
        checks = [("Sq^2 duality r_d = r_{dim-d-1} of the closed form",
                   all(ranks[d] == ranks[shape.dim - d - 1]
                       for d in range(shape.dim)))]
    text = series.to_string(poly)
    inputs = {"shape": str(shape), "theory": args.theory, "twist": str(twist)}
    return respond(args, inputs, {"coefficients": poly, "polynomial": text},
                   checks, [text])


def cmd_wring(args) -> int:
    shape = parse_shape(args.shape)
    twist = parse_twist(args.twist, shape.m)
    if args.degree_max < 0:
        raise ValidationError(f"--degree-max {args.degree_max} is negative")
    degrees = {}
    lines = []
    for d in range(args.degree_max + 1):
        labels = wdring.wd_basis(shape, d, twist)
        degrees[str(d)] = labels
        lines.append(f"degree {d}: rank {len(labels)}" + (
            "  " + ", ".join(labels) if labels else ""
        ))
    inputs = {"shape": str(shape), "degree_max": args.degree_max, "twist": str(twist)}
    result = {"basis": degrees, "parity": wdring.build_sigma(shape).parity}
    return respond(args, inputs, result, [], lines)


def cmd_annihilator(args) -> int:
    shape = parse_shape(args.shape)
    try:
        wdring.check_even_block(shape, args.block)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    cost = annihilator_cost(shape)
    if cost > ANNIHILATOR_COST_LIMIT:
        raise ValidationError(
            f"annihilator of shape {shape} has cost estimate {cost} "
            f"(2^|E| * sum_d rank(A^d)^3), above the limit "
            f"{ANNIHILATOR_COST_LIMIT}"
        )
    x, report = wdring.ann_euler(shape, args.block)
    return respond(
        args,
        {"shape": str(shape), "block": args.block},
        {"generator": repr(x), "report": report},
        [(report["statement"], report["status"] == "pass")],
        [f"Ann(e_{args.block}) = ({x!r})",
         f"verified degrees: {report['degrees_checked']}",
         f"status: {report['status']}"],
    )


def cmd_euler(args) -> int:
    try:
        expr = charclass.parse_bundle(args.expr)
    except charclass.BundleGrammarError as exc:
        raise ValidationError(
            f"malformed bundle expression at position {exc.position}: {exc}"
        ) from exc
    if not 1 <= args.roots <= len(charclass.ROOT_NAMES):
        raise ValidationError(
            f"--roots {args.roots} out of range 1..{len(charclass.ROOT_NAMES)}"
        )
    # str() of an int longer than the interpreter's digit limit raises;
    # interpreters before 3.10.7 have no limit, read as 0
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bound = 10 ** digits if digits else 0
    euler = None
    try:
        # both budgets are read before the atoms or coefficients they bound
        # are built
        boxes, exact = charclass.cauchy_box_total(expr, args.roots, EULER_BOX_LIMIT)
        if boxes > EULER_BOX_LIMIT:
            raise ValidationError(
                f"expression sums over {'' if exact else 'more than '}{boxes} "
                f"partitions in its Cauchy boxes, above the limit {EULER_BOX_LIMIT}"
            )
        rank = charclass.bundle_rank(expr, args.roots)
        if not bound or charclass.euler_coefficient_floor(
                expr, args.roots, bound) < bound:
            euler = charclass.euler_of_expression(expr, args.roots)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if euler is None or (bound and any(abs(c) >= bound for c in euler.terms.values())):
        raise ValidationError(
            f"the Euler class has a coefficient of more than {digits} "
            "digits, above the interpreter's limit for printing an integer"
        )
    return respond(args, {"expr": args.expr, "roots": args.roots},
                   {"rank": rank, "euler": str(euler)},
                   charclass.euler_checks(expr, args.roots),
                   [f"rank: {rank}", f"euler: {euler}"])


def cmd_count(args) -> int:
    result, checks = counts.count_preset(args.preset)
    return respond(args, {"preset": args.preset}, result, checks)


def suite_report(shape, statement: str, degrees: int, holds: bool) -> dict:
    """A verify report over the degrees 0..degrees-1."""
    return {
        "shape": str(shape),
        "statement": statement,
        "degrees_checked": list(range(degrees)),
        "status": "pass" if holds else "fail",
    }


def cmd_verify(args) -> int:
    reports = []
    if args.suite == "piqp":
        for N in range(2, 6):
            for i in range(2, N + 1):
                for j in range(1, i):
                    rep = flagchow.verify_piqp_fln(N, i, j)
                    rep["statement"] = f"Fl({N}): " + rep["statement"]
                    reports.append(rep)
    elif args.suite == "annihilator":
        for parts in [(2, 2), (1, 2), (2, 4), (1, 2, 2), (2, 2, 2), (1, 4)]:
            shape = FlagShape(parts)
            _, rep = wdring.ann_euler(shape, wdring.build_sigma(shape).E[-1])
            reports.append(rep)
        for parts in [(1, 1), (1, 2), (2, 2), (1, 1, 2)]:
            _, rep = flagchow.ann_top_chern(FlagShape(parts))
            reports.append(rep)
    elif args.suite == "sq2":
        for N in range(3, 6):
            shape = FlagShape([1] * N)
            for twist in all_twist_classes(N):
                closed = steenrod.torsion_poincare_closed(N, twist)
                computed = steenrod.torsion_poincare_from_sq2(shape, twist)
                bock = steenrod.bockstein_cohomology_ranks(shape, twist)
                wd = wdring.wd_poincare(shape, twist)
                reports.append(suite_report(
                    shape, f"Sq^2 torsion/Bockstein vs closed forms, twist {twist}",
                    len(computed), closed == computed and bock == wd,
                ))
    else:  # poincare
        expectations = [
            ((1, 1, 1), "chow", [1, 2, 2, 1]),
            ((1, 1, 1, 1), "chow", [1, 3, 5, 6, 5, 3, 1]),
            ((1, 1, 1), "torsion", [0, 0, 2]),
            ((1, 1, 1, 1), "torsion", [0, 0, 3, 2, 2, 3]),
        ]
        for parts, theory, expected in expectations:
            shape = FlagShape(parts)
            twist = TwistClass.trivial(shape.m)
            got = (flagchow.chow_poincare(shape) if theory == "chow"
                   else steenrod.torsion_poincare_closed(shape.N, twist))
            reports.append(suite_report(
                shape, f"{theory} Poincare polynomial regression",
                len(expected), got == expected,
            ))
    checks = [(f"{rep['shape']}: {rep['statement']}", rep["status"] == "pass")
              for rep in reports]
    return respond(args, {"suite": args.suite}, {"reports": reports}, checks,
                   [json.dumps(rep, sort_keys=True) for rep in reports])


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "poincare": cmd_poincare,
        "wring": cmd_wring,
        "annihilator": cmd_annihilator,
        "euler": cmd_euler,
        "count": cmd_count,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """Run the command line, flush, and end the process without teardown."""
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = 1
        print(f"error: cannot write output: {exc}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
