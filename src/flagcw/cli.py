"""Command-line front end: poincare, wring, annihilator, euler, count, verify.

Output is deterministic; ``--format json`` emits one object with the
schema {"command", "input", "result", "checks": [{"name", "status"}]}.
Exit codes: 0 success, 1 validation error, 2 verification failure.
One function, ``respond``, builds every payload and picks the exit code
of every answer; ``count`` prints its JSON object in either format, with
the checks that ``counts.count_preset`` returns beside its result.

Every run is a fresh interpreter, so each command pays for its imports
and its parser.  The command line is one table, ``OPTIONS``, read by a
loop over argv, since argparse, with the gettext and locale it loads,
would cost about 5 ms a run.  At module level this module imports json, math, os,
sys, types and the flagcw modules every command reads; charclass,
counts and steenrod (with gf2) are imported by the commands that use
them.  tests/test_import_footprint.py checks that neither this module
nor the package loads dataclasses, inspect, ast, dis, tokenize, typing,
argparse, gettext or locale, and that ``annihilator`` loads none of the
four command modules.

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
fails; with PYTHONUNBUFFERED or -u, or an answer larger than the
buffer, ``print`` fails inside ``respond`` instead, which raises
``OutputError``, and ``main`` ends that the same way.

``run`` is the library entry point and never exits the interpreter: it
returns the exit code, and an exception it raises propagates (from
``main`` too, with its traceback and a normal exit).  Tests, in-process
callers and tracing harnesses call ``run``; tests/test_hard_exit.py
checks that ``os._exit`` is called only in ``main``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

from . import flagchow, series, wdring
from .flagchow import FlagShape, TwistClass, all_twist_classes


# The command line: command -> option -> (type, allowed values, default),
# and under None the options that go before the command.  An option with
# no default is required.
OPTIONS = {
    None: {"--format": (str, ("text", "json"), "text")},
    "poincare": {
        "--shape": (str, None, None),
        "--theory": (str, ("chow", "ch2", "w", "torsion"), None),
        "--twist": (str, None, "0"),
    },
    "wring": {
        "--shape": (str, None, None),
        "--degree-max": (int, None, None),
        "--twist": (str, None, "0"),
    },
    "annihilator": {"--shape": (str, None, None), "--block": (int, None, None)},
    "euler": {"--expr": (str, None, None), "--roots": (int, None, 2)},
    "count": {
        "--preset": (str, ("cubic-lines", "quintic-4planes", "flag-3-5"), None),
    },
    "verify": {
        "--suite": (str, ("piqp", "annihilator", "sq2", "poincare"), None),
    },
}
COMMANDS = tuple(name for name in OPTIONS if name)


# Sq^2 torsion works on the N!/prod d_i! standard monomials of the Chow
# ring, and its time depends on the orientation of the tower, which no
# count of the shape reads: in-process on a 2-core VM, (3,3,6) takes 1.1 s
# and (6,3,3) 0.1 s, (3,3,3,2) 22 s and (2,3,3,3) 3.2 s, (5,5,2) 1.04 s
# and (2,5,5) 0.21 s.  So it keeps a limit on the rank until the tower is
# oriented.  CLI runs: 16632 (5,5,2) in 1.1-1.5 s, 16800 (3,3,3,1) in 1.6
# s, 34650 (4,4,4) in 0.2 s; in-process, 113400 (2,2,2,2,2) in 0.6 s.
# (6,6,2), rank 84084, builds all 812 of its rules in 5.4 s in-process.
TORSION_RANK_LIMIT = 40000

# wring prints every degree up to --degree-max, about 5 us and 13 bytes
# each past the top degree.  Single CLI runs on a 2-core VM of wring
# --shape 2,2: 10^4 degrees in 0.10 s, 10^5 in 0.60 s, 10^6 in 5.2 s.
WRING_DEGREE_LIMIT = 10**5

# Every other long run is refused by one cost model before any ring is
# built: ``predict_ms`` prices counts read off the shape or the expression
# at rates in picoseconds, fitted once to the CLI runs on a 2-core VM that
# tests/test_cost_model.py holds.  W_D works on the half shape h, its Chow
# ring A, the records (I, Chow degree) of the subsets I of the even blocks
# E, and the exterior generators, #R = N // 2 - N_h of them.  No count sees
# a record whose Smith form entries explode, as on (2,2,4,10): the test's
# SMITH_BLOWUPS lists the admitted shapes that run past the limit so.
COST_LIMIT_MS = 60_000
PS_PER_COUNT = {
    "slot": 17_000_000,  # the slot table: 2^(|E| + #R) * (dim h + 1)
    "generator pair": 250_000,  # A's rules and products: N_h^2
    "monomial": 15_000_000,  # rank A per subset I whose records are read
    "cell": 11_000,  # smith_cells of each record read
    # annihilator's kernels and HNFs grow faster: cells * isqrt(cells)
    "annihilator cell^(3/2)": 12,
    "series step": 400_000,  # series_steps, of D or of h
    # euler's Cauchy-determinant checks, charclass.cauchy_minor_products;
    # with no tensor factor the e^2 = p_top check is a few products
    "minor product": 3_000_000,
}


class ValidationError(Exception):
    pass


class OutputError(Exception):
    """The answer could not be written: stdout is full or closed."""


# A refusal prints a value past twice the bits of its limit only as "at
# least 2^k" (see ``above``), and math.comb is slow on a large block: C(800000,
# 400000) takes 6.5 s and C(4000000, 2000000) 115 s in-process on a 2-core
# VM.  So rank_floor takes the Chow rank exactly only while a bound on its
# bits is at most RANK_EXACT_BITS; C(65536, 32768), the largest central
# binomial below it, takes 0.08 s.
RANK_EXACT_BITS = 2**17


def rank_floor(shape: FlagShape) -> int:
    """The Chow rank N! / prod d_i! = prod_i C(s_i, d_i) while a bound on its
    bits is at most RANK_EXACT_BITS; past that, a power of 2 at or below it
    with more than RANK_EXACT_BITS // 4 bits, far above every limit.

    With j = min(d_i, s_i - d_i) > 0 and q = s_i // j >= 2, (s_i / j)^j <=
    C(s_i, d_i) <= (e s_i / j)^j, so the block's binomial has between
    j * (q.bit_length() - 1) and j * (q.bit_length() + 2) bits."""
    blocks = [(stop, j) for start, stop in shape.spans
              if (j := min(start, stop - start))]
    bits = [(j, (s // j).bit_length()) for s, j in blocks]
    if sum(j * (b + 2) for j, b in bits) <= RANK_EXACT_BITS:
        return math.prod(math.comb(s, j) for s, j in blocks)
    return 1 << sum(j * (b - 1) for j, b in bits)


def above(value: int, limit: int) -> str:
    """A value above limit as a refusal prints it: in full, or past twice
    the bits of the limit as the power of 2 below it, which is still above
    the limit and short enough to print."""
    k = value.bit_length() - 1
    return str(value) if k < 2 * limit.bit_length() else f"at least 2^{k}"


def smith_cells(a: int, b: int) -> int:
    """sum_t (a - t)(b - t) over t < min(a, b): the cells that
    intlinalg.smith_normal_form copies on an a x b matrix of full rank, one
    working block a round."""
    a, b = sorted((a, b))
    return a * (a + 1) * (2 * a + 1) // 6 + (b - a) * a * (a + 1) // 2


def series_steps(shape: FlagShape) -> int:
    """dim Fl(D) * sum_i min(d_i, s_{i-1}): flagchow.chow_poincare
    multiplies in that many factors, each over at most dim + 1
    coefficients."""
    return shape.dim * sum(min(start, stop - start) for start, stop in shape.spans)


def records_read(shape: FlagShape, twist: TwistClass | None = None) -> dict:
    """The subsets I of the even blocks whose records (I, Chow degree) a
    W_D command reads, counted by k, the Chow degree of p_{I^c}: every I
    for twist None, as ``wdring.ann_euler`` reads them, else the two I of
    the twist, as ``wd_poincare`` and ``wd_basis`` read them."""
    h = {i: d // 2 for i, d in enumerate(shape.d, start=1) if d % 2 == 0}
    if twist is None:
        ks = [1]
        for k in h.values():
            ks = series.mul(ks, series.add([1], series.shift([1], k)))
        return dict(enumerate(ks))
    ks = {}
    T = {i for i, bit in enumerate(twist.bits, start=1) if bit}
    for I in (T, set(range(1, shape.m + 1)) - T):
        if I <= h.keys():
            k = sum(h.values()) - sum(h[i] for i in I)
            ks[k] = ks.get(k, 0) + 1
    return ks


def smith_cells_read(shape: FlagShape, ks: dict, degree_max=None) -> int:
    """smith_cells summed over the records of an all-even shape that the
    subsets ks of ``records_read`` have, up to W_D degree degree_max; read
    off the half shape's Poincare series.  I = {}, with k = N_h, takes no
    Smith form."""
    half = wdring.half_shape(shape)
    r, cells = flagchow.chow_poincare(half), 0
    for k, c in ks.items():
        top = half.dim
        if degree_max is not None:  # slot degree 2 (N_h - k) + 4 d
            top = min(top, (degree_max - 2 * (half.N - k)) // 4)
        if k < half.N:
            cells += c * sum(smith_cells(r[d], r[d - k])
                             for d in range(k, top + 1))
    return cells


def work(args, subject, twist=None):
    """(rate name, count) for each part of a command's work; the counts
    that read the half shape's Poincare series come last."""
    if args.command == "euler":
        from . import charclass

        yield "minor product", charclass.cauchy_minor_products(
            subject, args.roots, COST_LIMIT_MS * 10**9 // PS_PER_COUNT["minor product"])
        return
    if args.command == "poincare" and args.theory != "w":
        yield "series step", series_steps(subject)
        return
    shape, half = subject, wdring.half_shape(subject)
    even = sum(1 for d in shape.d if d % 2 == 0)
    yield "slot", 2 ** (even + shape.N // 2 - half.N) * (half.dim + 1)
    yield "generator pair", half.N**2
    yield "series step", series_steps(half)
    annihilator = args.command == "annihilator"
    ks = records_read(shape, None if annihilator else twist)
    yield "monomial", sum(ks.values()) * rank_floor(half)
    if even < shape.m:
        return  # mixed and all-odd shapes take no quotient
    cells = smith_cells_read(
        shape, ks, args.degree_max if args.command == "wring" else None)
    if annihilator:
        yield "annihilator cell^(3/2)", cells * math.isqrt(cells)
    else:
        yield "cell", cells


def predict_ms(args, subject, twist=None) -> int:
    """The predicted run time in milliseconds, rounded up, of ``work`` on
    subject (a shape, or euler's bundle expression) and twist (read by
    wring and poincare --theory w) at PS_PER_COUNT.  The sum stops at the
    first part past COST_LIMIT_MS: a refusal reads no more than it needs."""
    ps = 0
    for name, count in work(args, subject, twist):
        ps += count * PS_PER_COUNT[name]
        if ps > COST_LIMIT_MS * 10**9:
            break
    return -(-ps // 10**9)


def check_cost(args, subject, twist=None) -> None:
    """Refuse a command whose predicted run time is above COST_LIMIT_MS."""
    ms = predict_ms(args, subject, twist)
    if ms > COST_LIMIT_MS:
        name = args.command + (f" --theory {args.theory}"
                               if args.command == "poincare" else "")
        what = f"shape {subject}" if isinstance(subject, FlagShape) else repr(args.expr)
        raise ValidationError(f"{name} of {what} is predicted to take "
                              f"{above(ms, COST_LIMIT_MS)} ms, above the limit "
                              f"{COST_LIMIT_MS} ms")


def chi_check(shape: FlagShape, ranks) -> tuple:
    """sum_d (-1)^d rank W^d against chi of the real flag manifold."""
    chi = wdring.real_euler_characteristic(shape)
    return (f"sum_d (-1)^d w_d = chi(Fl_R(D)) = prod_i chi(Gr_R(d_i, s_i)) "
            f"= {chi}", sum((-1) ** d * r for d, r in enumerate(ranks)) == chi)


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


def build_parser() -> dict:
    """The option table that parse_args reads."""
    return OPTIONS


def parse_args(argv) -> SimpleNamespace | None:
    """argv read against OPTIONS: [--format text|json] COMMAND --opt value
    ... (or --opt=value).  None if it asks for -h or --help; else the
    command, and every option of the line under its name without the
    dashes, '-' read as '_', its default where it is not given.

    An option is named in full, and the token after it is its value, even
    one starting with '-'.  A malformed line raises ValidationError."""
    command, values = None, {}
    table = OPTIONS[None]
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            if command is not None:
                raise ValidationError(f"unexpected argument {token!r}")
            if token not in COMMANDS:
                raise ValidationError(f"unknown command {token!r}; "
                                      f"choose from {', '.join(COMMANDS)}")
            command, table = token, OPTIONS[token]
            continue
        name, eq, value = token.partition("=")
        if name not in table:
            scope = (f"{command} takes" if command
                     else "the options before the command are")
            raise ValidationError(f"unknown option {name!r}; "
                                  f"{scope} {', '.join(table)}")
        if not eq and (value := next(tokens, None)) is None:
            raise ValidationError(f"{name} needs a value")
        kind, allowed, _ = table[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValidationError(
                    f"{name} needs an integer, not {value!r}") from None
        elif allowed and value not in allowed:
            raise ValidationError(
                f"{name} must be one of {', '.join(allowed)}, not {value!r}")
        values[name] = value
    if command is None:
        raise ValidationError(f"no command; choose from {', '.join(COMMANDS)}")
    specs = {**OPTIONS[None], **OPTIONS[command]}
    missing = [name for name, (_, _, default) in specs.items()
               if default is None and name not in values]
    if missing:
        raise ValidationError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): values.get(name, default)
        for name, (_, _, default) in specs.items()})


def usage() -> str:
    """The -h/--help text, built from OPTIONS."""
    def forms(table):
        for name, (kind, allowed, default) in table.items():
            value = ("|".join(allowed) if allowed
                     else "N" if kind is int else name[2:].upper())
            yield f"{name} {value}" if default is None else f"[{name} {value}]"

    defaults = dict.fromkeys(
        f"{name} {default}" for table in OPTIONS.values()
        for name, (_, _, default) in table.items() if default is not None)
    return "\n".join([
        f"usage: flagcw {' '.join(forms(OPTIONS[None]))} COMMAND OPTION...",
        "",
        "Exact Chow, mod-2 Chow and Witt-sheaf cohomology of type-A partial",
        "flag varieties.",
        "",
        "commands:",
        *(f"  {' '.join((command, *forms(OPTIONS[command])))}"
          for command in COMMANDS),
        "",
        f"Bracketed options default to {', '.join(defaults)}.",
        "A value may also follow its option after '=', as in --shape=2,2.",
    ])


def write(lines) -> None:
    """Print lines on stdout; a failed write raises OutputError."""
    try:
        for line in lines:
            print(line)
    except OSError as exc:
        raise OutputError(exc) from exc


def respond(args, inputs: dict, result: dict, checks, lines=None) -> int:
    """Print a command's answer; return 2 if one of its checks fails, else 0.

    checks are (statement, holds) pairs.  The payload is printed as JSON
    under --format json, and always when no text lines are given (count).
    """
    checks = [{"name": n, "status": "pass" if ok else "fail"} for n, ok in checks]
    payload = {"command": args.command, "input": inputs, "result": result,
               "checks": checks}
    if args.format == "json" or lines is None:
        lines = [json.dumps(payload, sort_keys=True)]
    write(lines)
    return 2 if any(c["status"] == "fail" for c in checks) else 0


def cmd_poincare(args) -> int:
    from . import steenrod

    shape = parse_shape(args.shape)
    twist = parse_twist(args.twist, shape.m)
    checks = []
    sq2_route = args.theory == "torsion" and not shape.is_full_flag()
    if sq2_route and (rank := rank_floor(shape)) > TORSION_RANK_LIMIT:
        raise ValidationError(
            f"shape {shape} has Chow rank {above(rank, TORSION_RANK_LIMIT)}, "
            f"above the limit {TORSION_RANK_LIMIT} for Sq^2 torsion"
        )
    if args.theory != "torsion":
        check_cost(args, shape, twist)
    if args.theory == "chow" or args.theory == "ch2":
        poly = flagchow.chow_poincare(shape)
        # exact on every shape that the cost model admits
        cells = rank_floor(shape)
        checks = [(f"coefficients sum to the multinomial N!/prod d_i! = {cells}",
                   sum(poly) == cells)]
    elif args.theory == "w":
        poly = wdring.wd_poincare(shape, twist)
        if shape.is_full_flag() and twist.is_trivial():
            checks = [("slot-table series = closed form P_0(Fl(N))",
                       poly == steenrod.w_poincare_closed(shape.N))]
        checks.append(chi_check(shape, poly))
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
    if args.degree_max > WRING_DEGREE_LIMIT:
        raise ValidationError(f"--degree-max {args.degree_max} is above the "
                              f"limit {WRING_DEGREE_LIMIT}")
    check_cost(args, shape, twist)
    pres = wdring.build_sigma(shape)
    degrees = {}
    lines = []
    for d in range(args.degree_max + 1):
        labels = wdring.wd_basis(shape, d, twist)
        degrees[str(d)] = labels
        lines.append(f"degree {d}: rank {len(labels)}" + (
            "  " + ", ".join(labels) if labels else ""
        ))
    # a partial sum of the ranks is not chi
    checks = ([chi_check(shape, map(len, degrees.values()))]
              if args.degree_max >= pres.max_degree() else [])
    inputs = {"shape": str(shape), "degree_max": args.degree_max, "twist": str(twist)}
    result = {"basis": degrees, "parity": pres.parity}
    return respond(args, inputs, result, checks, lines)


def cmd_annihilator(args) -> int:
    shape = parse_shape(args.shape)
    try:
        wdring.check_even_block(shape, args.block)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    check_cost(args, shape)
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
    from . import charclass

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
        check_cost(args, expr)  # before any atom or coefficient is built
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
                   charclass.euler_checks(expr, args.roots, euler),
                   [f"rank: {rank}", f"euler: {euler}"])


def cmd_count(args) -> int:
    from . import counts

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
        from . import steenrod

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
        from . import steenrod

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
    handlers = {
        "poincare": cmd_poincare,
        "wring": cmd_wring,
        "annihilator": cmd_annihilator,
        "euler": cmd_euler,
        "count": cmd_count,
        "verify": cmd_verify,
    }
    try:
        args = parse_args(argv)
        if args is None:
            write([usage()])
            return 0
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """Run the command line, flush, and end the process without teardown."""
    try:
        code = run(sys.argv[1:])
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise OutputError(exc) from exc
    except OutputError as exc:
        code = 1
        print(f"error: cannot write output: {exc}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
