"""Run one benchmark job in this interpreter.

    python3 bench/child.py sq2-torsion-fl6 TWIST
    python3 bench/child.py --trace OUT.json cli ARGS...
    python3 bench/child.py --trace OUT.json sq2-torsion-fl6 TWIST

``sq2-torsion-fl6`` is the library call the CLI has no path to: the
torsion Poincare polynomial of Fl(6) computed from Sq^2 ranks (the CLI
prints the closed form for complete flags).  ``cli`` runs ``flagcw.cli``
in-process, so that ``--trace`` can wrap the layers first and write their
per-boundary totals to OUT.json.  The output is the CLI's JSON payload.
"""

from __future__ import annotations

import json
import sys


def sq2_torsion_fl6(args) -> int:
    from flagcw import steenrod
    from flagcw.flagchow import FlagShape
    from flagcw.wdring import TwistClass

    (text,) = args
    blocks = [] if text == "0" else [int(b) for b in text.split(",")]
    twist = TwistClass.from_blocks(6, blocks)
    shape = FlagShape([1] * 6)
    coefficients = steenrod.torsion_poincare_from_sq2(shape, twist)
    payload = {
        "command": "sq2-torsion",
        "input": {"shape": str(shape), "twist": str(twist)},
        "result": {"coefficients": coefficients},
        "checks": [],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cli(args) -> int:
    from flagcw.cli import run

    return run(args)


JOBS = {"cli": cli, "sq2-torsion-fl6": sq2_torsion_fl6}


def main(argv) -> int:
    trace_out = tracer = None
    if argv[:1] == ["--trace"]:
        from tracer import Tracer

        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    code = JOBS[argv[0]](argv[1:])
    if tracer is not None:
        with open(trace_out, "w") as fh:
            json.dump({"totals": tracer.totals}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
