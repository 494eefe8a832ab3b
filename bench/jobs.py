"""The benchmark's workloads: fixed job lists, the seed draw, and each job's answer oracle.

A job is one ``flagcw`` CLI command, or one public library call (run by
``child.py``) where the CLI has no path to it.  Every job is checked by an
oracle held here: a known value, a second route, or an identity between
results of extra CLI calls that run outside the timed region.  Jobs that do
not depend on the seed also carry the sha256 of their canonical ``result``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

CLI = ("-m", "flagcw.cli", "--format", "json")
CHILD = str(Path(__file__).with_name("child.py"))
FL6 = "1,1,1,1,1,1"

QUINTIC_FOURPLANES = 64127725294951805931404297113125
FLAGS_COMPLEX = 1731448582963698760147916022054375


@dataclass(frozen=True)
class Job:
    """One command a user would run, and how its answer is checked.

    ``argv`` follows the interpreter.  ``expect`` maps result fields to the
    exact values they must have; ``check(payload, oracle)`` returns a list
    of problems found by a second route.  ``sha256`` is the recorded answer
    hash, or None for seed-drawn jobs, which are checked by ``check`` alone.
    """

    name: str
    argv: tuple
    expect: dict = field(default_factory=dict)
    check: Callable | None = None
    sha256: str | None = None


def answer_hash(result: dict) -> str:
    """sha256 of the canonical JSON of a result, free-text notes left out."""
    body = {k: v for k, v in result.items() if k != "notes"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Oracle:
    """Untimed extra CLI calls that second routes compare against, memoized."""

    def __init__(self, call: Callable[[tuple], dict]):
        self._call = call
        self._memo = {}

    def poincare(self, theory: str, shape: str, twist: str = "0") -> list:
        key = (theory, shape, twist)
        if key not in self._memo:
            argv = CLI + ("poincare", "--theory", theory, "--shape", shape,
                          "--twist", twist)
            self._memo[key] = self._call(argv)["result"]["coefficients"]
        return self._memo[key]


# -- second routes ---------------------------------------------------------


def _count_flags(payload, oracle):
    r = payload["result"]
    cplx = r["complex"]
    problems = []
    if r["complex_routes"] != {"a": cplx, "b": cplx}:
        problems.append(f"complex routes differ: {r['complex_routes']}")
    for key in ("real_primary", "real_diagnostic"):
        real = r[key]
        if abs(real) > cplx or (cplx - real) % 2:
            problems.append(f"{key}={real} violates |real| <= complex, "
                            "real = complex mod 2")
    return problems


def _torsion_partial(shape: str):
    """P_d - T_{d+1} - T_d = W_d: Bockstein cohomology equals W cohomology."""

    def check(payload, oracle):
        tor = payload["result"]["coefficients"]
        chow = oracle.poincare("chow", shape)
        w = oracle.poincare("w", shape)
        n = max(len(chow), len(tor), len(w)) + 1

        def at(p, d):
            return p[d] if 0 <= d < len(p) else 0

        bad = [d for d in range(n)
               if at(chow, d) - at(tor, d + 1) - at(tor, d) != at(w, d)]
        return [f"P_d - T_(d+1) - T_d != W_d at degrees {bad}"] if bad else []

    return check


def _torsion_fl6(twist: str):
    """Sq^2 ranks on Fl(6) against the closed form the CLI prints for Fl(N)."""

    def check(payload, oracle):
        got = payload["result"]["coefficients"]
        closed = oracle.poincare("torsion", FL6, twist)
        return [] if got == closed else [f"{got} != closed form {closed}"]

    return check


def _all_checks_pass(payload, oracle):
    checks = payload["checks"]
    if not checks:
        return ["no checks reported"]
    return [f"check failed: {c['name']}" for c in checks if c["status"] != "pass"]


# -- workloads -------------------------------------------------------------


def _count(preset, expect, check=None):
    return Job(f"count {preset}", CLI + ("count", "--preset", preset),
               expect, check)


def _torsion(shape):
    return Job(f"torsion {shape}",
               CLI + ("poincare", "--theory", "torsion", "--shape", shape),
               check=_torsion_partial(shape))


def _sq2_fl6(twist):
    return Job(f"sq2-torsion Fl(6) twist {twist}",
               (CHILD, "sq2-torsion-fl6", twist), check=_torsion_fl6(twist))


def _annihilator(shape, block):
    return Job(f"annihilator {shape} e{block}",
               CLI + ("annihilator", "--shape", shape, "--block", str(block)),
               check=_all_checks_pass)


def _verify(suite):
    return Job(f"verify {suite}", CLI + ("verify", "--suite", suite),
               check=_all_checks_pass)


def fl6_block2_twists() -> list:
    """The 16 twist classes of Fl(6) that contain block 2, as CLI strings.

    A class is stored by its representative without block 1, so these are
    {2} together with any subset of {3, 4, 5, 6}.
    """
    out = []
    for r in range(5):
        for rest in combinations((3, 4, 5, 6), r):
            out.append(",".join(map(str, (2,) + rest)))
    return out


def drawn_twists(seed: int) -> list:
    return random.Random(seed).sample(fl6_block2_twists(), 2)


def enumerative(seed: int) -> list:
    return [
        _count("cubic-lines", {"complex": 27, "real": 3,
                               "gw_form": {"ones": 15, "minus_ones": 12}}),
        _count("quintic-4planes", {"complex": QUINTIC_FOURPLANES}),
        _count("flag-3-5", {"complex": FLAGS_COMPLEX}, _count_flags),
    ]


def sq2_torsion(seed: int) -> list:
    return [
        _torsion("3,3,1"),
        _torsion("1,1,1,1,2"),
        _torsion("1,1,2,2"),
        _sq2_fl6("0"),
    ] + [_sq2_fl6(t) for t in drawn_twists(seed)]


def witt_annihilator(seed: int) -> list:
    return [
        _annihilator("2,2,2,2,2", 1),
        _annihilator("4,4,4", 1),
        _annihilator("2,6,4", 2),
        _verify("annihilator"),
        _verify("piqp"),
    ]


WORKLOADS = {
    "enumerative": enumerative,
    "sq2-torsion": sq2_torsion,
    "witt-annihilator": witt_annihilator,
}


# Answer hashes of the jobs that do not depend on the seed.
RECORDED_SHA256 = {
    "count cubic-lines":
        "584a438887ba00b6d1f4a52b0e580e21ff2545edb4c0c81a8fdf09fa41f2d7f4",
    "count quintic-4planes":
        "ac9e84f6a09efdf7364d72ecbf4cedc4959396f9616d8a9594171cf7f2df68cf",
    "count flag-3-5":
        "b5ecbe78984d01bbc0ec8feb8c5d4f1e0bb5c2190863d36b42cff48b6475b7b3",
    "torsion 3,3,1":
        "74c9a820524c51f3f43231559b99e12d1834438838a1cfe0c11433c5eaac5372",
    "torsion 1,1,1,1,2":
        "f0ce79eee08fa3e8eef0e24fed84ac064643759e3e943ccb864231df72454b76",
    "torsion 1,1,2,2":
        "0b80a3b624e06525112585175d394551c020769aa5d3afa8166650b72f429da6",
    "sq2-torsion Fl(6) twist 0":
        "30942afce60ea8ba7f929f0d6add98cb486f1488146b8ad07371ef3ee6415aee",
    "annihilator 2,2,2,2,2 e1":
        "82af0b824fe08ff4a6d902decf0076048f22caba30f1c3af367bc6cb901b06c9",
    "annihilator 4,4,4 e1":
        "91afefc73e72aeaddcc04196d74a49bddea35db3a4864effb9144c5c408e5fdc",
    "annihilator 2,6,4 e2":
        "dbe98433de4b5ad434e4f9b9a0b03c757edcb44d3aa4deeea4b8e84af017ea04",
    "verify annihilator":
        "c3d6dd94c60e1437e52e42cf2c7fc2535617b19552d0236c3328b92d2ed502ef",
    "verify piqp":
        "d457d591d426389e89a23657b032e447ccee136c5c02a5c38ad4d98c64c27064",
}


def workload_jobs(name: str, seed: int) -> list:
    return [replace(job, sha256=RECORDED_SHA256.get(job.name))
            for job in WORKLOADS[name](seed)]


def problems(job: Job, payload: dict, oracle: Oracle) -> list:
    """Everything wrong with a job's answer; an empty list means it passed."""
    result = payload["result"]
    out = [f"{k}={result.get(k)!r}, expected {v!r}"
           for k, v in job.expect.items() if result.get(k) != v]
    if job.check is not None:
        out += job.check(payload, oracle)
    if job.sha256 is not None and answer_hash(result) != job.sha256:
        out.append(f"answer hash {answer_hash(result)} != recorded {job.sha256}")
    return out
