"""flagcw benchmark runner: run one workload's job list, check every answer, print metrics.

    python3 bench/run.py --workload enumerative --seed 0 --seconds 40 --trace 0

Each job is one ``flagcw`` command run in a fresh interpreter, one at a
time, against this checkout's ``src`` (see ``jobs.py``).  With
``--trace 0`` the runner repeats the job list while another pass fits in
``--seconds`` and reports the end-to-end metrics, scaled to a reference
machine speed by calibration probes; with ``--trace 1`` it alternates plain
and traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are the
ones declared in ``BENCHMARK.json``.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs as J
import tracer

ROOT = Path(__file__).resolve().parent.parent
JOB_TIMEOUT_S = 120
SETUP_ARGV = ("-c", "import flagcw.cli as cli; cli.build_parser()")
# The machine's speed changes by up to 1.6x for stretches from seconds to
# minutes, because other tenants share its cores.  This probe does work of
# the kind flagcw's hot loops do (a product of dict polynomials with
# big-integer coefficients) but imports nothing from flagcw, so no change
# to the package can move it.  A probe runs right before every timed job
# and set-up probe, and their times are scaled by CAL_REF_S over its time.
CAL_ARGV = ("-c", """\
a = {(i, j, k): (i * 7919 + j * 104729 + k) << 64
     for i in range(10) for j in range(10) for k in range(4)}
p = {}
for ka, ca in a.items():
    for kb, cb in a.items():
        key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
        p[key] = p.get(key, 0) + ca * cb
""")
CAL_REF_S = 0.15  # the probe's time on an unslowed 2-core VM, Python 3.11


@dataclass
class Run:
    """One finished child process."""

    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float
    timed_out: bool


@dataclass
class Outcome:
    """One checked job execution."""

    job: J.Job
    run: Run
    sha256: str | None
    problems: list
    totals: dict | None = None  # per-boundary trace totals


@dataclass
class Pass:
    """One run of the job list, with the probes that ran before each job."""

    wall_s: float  # the job list's time: its jobs run back to back
    outcomes: list
    traced: bool
    cal_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)

    def scales(self) -> list:
        """Per job, the factor from seconds to seconds at the reference speed."""
        return [CAL_REF_S / c for c in self.cal_s]

    def ref_job_s(self) -> list:
        return [o.run.seconds * k for o, k in zip(self.outcomes, self.scales())]

    def ref_setup_s(self) -> list:
        return [t * k for t, k in zip(self.setup_s, self.scales())]


def child_env(hash_seed=None) -> dict:
    """The caller's environment without Python or flagcw settings, on ./src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "FLAGCW_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def traced_argv(job: J.Job, out: Path) -> tuple:
    if job.argv[:2] == ("-m", "flagcw.cli"):
        body = ("cli",) + job.argv[2:]
    else:
        body = job.argv[1:]  # already a child.py job
    return (J.CHILD, "--trace", str(out)) + body


class Bench:
    """Spawns and checks jobs; all files it writes live under ``workdir``."""

    def __init__(self, workdir: Path, hash_seed=None):
        self.workdir = workdir
        self.env = child_env(hash_seed)
        self.oracle = J.Oracle(self.cli_result)

    def spawn(self, argv) -> Run:
        """Run the interpreter on argv; time it and take its own peak RSS."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            expired = threading.Event()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def expire():
                expired.set()
                proc.kill()

            timer = threading.Timer(JOB_TIMEOUT_S, expire)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Run(proc.returncode, out.read().decode(), err.read().decode(),
                       seconds, usage.ru_maxrss / 1024, expired.is_set())

    def cli_result(self, argv) -> dict:
        """An untimed extra CLI call for an oracle."""
        run = self.spawn(argv)
        if run.code != 0:
            raise RuntimeError(f"oracle call {' '.join(argv)} exited {run.code}")
        return json.loads(run.stdout)

    def check(self, job: J.Job, run: Run) -> Outcome:
        if run.timed_out:
            return Outcome(job, run, None, [f"timed out after {JOB_TIMEOUT_S} s"])
        if run.code != 0:
            tail = run.stderr.strip().splitlines()[-1:] or [""]
            return Outcome(job, run, None, [f"exit code {run.code}: {tail[0]}"])
        try:
            payload = json.loads(run.stdout)
            sha = J.answer_hash(payload["result"])
            problems = J.problems(job, payload, self.oracle)
        except Exception as exc:  # a malformed answer fails this job only
            return Outcome(job, run, None, [f"check raised {exc!r}"])
        return Outcome(job, run, sha, problems)

    def run_pass(self, jobs, traced=False, probes=False) -> Pass:
        """Run the job list once, then check every answer.

        With ``probes``, a calibration probe and then a set-up probe run
        right before each job.
        """
        trace_files = [self.workdir / f"trace-{i}.json" for i in range(len(jobs))]
        runs, cal, setup = [], [], []
        for job, out in zip(jobs, trace_files):
            if probes:
                cal.append(self.probe(CAL_ARGV))
                setup.append(self.probe(SETUP_ARGV))
            runs.append(self.spawn(traced_argv(job, out) if traced else job.argv))
        outcomes = [self.check(job, run) for job, run in zip(jobs, runs)]
        if traced:
            for o, path in zip(outcomes, trace_files):
                read_trace(o, path)
        return Pass(sum(r.seconds for r in runs), outcomes, traced, cal, setup)

    def probe(self, argv) -> float:
        """Time one probe interpreter; a failing probe ends the run without a result."""
        run = self.spawn(argv)
        if run.code != 0:
            sys.exit(f"error: a probe interpreter failed:\n{run.stderr}")
        return run.seconds


def read_trace(o: Outcome, path: Path) -> None:
    """Attach a traced job's totals; its spans must fit in its wall time."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        o.problems.append("no trace totals written")
        return
    finally:
        path.unlink(missing_ok=True)
    o.totals = data["totals"]
    self_s = sum(v for k, v in o.totals.items() if k.endswith(".self_s"))
    if self_s > o.run.seconds:
        o.problems.append(f"self time {self_s} s exceeds wall {o.run.seconds} s")


def mark_unstable_answers(passes) -> None:
    """Every execution of a job, traced or not, must give its first answer hash."""
    first = {}
    for p in passes:
        for o in p.outcomes:
            want = first.setdefault(o.job.name, o.sha256)
            if o.sha256 is not None and want is not None and o.sha256 != want:
                o.problems.append(f"answer hash {o.sha256} differs from {want}")


def run_until(deadline_s: float, one_round):
    """Repeat one_round while another round fits in deadline_s; at least once."""
    rounds, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > deadline_s:
            return rounds


def end_to_end(passes) -> dict:
    """wall_s sums each job's median over the passes, so that one job's
    outlier in a pass does not move the whole pass."""
    per_job = zip(*(p.ref_job_s() for p in passes))
    return {
        "wall_s": sum(statistics.median(times) for times in per_job),
        "setup_s": statistics.median(t for p in passes for t in p.ref_setup_s()),
        "peak_rss_mb": statistics.median(
            max(o.run.rss_mb for o in p.outcomes) for p in passes),
    }


def per_layer(plain: Pass, traced: Pass) -> dict:
    values = dict.fromkeys(tracer.metric_names(), 0)
    other = 0.0
    for o in traced.outcomes:
        totals = o.totals or {}
        for k, v in totals.items():
            values[k] += v
        other += o.run.seconds - sum(
            v for k, v in totals.items() if k.endswith(".self_s"))
    values["trace.other_self_s"] = other
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return values


def declared_metrics(values: dict, traced: bool) -> dict:
    """Attach the units of BENCHMARK.json; the metric sets must agree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if traced else "end_to_end"]
    differ = {m["name"] for m in spec} ^ set(values)
    if differ:
        sys.exit(f"error: declared and measured metrics differ: {sorted(differ)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def log_pass(index: int, p: Pass) -> None:
    kind = "traced" if p.traced else "plain"
    for o in p.outcomes:
        status = "ok" if not o.problems else "FAIL " + "; ".join(o.problems)
        print(f"pass {index} {kind} {o.job.name}: {o.run.seconds:.3f} s "
              f"{o.run.rss_mb:.1f} MB sha256 {(o.sha256 or '-')[:16]} {status}",
              file=sys.stderr)
    print(f"pass {index} {kind} wall {p.wall_s:.3f} s", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(J.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=J.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flagcw" / "cli.py").is_file():
        sys.exit(f"error: no flagcw sources under {ROOT / 'src'}")
    jobs = J.workload_jobs(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp") as tmp:
        bench = Bench(Path(tmp))
        bench.probe(SETUP_ARGV)  # writes bytecode caches, fails early on a bad import
        passes = []

        def one_round():
            plain = bench.run_pass(jobs, probes=not args.trace)
            passes.append(plain)
            log_pass(len(passes), plain)
            if not args.trace:
                return plain
            traced = bench.run_pass(jobs, traced=True)
            passes.append(traced)
            log_pass(len(passes), traced)
            return plain, traced

        rounds = run_until(args.seconds, one_round)
    mark_unstable_answers(passes)
    if args.trace:
        layers = [per_layer(plain, traced) for plain, traced in rounds]
        values = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
    else:
        values = end_to_end(rounds)
    metrics = declared_metrics(values, args.trace)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
