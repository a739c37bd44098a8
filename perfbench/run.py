"""Benchmark entry point: simulated ByteScheduler jobs, timed on the host.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ps_small_partitions --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time (fresh interpreters, median of several), then whole passes over the
workload's jobs until ``--seconds`` would be exceeded, reporting per-job
medians across passes.  ``--trace 1`` alternates untraced and traced
passes the same way (at least one of each), checks that all produced
identical outputs, and reports the per-layer metrics (see
``tracing.py``) as medians over the traced passes.

Every run checks the program's outputs: pinned speeds and digests for
the shipped seeds (``pins.json``), identical outputs for every repeat of
a job, and for faulted jobs digest equality with the fault-free run,
balanced delivery accounting and a clean chaos oracle.  A job that
raises or fails a check counts in ``failed``.

The last line of standard output is the result object; the line before
it records the run's metadata.  Load is one process and one thread: no
worker pool, no trial cache, and the simulator's own kernel choice.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment variables that would make the simulator a different
#: program (another event kernel, a trial cache serving old results).
FORBIDDEN_ENV = ("REPRO_SIM_QUEUE", "REPRO_CACHE_DIR")

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7

#: What one probe does: the imports every ``repro reproduce`` pays, then
#: building the workload's first job.  It samples the host speed itself
#: and prints its wall time since the parent started it, rescaled.
PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import hostspeed

def set_up():
    import repro.experiments, repro.training, workloads
    workloads.build_job(workloads.points(sys.argv[3], int(sys.argv[4]))[0])

print(hostspeed.HostSpeed().time(set_up, since=float(sys.argv[5]))[1])
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the simulator from this checkout's ``src`` or exit 2."""
    for name in FORBIDDEN_ENV:
        if os.environ.get(name):
            fail(f"${name} is set; unset it so the production program is measured")
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import repro
        import repro.experiments  # noqa: F401  (part of every user's set-up)
        import repro.training  # noqa: F401
    except ImportError as error:
        fail(f"cannot import the simulator: {error}")
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


class Checker:
    """Checks every job's outputs and counts attempts and failures."""

    def __init__(self, pins: dict) -> None:
        self.pins = pins
        #: label -> (speed, digest) from the first run of that job.
        self.reference: dict = {}
        self.fault_free_digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, point, outcome, error) -> None:
        self.attempted += 1
        problem = error
        if outcome is not None:
            problem = outcome.problem or self._compare(point, outcome)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{point.label}: {problem}")

    def _compare(self, point, outcome):
        output = outcome.output()
        first = self.reference.setdefault(point.label, output)
        if output != first:
            return f"output {output} differs from an earlier run's {first}"
        if point.label == "fault_free":
            self.fault_free_digest = outcome.digest
        elif point.plan is not None and outcome.digest != self.fault_free_digest:
            return f"digest {outcome.digest} != fault-free {self.fault_free_digest}"
        pinned = self.pins.get(point.label)
        if pinned is not None and list(output) != pinned:
            return f"output {output} differs from pinned {pinned}"
        return None

    def outputs_sha256(self) -> str:
        text = json.dumps(sorted(self.reference.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def attempt(point, inspect):
    """Run one job; a job that raises is a failed run, not a crash."""
    from workloads import run_point

    try:
        return run_point(point, inspect), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(points, checker: Checker, inspect, speed: HostSpeed) -> list:
    """Run every point once; returns ``(wall_s, cpu_s)`` per point, both
    rescaled to the reference host speed."""
    rows = []
    for point in points:
        (outcome, error), wall, cpu = speed.time(lambda: attempt(point, inspect))
        rows.append((wall, cpu))
        checker.record(point, outcome, error)
    return rows


def setup_seconds(workload: str, seed: int) -> float:
    """Median rescaled wall time of fresh interpreters doing the set-up."""

    def probe() -> float:
        args = (str(SRC), str(HERE), workload, str(seed), repr(time.perf_counter()))
        done = subprocess.run(
            [sys.executable, "-c", PROBE, *args],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
        )
        return float(done.stdout.split()[-1])

    return statistics.median(probe() for _ in range(SETUP_PROBES))


def repeat(seconds: float, body) -> list:
    """Call ``body()`` until another call would overrun ``seconds`` (at
    least once); returns the results."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return results


def measure(points, checker, seconds: float, speed: HostSpeed):
    """Whole passes for ``seconds``; returns the number of passes, the
    end-to-end metrics built from per-job medians across passes, and the
    queue kinds the jobs ran on."""
    queue_kinds = set()
    inspect = lambda job, outcome: queue_kinds.add(job.env.queue_kind)  # noqa: E731
    passes = repeat(seconds, lambda: run_pass(points, checker, inspect, speed))
    iterations = sum(point.iterations for point in points)
    wall, cpu = (
        sum(statistics.median(run[i][column] for run in passes) for i in range(len(points)))
        for column in (0, 1)
    )
    values = {
        "sim_iters_per_s": (iterations / wall, "1/s"),
        "cpu_ms_per_iter": (1000.0 * cpu / iterations, "ms"),
    }
    return len(passes), values, queue_kinds


def trace_run(points, checker, seconds: float, speed: HostSpeed):
    """Pairs of an untraced and a traced pass for ``seconds``; returns the
    number of pairs, the per-layer metrics (medians over the pairs) and
    the queue kinds the jobs ran on."""
    from tracing import Tracer

    queue_kinds = set()

    def pair():
        untraced = sum(row[0] for row in run_pass(points, checker, None, speed))
        with Tracer() as tracer:
            speed.on_sample = tracer.exclude
            try:
                traced = sum(row[0] for row in run_pass(points, checker, tracer.inspect, speed))
            finally:
                speed.on_sample = None
        queue_kinds.update(tracer.queue_kinds)
        return tracer.metrics(len(points), traced, untraced)

    pairs = repeat(seconds, pair)
    values = {
        name: (statistics.median(metrics[name][0] for metrics in pairs), unit)
        for name, (_, unit) in pairs[0].items()
    }
    return len(pairs), values, queue_kinds


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few cheap jobs per workload (self-test)"
    )
    args = parser.parse_args(argv)

    pins = json.loads((HERE / "pins.json").read_text())
    seed_pins = pins.get(str(args.seed), {}).get(args.workload, {})
    points = workloads.points(args.workload, args.seed, tiny=args.tiny)
    checker = Checker(seed_pins)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "processes": 1,
        "threads": 1,
        "worker_pool": None,
        "trial_cache": None,
        "env_overrides": {name: os.environ.get(name) for name in FORBIDDEN_ENV},
        "jobs_per_pass": len(points),
        "pinned_jobs": sum(point.label in seed_pins for point in points),
    }
    # One CPU for the whole run: the calibration loop then measures the
    # CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed()
    if args.trace:
        meta["pairs"], values, queue_kinds = trace_run(points, checker, args.seconds, speed)
    else:
        setup = setup_seconds(args.workload, args.seed)
        meta["passes"], values, queue_kinds = measure(points, checker, args.seconds, speed)
        values["setup_s"] = (setup, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    meta["queue_kind"] = sorted(queue_kinds)
    meta["host_speed_factor"] = statistics.median(speed.factors)
    meta["outputs_sha256"] = checker.outputs_sha256()
    meta["problems"] = checker.problems[:20]
    for problem in checker.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
