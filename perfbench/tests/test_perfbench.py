"""Self-tests of the benchmark (not part of the simulator's test suite).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None):
    """Run the benchmark; returns (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return done.returncode, done.stdout.splitlines()


def tiny(workload, trace, *extra, seed=3):
    code, lines = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny", *extra,
    )
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace, section):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_a_wrong_pinned_digest_is_a_failed_run():
    pins = json.loads((BENCH / "pins.json").read_text())["1"]["ps_faults_integrity"]
    points = workloads.points("ps_faults_integrity", 1, tiny=True)
    label = points[0].label
    wrong = dict(pins, **{label: [pins[label][0], "0" * 16]})
    for pinned, failed in ((pins, 0), (wrong, 1)):
        checker = run.Checker(pinned)
        run.run_pass(points, checker, None, run.HostSpeed())
        assert checker.failed == failed


def test_shipped_pins_hold():
    pins = json.loads((BENCH / "pins.json").read_text())
    assert sorted(pins) == ["1", "2"]
    for seed in pins:
        for workload in workloads.WORKLOADS:
            for point in workloads.points(workload, int(seed), tiny=True):
                outcome = workloads.run_point(point)
                assert list(outcome.output()) == pins[seed][workload][point.label]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_seed_generates_the_inputs(workload):
    assert workloads.points(workload, 5) == workloads.points(workload, 5)
    first, second = workloads.points(workload, 5), workloads.points(workload, 6)
    assert all(a != b for a, b in zip(first, second))


def test_a_simulator_override_fails_loudly():
    env = dict(os.environ, REPRO_SIM_QUEUE="heap")
    code, lines = bench("--workload", "ps_faults_integrity", "--tiny", env=env)
    assert code != 0 and lines == []


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "ps_faults_integrity", "--tiny", cwd=tmp_path)
    assert code != 0 and lines == []


def test_tracer_restores_every_entry_point():
    before = [vars(owner)[name] for _, owner, name, _ in tracing.ENTRY_POINTS]
    with tracing.Tracer():
        pass
    assert [vars(owner)[name] for _, owner, name, _ in tracing.ENTRY_POINTS] == before
