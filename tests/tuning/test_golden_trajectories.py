"""Golden live-tuner trajectories.

Pins, for three fixed jobs, every profiled segment a live tuner records
(start, end, partition, credit, speed) plus its final speed and counts.
A change to the tuning loop that moves one sample, one knob switch or
one flush shows up here without running ``reproduce drift``.
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.tuning import AdaptiveTuner, OnlineTuner

from tests.tuning.test_adaptive import make_job as adaptive_job
from tests.tuning.test_online import SPACE, _elastic_job
from tests.tuning.test_online import make_job as online_job

GOLDEN = json.loads(
    Path(__file__).with_name("golden_trajectories.json").read_text()
)


def _online_ps():
    job = online_job(arch="ps")
    tuner = OnlineTuner(
        job, space=SPACE, segment_iterations=2, restart_penalty=5.0, seed=1
    )
    return job, tuner.run(segments=5)


def _online_elastic():
    # Leave + rejoin while tuning: two membership change-point resets.
    job = _elastic_job()
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, seed=0)
    return job, tuner.run(segments=6, final_iterations=2)


def _adaptive_step():
    # A mid-run bandwidth collapse that fires Page-Hinkley.
    job = adaptive_job(
        fault_plan=FaultPlan.parse("slowlink:m0.both@0.35-1000x0.3")
    )
    tuner = AdaptiveTuner(job, space=SPACE, segment_iterations=2)
    return job, tuner.run(segments=16, final_iterations=3)


CASES = {
    "online_ps": _online_ps,
    "online_elastic": _online_elastic,
    "adaptive_step": _adaptive_step,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tuner_trajectory_matches_golden(case):
    job, result = CASES[case]()
    golden = GOLDEN[case]
    stats = job.tuning_stats
    timeline = [
        [e["start"], e["end"], e["partition_bytes"], e["credit_bytes"], e["speed"]]
        for e in stats["timeline"]
    ]
    assert len(timeline) == len(golden["timeline"])
    flat = [value for row in timeline for value in row]
    want = [value for row in golden["timeline"] for value in row]
    assert flat == pytest.approx(want, rel=1e-9)
    assert result.final_speed == pytest.approx(golden["final_speed"], rel=1e-9)
    assert stats["reconfigures"] == golden["reconfigures"]
    assert stats["change_points"] == golden["change_points"]
