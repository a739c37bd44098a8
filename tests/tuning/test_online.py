"""Tests for the §7 extensions: online re-tuning and per-layer partitions."""

import pytest

from repro.errors import SchedulerError, TuningError
from repro.models import custom_model
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.tuning import AdaptiveTuner, OnlineTuner, SearchSpace
from repro.units import MB


def make_job(arch="allreduce", partition=2 * MB, credit=4 * MB):
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=2, arch=arch, transport="rdma",
        framework="mxnet", bandwidth_gbps=25,
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    spec = SchedulerSpec(
        kind="bytescheduler", partition_bytes=partition, credit_bytes=credit
    )
    return TrainingJob(model, cluster, spec)


SPACE = SearchSpace(1 * MB, 64 * MB, 2 * MB, 256 * MB)


def test_online_tuner_improves_bad_initial_knobs():
    job = make_job(partition=1 * MB, credit=1 * MB)  # badly under-tuned
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=6, final_iterations=3)
    first_speed = result.segments[0][1]
    assert result.final_speed >= first_speed * 0.95
    assert result.best_point == max(result.segments, key=lambda s: s[1])[0]
    assert result.num_segments == 6


def test_online_tuner_allreduce_retunes_without_restart_cost():
    job = make_job(arch="allreduce")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2)
    result = tuner.run(segments=4)
    assert result.restart_overhead == 0.0


def test_online_tuner_ps_charges_restarts():
    job = make_job(arch="ps")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, restart_penalty=5.0)
    result = tuner.run(segments=4)
    # BO explores: at least one partition change across 4 segments.
    assert result.restart_overhead >= 5.0


def test_online_tuner_charges_the_final_move_to_best_point():
    # Regression: the move onto the best point after the search is a
    # partition change like any other and pays the PS restart too.
    job = make_job(arch="ps")
    tuner = OnlineTuner(
        job, space=SPACE, segment_iterations=2, restart_penalty=5.0, seed=1
    )
    result = tuner.run(segments=5)
    partitions = [2 * MB] + [
        entry["partition_bytes"] for entry in job.tuning_stats["timeline"]
    ]
    moves = sum(a != b for a, b in zip(partitions, partitions[1:]))
    # The last profiled point differs from the best one, so the final
    # move is among the six partition changes.
    assert partitions[-2] != partitions[-1]
    assert moves == 6
    assert result.restart_overhead == pytest.approx(5.0 * moves)


@pytest.mark.parametrize("tuner", [OnlineTuner, AdaptiveTuner])
def test_live_tuner_validation(tuner):
    job = make_job()
    with pytest.raises(TuningError, match="segment_iterations"):
        tuner(job, space=SPACE, segment_iterations=0)
    live = tuner(job, space=SPACE)
    with pytest.raises(TuningError, match="segments must be"):
        live.run(segments=0)


def test_job_reconfigure_applies_to_later_iterations():
    job = make_job(partition=2 * MB)
    job.extend(2)
    job.drain()
    job.reconfigure(partition_bytes=8 * MB, credit_bytes=32 * MB)
    job.extend(2)
    job.drain()
    core = job.master_core
    assert core.partition_bytes == 8 * MB
    assert core.credit_capacity == 32 * MB


def test_segment_speed_validation():
    job = make_job()
    job.extend(3)
    job.drain()
    assert job.segment_speed(1, 3) > 0
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        job.segment_speed(0, 3)  # needs a previous marker
    with pytest.raises(ConfigError):
        job.segment_speed(2, 9)  # beyond what was built


def test_per_layer_partition_overrides():
    """§7: different partition sizes for different layers."""
    cluster = ClusterSpec(machines=2, gpus_per_machine=2, bandwidth_gbps=25)
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    spec = SchedulerSpec(
        kind="bytescheduler",
        partition_bytes=4 * MB,
        credit_bytes=16 * MB,
        partition_overrides=((1, 12 * MB),),
    )
    job = TrainingJob(model, cluster, spec)
    job.extend(1)
    job.drain()
    assert job.master_core.partition_overrides == {1: 12 * MB}


def test_partition_override_chunk_counts():
    from repro.comm.base import ChunkHandle, CommBackend
    from repro.core import ByteSchedulerCore
    from repro.sim import Environment

    class NullBackend(CommBackend):
        is_collective = True
        workers = ("m0",)

        def __init__(self, env):
            self.env = env

        def start_chunk(self, chunk):
            done = self.env.timeout(0.0, value=chunk)
            return ChunkHandle(sent=done, done=done)

    env = Environment()
    core = ByteSchedulerCore(
        env,
        NullBackend(env),
        partition_bytes=4 * MB,
        partition_overrides={1: 12 * MB},
    )
    default_task = core.create_task(0, 0, 24 * MB)
    override_task = core.create_task(0, 1, 24 * MB)
    assert len(default_task.subtasks) == 6
    assert len(override_task.subtasks) == 2


def test_partition_override_validation():
    from repro.comm.base import ChunkHandle, CommBackend
    from repro.core import ByteSchedulerCore
    from repro.sim import Environment

    class NullBackend(CommBackend):
        is_collective = True
        workers = ("m0",)

        def start_chunk(self, chunk):  # pragma: no cover - never called
            raise AssertionError

    env = Environment()
    with pytest.raises(SchedulerError):
        ByteSchedulerCore(
            env, NullBackend(), partition_overrides={0: -1.0}
        )


# -- restart accounting (PS) ------------------------------------------------


class _FixedSearcher:
    """Stub searcher that always suggests one point."""

    def __init__(self, point):
        self._point = point
        self.history = []

    def suggest(self):
        return self._point

    def observe(self, point, speed):
        self.history.append((point, speed))

    def best(self):
        return max(self.history, key=lambda entry: entry[1])


def test_first_differing_suggestion_charges_restart():
    # Regression: last_partition must seed from the job's *current*
    # partition, so the very first suggestion that changes it is
    # charged too — not just changes between suggestions.
    job = make_job(arch="ps", partition=2 * MB, credit=8 * MB)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2,
                        restart_penalty=7.0)
    tuner.searcher = _FixedSearcher((8 * MB, 32 * MB))
    result = tuner.run(segments=3, final_iterations=2)
    # One partition change (2 MB -> 8 MB on the first segment), then
    # the stub holds the point steady: exactly one penalty.
    assert result.restart_overhead == pytest.approx(7.0)


def test_unchanged_suggestion_is_free():
    job = make_job(arch="ps", partition=8 * MB, credit=32 * MB)
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2,
                        restart_penalty=7.0)
    tuner.searcher = _FixedSearcher((8 * MB, 32 * MB))
    result = tuner.run(segments=3, final_iterations=2)
    assert result.restart_overhead == 0.0


# -- membership change-point resets -----------------------------------------


def _elastic_job(plan_spec="leave:w1@0.05;join:w1@0.15", seed=0):
    from repro.faults import FaultPlan
    from repro.recovery import MembershipSpec

    cluster = ClusterSpec(
        machines=4, gpus_per_machine=1, arch="ps", seed=seed
    )
    model = custom_model(
        layer_bytes=[8 * MB, 24 * MB, 4 * MB],
        fp_times=[0.002] * 3,
        bp_times=[0.004] * 3,
        batch_size=16,
    )
    spec = SchedulerSpec(
        kind="bytescheduler", partition_bytes=8 * MB, credit_bytes=32 * MB
    )
    return TrainingJob(
        model,
        cluster,
        spec,
        fault_plan=FaultPlan.parse(f"{plan_spec};seed:{seed}"),
        membership_spec=MembershipSpec(min_workers=1),
    )


def test_epoch_change_resets_searcher_and_retunes():
    job = _elastic_job()
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2, seed=0)
    result = tuner.run(segments=6, final_iterations=2)
    # Both scale events matured while tuning ran.
    assert job.membership.epoch == 2
    assert result.change_points >= 1
    # The run still converges to a usable configuration.
    assert result.final_speed > 0
    assert result.segments
    # Post-reset history only: resets discarded the stale profiles.
    assert result.num_segments < 6 + 1


def test_static_job_never_resets():
    job = make_job(arch="allreduce")
    tuner = OnlineTuner(job, space=SPACE, segment_iterations=2)
    result = tuner.run(segments=4)
    assert result.change_points == 0
