"""Injector wiring: where each fault kind lands on a built job."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, make_straggler_scale
from repro.net import FaultyTransport
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob
from repro.training.runner import resolve_model


def make_job(arch="ps", fault_plan=None, **cluster_kwargs):
    cluster = ClusterSpec(
        machines=2, gpus_per_machine=1, arch=arch, **cluster_kwargs
    )
    return TrainingJob(
        resolve_model("resnet50"),
        cluster,
        SchedulerSpec(kind="bytescheduler", partition_bytes=8e6, credit_bytes=32e6),
        fault_plan=fault_plan,
    )


def test_unknown_worker_rejected():
    with pytest.raises(ConfigError, match="unknown worker"):
        make_job(fault_plan=FaultPlan.parse("straggler:w9@0-1x2"))


def test_unknown_node_rejected_on_ps_fabric():
    with pytest.raises(ConfigError, match="unknown node"):
        make_job(fault_plan=FaultPlan.parse("slowlink:nope.up@0-1x0.5"))


def test_unknown_node_rejected_on_allreduce():
    with pytest.raises(ConfigError, match="unknown node"):
        make_job(arch="allreduce", fault_plan=FaultPlan.parse("blackout:s0.up@0-1"))


def test_empty_plan_is_a_noop():
    job = make_job(fault_plan=FaultPlan())
    assert all(engine.compute_scale is None for engine in job.engines.values())
    assert not isinstance(job.fabric.transport, FaultyTransport)


def test_straggler_lands_on_the_named_workers_engine():
    job = make_job(fault_plan=FaultPlan.parse("straggler:w0@0.0-infx2"))
    assert job.engines["w0"].compute_scale is not None
    assert job.engines["w1"].compute_scale is None
    scale = job.engines["w0"].compute_scale
    assert scale(0.5, 1.0) == pytest.approx(2.0)


def test_make_straggler_scale_window_attribution():
    scale = make_straggler_scale(((0.1, 0.2, 3.0), (0.5, 0.6, 2.0)))
    assert scale(0.05, 1.0) == pytest.approx(1.0)   # before any window
    assert scale(0.15, 1.0) == pytest.approx(3.0)   # inside the first
    assert scale(0.2, 1.0) == pytest.approx(1.0)    # windows are half-open
    assert scale(0.55, 1.0) == pytest.approx(2.0)
    assert scale(0.9, 1.0) == pytest.approx(1.0)


def test_link_fault_lands_on_the_named_direction():
    job = make_job(
        fault_plan=FaultPlan.parse(
            "slowlink:w0.up@0.0-0.1x0.5;blackout:s0.down@0.2-0.3;"
            "slowlink:w1.loop@0.0-0.1x0.5"
        )
    )
    assert job.fabric.nic("w0").uplink._fault_windows == ((0.0, 0.1, 0.5),)
    assert job.fabric.nic("w0").downlink._fault_windows == ()
    assert job.fabric.nic("s0").downlink._fault_windows == ((0.2, 0.3, 0.0),)
    assert job.fabric.loopback("w1")._fault_windows == ((0.0, 0.1, 0.5),)


def test_transport_fault_wraps_every_remote_link_once():
    job = make_job(fault_plan=FaultPlan.parse("loss:0.05;seed:3"))
    faulty = job.fabric.transport
    assert isinstance(faulty, FaultyTransport)
    for node in job.fabric.nodes:
        nic = job.fabric.nic(node)
        # One shared wrapper: a single seeded draw sequence for the run.
        assert nic.uplink.transport is faulty
        assert nic.downlink.transport is faulty


def test_allreduce_link_fault_degrades_the_collective():
    job = make_job(
        arch="allreduce",
        fault_plan=FaultPlan.parse("slowlink:m0.up@0.0-0.1x0.5"),
    )
    assert job.backend._fault_windows == ((0.0, 0.1, 0.5),)


def test_allreduce_loss_arms_the_backend():
    job = make_job(
        arch="allreduce",
        retry_timeout=0.02,
        fault_plan=FaultPlan.parse("loss:0.2;seed:1"),
    )
    assert job.backend._loss_probability == 0.2
    assert job.backend._fault_rng is not None


def test_straggler_slows_the_run():
    healthy = make_job().run(measure=2).speed
    slowed = make_job(
        fault_plan=FaultPlan.parse("straggler:w0@0.0-infx2")
    ).run(measure=2).speed
    assert slowed < healthy


@pytest.mark.parametrize(
    "spec, windows",
    [
        # Different links of the ring overlap: the slowest hop wins.
        (
            "slowlink:m0.up@0-1x0.5;slowlink:m1.down@0.5-1.5x0.5",
            ((0.0, 1.5, 0.5),),
        ),
        # A restart stall overlays another member's slow window.
        (
            "crash:m0@0.1+0.05;slowlink:m1.up@0-1x0.5",
            ((0.0, 0.1, 0.5), (0.1, 0.1 + 0.05, 0.0), (0.1 + 0.05, 1.0, 0.5)),
        ),
    ],
)
def test_allreduce_overlapping_windows_on_different_members(spec, windows):
    job = make_job(arch="allreduce", fault_plan=FaultPlan.parse(spec))
    assert job.backend._fault_windows == windows
