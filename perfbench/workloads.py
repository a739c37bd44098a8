"""The benchmark's three workloads and the code that runs one point.

A *point* is one simulated training job.  A workload is a fixed list of
points built from the workload seed; one *pass* runs every point once.
The simulator is reached only through its stable public API
(``repro.training``, ``repro.models``, ``repro.faults``,
``repro.invariants``, ``repro.recovery``, ``repro.obs``), never through
``repro.experiments``.  Knob values that ``tuned_knobs`` returned when
the benchmark was written are spelled out as literals so that later
changes to the experiment package cannot change what is measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.faults import FaultPlan
from repro.invariants import ChaosOracle
from repro.models import get_model
from repro.recovery import RecoverySpec
from repro.training import ClusterSpec, SchedulerSpec, TrainingJob

KB = 1024
MB = 1024 * KB

#: Relative std-dev of per-op compute time.  Small enough to keep every
#: configuration's behaviour, large enough that the seed changes the
#: simulated trajectory (and so the pinned speeds).
JITTER = 0.02

WORKLOADS = ("ps_small_partitions", "allreduce_collectives", "ps_faults_integrity")

#: ``tuned_knobs(model, "allreduce", "tcp", machines)`` at the time the
#: benchmark was defined: (partition_bytes, credit_bytes).
ALLREDUCE_KNOBS = {
    ("resnet50", 2): (4987896.159284373, 9975792.318568746),
    ("resnet50", 8): (14107900.792337263, 28215801.584674526),
    ("vgg16", 2): (59854753.91141248, 119709507.82282495),
    ("vgg16", 8): (169294809.50804716, 338589619.0160943),
}

#: The transfer-integrity matrix; ``{seed}`` is the workload seed.
FAULT_PLANS = (
    ("corrupt", "seed:{seed};corrupt:s0.down@0-0.8%0.05"),
    ("dup", "seed:{seed};dup:w1.up@0-0.8%0.05"),
    ("reorder", "seed:{seed};reorder:s0.down@0-0.8%0.05"),
    (
        "combined",
        "seed:{seed};corrupt:s0.down@0-0.8%0.03;"
        "dup:w1.up@0-0.8%0.03;reorder:s0.down@0-0.8%0.03",
    ),
    (
        "combined_crash",
        "seed:{seed};corrupt:s0.down@0-0.8%0.03;"
        "dup:w1.up@0-0.8%0.03;reorder:s0.down@0-0.8%0.03;"
        "crash:s0@0.2+0.1",
    ),
)

#: Labels of the points a ``--tiny`` run keeps (the cheapest points that
#: still reach every layer the full workload reaches).
TINY = {
    "ps_small_partitions": ("10g.fifo.p700k.c5600k", "10g.bytescheduler.p160k.c640k"),
    "allreduce_collectives": (
        "resnet50.m2.fifo",
        "resnet50.m2.bytescheduler",
        "resnet50.m2.dear",
    ),
    "ps_faults_integrity": ("fault_free", "combined_crash"),
}


@dataclass(frozen=True)
class Point:
    """One simulated job: the inputs the program receives."""

    label: str
    model: str
    cluster: ClusterSpec
    scheduler: SchedulerSpec
    measure: int
    warmup: int
    #: Fault-plan text for faulted runs, None for fault-free ones.
    plan: Optional[str] = None

    @property
    def iterations(self) -> int:
        return self.measure + self.warmup


@dataclass
class Outcome:
    """What one run of a point produced, plus what the checks found."""

    label: str
    speed: float
    iteration_time: float
    compute_time: float
    iterations: int
    digest: str
    #: Set by the faulted-run checks; None when the run passed them.
    problem: Optional[str] = None

    def output(self) -> Tuple[float, str]:
        """The pinned outputs: simulated speed and digest hash."""
        return (self.speed, self.digest)


def _kb(value: float) -> str:
    return f"{value / KB:g}k"


def _ps_small_partitions(seed: int) -> List[Point]:
    points = []
    for bandwidth in (1.0, 10.0):
        cluster = ClusterSpec(
            machines=2,
            gpus_per_machine=8,
            bandwidth_gbps=bandwidth,
            transport="tcp",
            arch="ps",
            framework="mxnet",
            compute_jitter=JITTER,
            seed=seed,
        )
        specs = [
            SchedulerSpec(kind="fifo", partition_bytes=size * KB, credit_bytes=8 * size * KB)
            for size in (100, 250, 700)
        ]
        specs += [
            SchedulerSpec(kind="fifo", partition_bytes=100 * KB, credit_bytes=credit * KB)
            for credit in (100, 250, 700)
        ]
        specs += [
            SchedulerSpec(kind="bytescheduler", partition_bytes=160 * KB, credit_bytes=640 * KB),
            SchedulerSpec(kind="p3"),
        ]
        for spec in specs:
            knobs = (
                f".p{_kb(spec.partition_bytes)}.c{_kb(spec.credit_bytes)}"
                if spec.partition_bytes is not None
                else ""
            )
            points.append(
                Point(f"{bandwidth:g}g.{spec.kind}{knobs}", "vgg16", cluster, spec, 2, 1)
            )
    return points


def _allreduce_collectives(seed: int) -> List[Point]:
    points = []
    for model in ("resnet50", "vgg16"):
        for machines in (2, 8):
            cluster = ClusterSpec(
                machines=machines,
                gpus_per_machine=8,
                bandwidth_gbps=100.0,
                transport="tcp",
                arch="allreduce",
                framework="pytorch",
                compute_jitter=JITTER,
                seed=seed,
            )
            partition, credit = ALLREDUCE_KNOBS[(model, machines)]
            for spec in (
                SchedulerSpec(kind="fifo"),
                SchedulerSpec(
                    kind="bytescheduler", partition_bytes=partition, credit_bytes=credit
                ),
                SchedulerSpec(kind="dear"),
            ):
                label = f"{model}.m{machines}.{spec.kind}"
                points.append(Point(label, model, cluster, spec, 40, 2))
    return points


def _ps_faults_integrity(seed: int) -> List[Point]:
    cluster = ClusterSpec(
        machines=2,
        gpus_per_machine=8,
        bandwidth_gbps=100.0,
        transport="rdma",
        arch="ps",
        framework="mxnet",
        compute_jitter=JITTER,
        seed=seed,
    )
    spec = SchedulerSpec(kind="bytescheduler", partition_bytes=2 * MB, credit_bytes=8 * MB)
    points = [Point("fault_free", "vgg16", cluster, spec, 3, 2)]
    for name, template in FAULT_PLANS:
        points.append(
            Point(name, "vgg16", cluster, spec, 3, 2, plan=template.format(seed=seed))
        )
    return points


_BUILDERS = {
    "ps_small_partitions": _ps_small_partitions,
    "allreduce_collectives": _allreduce_collectives,
    "ps_faults_integrity": _ps_faults_integrity,
}


def points(workload: str, seed: int, tiny: bool = False) -> List[Point]:
    """The workload's points for ``seed``, in pass order.

    In ``ps_faults_integrity`` the fault-free point comes first: every
    faulted run of a pass is checked against its digest.
    """
    built = _BUILDERS[workload](seed)
    if tiny:
        built = [point for point in built if point.label in TINY[workload]]
    return built


def build_job(point: Point) -> TrainingJob:
    """Construct the point's job (the per-job set-up a user pays)."""
    if point.plan is None:
        return TrainingJob(get_model(point.model), point.cluster, point.scheduler)
    plan = FaultPlan.parse(point.plan)
    return TrainingJob(
        get_model(point.model),
        point.cluster,
        point.scheduler,
        fault_plan=plan,
        recovery_spec=RecoverySpec() if plan.crashes else None,
        oracle=ChaosOracle(),
        metrics=obs.MetricsRegistry(),
        integrity=True,
    )


def digest_hash(job: TrainingJob) -> str:
    """Short hash of the backend's order-insensitive sync digest."""
    text = repr(job.backend.sync_digest()).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def run_point(
    point: Point, inspect: Optional[Callable[[TrainingJob, Outcome], None]] = None
) -> Outcome:
    """Build and run one job; faulted runs also build their report and
    check the delivery protocol's accounting and the chaos oracle.

    ``inspect(job, outcome)`` sees the finished job before it is dropped
    (the traced pass reads the program's own counters there).
    """
    job = build_job(point)
    result = job.run(measure=point.measure, warmup=point.warmup)
    outcome = Outcome(
        label=point.label,
        speed=result.speed,
        iteration_time=result.iteration_time,
        compute_time=job.model.compute_time,
        iterations=point.iterations,
        digest=digest_hash(job),
    )
    if point.plan is not None:
        # Looked up on the module at call time so a traced pass can wrap it.
        obs.build_run_report(job, result)
        stats = job.fabric.guard.stats
        if not stats.accounted():
            outcome.problem = f"integrity accounting unbalanced: {stats.to_dict()}"
        elif job.oracle.violations:
            outcome.problem = f"{job.oracle.violations} oracle violations"
    if inspect is not None:
        inspect(job, outcome)
    return outcome
