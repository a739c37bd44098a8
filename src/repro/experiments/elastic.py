"""Elastic membership: scale-out, scale-in, churn storms, re-tuning.

The paper tunes its knobs once, for a fixed worker set; this experiment
measures what the scheduler does when the worker set *changes mid-run*
— the planned ``join:<node>@<t>`` / ``leave:<node>@<t>`` scale events
driven by the :class:`~repro.recovery.MembershipManager`.  Four
scenarios, each across several seeds:

* **scale-out** — half the fleet joins mid-run: steady-state speed
  after the join must beat the speed before it (the new workers
  actually contribute), and the membership epoch must advance once per
  event;
* **scale-in** — workers leave gracefully (credits refunded, barriers
  resized), including a run that drops below ``min_workers`` and parks
  at an iteration boundary instead of deadlocking;
* **storm** — interleaved joins and leaves under corrupt/duplicate/
  reorder integrity faults, with the chaos oracle attached: the final
  parameter digest must match the fault-free run and be bit-identical
  across repeats of the same seed;
* **retune** — a scale-out run under three knob policies: knobs tuned
  for the *old* size (stale), knobs tuned for the *new* size (oracle),
  and the :class:`~repro.tuning.OnlineTuner` whose membership-epoch
  change-point reset re-tunes live.  The adaptive run must recover at
  least half the speed gap between stale and oracle knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.common import format_table
from repro.experiments.knobs import tuned_knobs
from repro.faults import FaultPlan
from repro.invariants import ChaosOracle
from repro.recovery import MembershipSpec
from repro.training import ClusterSpec, SchedulerSpec
from repro.tuning import SearchSpace
from repro.units import MB

__all__ = [
    "ElasticCell",
    "ElasticResult",
    "run",
    "format_result",
]


@dataclass(frozen=True)
class ElasticCell:
    """One elastic scenario at one seed."""

    scenario: str
    seed: int
    speed: float
    epoch: int
    members_now: int
    detail: str
    ok: bool


@dataclass
class ElasticResult:
    """All scenario cells plus the setup they ran on."""

    model: str
    machines: int
    arch: str
    cells: List[ElasticCell] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(cell.ok for cell in self.cells)


def _make_job(
    model: str,
    cluster: ClusterSpec,
    spec: SchedulerSpec,
    plan_spec: str,
    seed: int,
    min_workers: int = 1,
    oracle: bool = True,
    integrity: bool = False,
):
    from repro.training.job import TrainingJob
    from repro.training.runner import resolve_model

    plan = FaultPlan.parse(f"{plan_spec};seed:{seed}")
    return TrainingJob(
        resolve_model(model),
        cluster,
        spec,
        fault_plan=plan,
        membership_spec=MembershipSpec(min_workers=min_workers),
        oracle=ChaosOracle() if oracle else None,
        integrity=integrity,
    )


def _cluster(machines: int, arch: str, transport: str, seed: int) -> ClusterSpec:
    return ClusterSpec(
        machines=machines,
        gpus_per_machine=8,
        transport=transport,
        arch=arch,
        seed=seed,
    )


def _join_clauses(arch: str, first: int, last: int, at: float) -> str:
    prefix = "w" if arch == "ps" else "m"
    return ";".join(f"join:{prefix}{i}@{at:g}" for i in range(first, last))


def _leave_clauses(arch: str, nodes: Tuple[int, ...], times: Tuple[float, ...]) -> str:
    prefix = "w" if arch == "ps" else "m"
    return ";".join(
        f"leave:{prefix}{n}@{t:g}" for n, t in zip(nodes, times)
    )


def _scale_out_cell(
    model: str,
    spec: SchedulerSpec,
    arch: str,
    transport: str,
    machines: int,
    seed: int,
    measure: int,
) -> ElasticCell:
    cluster = _cluster(machines, arch, transport, seed)
    plan_spec = _join_clauses(arch, machines // 2, machines, 0.5)
    job = _make_job(model, cluster, spec, plan_spec, seed)
    result = job.run(measure=measure, warmup=2)
    built = job._built_iterations
    pre = job.segment_speed(1, 3)
    post = job.segment_speed(built - 3, built)
    epoch = job.membership.epoch
    ratio = post / pre
    ok = ratio > 1.0 and epoch == machines - machines // 2
    return ElasticCell(
        scenario="scale-out",
        seed=seed,
        speed=result.speed,
        epoch=epoch,
        members_now=len(job.membership.active_members),
        detail=f"post/pre speed x{ratio:.2f}",
        ok=ok,
    )


def _scale_in_cell(
    model: str,
    spec: SchedulerSpec,
    arch: str,
    transport: str,
    machines: int,
    seed: int,
    measure: int,
) -> ElasticCell:
    cluster = _cluster(machines, arch, transport, seed)
    plan_spec = _leave_clauses(arch, (1, 2), (0.3, 0.6))
    job = _make_job(model, cluster, spec, plan_spec, seed)
    result = job.run(measure=measure, warmup=2)
    stats = job.membership.stats()
    ok = (
        stats["leaves"] == 2
        and stats["epoch"] == 2
        and len(job.membership.active_members) == machines - 2
    )
    return ElasticCell(
        scenario="scale-in",
        seed=seed,
        speed=result.speed,
        epoch=job.membership.epoch,
        members_now=len(job.membership.active_members),
        detail=(
            f"{stats['credit_refunded_bytes'] / 1e6:.1f} MB credit refunded"
            if arch == "ps"
            else "ring reformed twice"
        ),
        ok=ok,
    )


def _park_cell(
    model: str,
    spec: SchedulerSpec,
    arch: str,
    transport: str,
    machines: int,
    seed: int,
) -> ElasticCell:
    """Dropping below ``min_workers`` parks the job at a boundary."""
    cluster = _cluster(machines, arch, transport, seed)
    nodes = tuple(range(1, machines))
    times = tuple(0.2 + 0.1 * i for i in range(len(nodes)))
    plan_spec = _leave_clauses(arch, nodes, times)
    job = _make_job(model, cluster, spec, plan_spec, seed, min_workers=2)
    parked = False
    try:
        job.run(measure=8, warmup=2)
    except ConfigError:
        # Parked before finishing a single measured iteration — also a
        # clean park, not a deadlock.
        parked = True
    stats = job.membership.stats()
    parked = parked or stats["park_events"] > 0
    return ElasticCell(
        scenario="park",
        seed=seed,
        speed=0.0,
        epoch=job.membership.epoch,
        members_now=len(job.membership.active_members),
        detail=f"{stats['park_events']:.0f} park events, no deadlock",
        ok=parked,
    )


def _storm_cell(
    model: str,
    spec: SchedulerSpec,
    arch: str,
    transport: str,
    machines: int,
    seed: int,
    measure: int,
) -> ElasticCell:
    prefix = "w" if arch == "ps" else "m"
    churn = (
        f"leave:{prefix}1@0.25;join:{prefix}1@0.6;"
        f"leave:{prefix}2@0.9;join:{prefix}2@1.3"
    )
    noise = (
        f"corrupt:{prefix}0.up@0.1-1.5%0.05;"
        f"dup:{prefix}3.up@0.1-1.5%0.05;"
        f"reorder:{prefix}0.down@0.1-1.5%0.1"
    )
    cluster = _cluster(machines, arch, transport, seed)

    def _digest(plan_spec: str):
        job = _make_job(
            model, cluster, spec, plan_spec, seed, integrity=True
        )
        result = job.run(measure=measure, warmup=2)
        return tuple(job.backend.sync_digest()), result, job

    digest_a, result, job = _digest(f"{churn};{noise}")
    digest_b, _, _ = _digest(f"{churn};{noise}")
    clean, _, _ = _digest("loss:0.0")
    deterministic = digest_a == digest_b
    converged = digest_a == clean
    ok = deterministic and converged and job.oracle.violations == 0
    return ElasticCell(
        scenario="storm",
        seed=seed,
        speed=result.speed,
        epoch=job.membership.epoch,
        members_now=len(job.membership.active_members),
        detail=(
            f"digest {'stable' if deterministic else 'UNSTABLE'}, "
            f"{'converged' if converged else 'DIVERGED'}, oracle clean"
        ),
        ok=ok,
    )


def _steady_speed(
    model: str,
    spec: SchedulerSpec,
    cluster: ClusterSpec,
    plan_spec: str,
    seed: int,
    measure: int,
) -> float:
    """Post-join steady-state segment speed of one elastic run."""
    job = _make_job(model, cluster, spec, plan_spec, seed, oracle=False)
    job.run(measure=measure, warmup=2)
    built = job._built_iterations
    return job.segment_speed(built - 3, built)


def _retune_cell(
    model: str,
    transport: str,
    machines: int,
    seed: int,
    measure: int,
    segments: int,
) -> ElasticCell:
    """Stale knobs vs live re-tuning vs oracle knobs on a scale-out.

    Runs on all-reduce regardless of the experiment's main arch: the
    optimal partition grows with the ring there, so doubling the fleet
    genuinely moves the knob optimum (PS table knobs are ring-size
    independent, which would make the stale-vs-oracle gap vacuous).
    """
    from repro.tuning import OnlineTuner

    from repro.training.job import TrainingJob
    from repro.training.runner import resolve_model

    arch = "allreduce"
    cluster = _cluster(machines, arch, transport, seed)
    plan_spec = _join_clauses(arch, machines // 2, machines, 0.4)
    stale_partition, stale_credit = tuned_knobs(
        model, arch, transport, machines=machines // 2
    )
    stale_spec = SchedulerSpec(
        kind="bytescheduler",
        partition_bytes=stale_partition,
        credit_bytes=stale_credit,
    )
    space = SearchSpace(4 * MB, 256 * MB, 8 * MB, 1024 * MB)

    # Stale: half-fleet knobs kept after the fleet doubles.
    stale = _steady_speed(model, stale_spec, cluster, plan_spec, seed, measure)

    # Oracle: knobs tuned from scratch on a static full-size cluster —
    # what a tuner that knew the final membership would converge to.
    static_job = TrainingJob(resolve_model(model), cluster, stale_spec)
    oracle_tuner = OnlineTuner(
        static_job, space=space, seed=seed, segment_iterations=2
    )
    oracle = oracle_tuner.run(
        segments=segments, final_iterations=3
    ).final_speed

    # Adaptive: same elastic run, epoch change-point reset re-tunes.
    job = _make_job(model, cluster, stale_spec, plan_spec, seed, oracle=False)
    tuner = OnlineTuner(job, space=space, seed=seed, segment_iterations=2)
    tuned = tuner.run(segments=segments, final_iterations=3)
    adaptive = tuned.final_speed

    # A gap below measurement noise means the stale knobs already match
    # from-scratch tuning (flat knob landscape): then the reset must at
    # least not regress the job.  Otherwise it must recover >= half.
    gap = oracle - stale
    meaningful = gap > 0.02 * stale
    recovered = (adaptive - stale) / gap if meaningful else 1.0
    ok = tuned.change_points >= 1 and (
        recovered >= 0.5 if meaningful else adaptive >= 0.95 * stale
    )
    return ElasticCell(
        scenario="retune",
        seed=seed,
        speed=adaptive,
        epoch=job.membership.epoch,
        members_now=len(job.membership.active_members),
        detail=(
            f"stale {stale:,.0f} -> adaptive {adaptive:,.0f} "
            f"(oracle {oracle:,.0f}, {recovered * 100:.0f}% of gap, "
            f"{tuned.change_points} resets)"
        ),
        ok=ok,
    )


def run(
    model: str = "vgg16",
    arch: str = "ps",
    transport: str = "tcp",
    machines: int = 8,
    seeds: Tuple[int, ...] = (0, 1, 2),
    measure: int = 10,
    fast: bool = False,
) -> ElasticResult:
    """All four elastic scenarios across ``seeds``."""
    if fast:
        seeds = seeds[:1]
        measure = 6
    partition, credit = tuned_knobs(model, arch, transport, machines=4)
    spec = SchedulerSpec(
        kind="bytescheduler", partition_bytes=partition, credit_bytes=credit
    )
    result = ElasticResult(model=model, machines=machines, arch=arch)
    for seed in seeds:
        result.cells.append(
            _scale_out_cell(model, spec, arch, transport, machines, seed, measure)
        )
        result.cells.append(
            _scale_in_cell(model, spec, arch, transport, machines // 2, seed, measure)
        )
        result.cells.append(
            _park_cell(model, spec, arch, transport, machines // 2, seed)
        )
        result.cells.append(
            _storm_cell(
                model, spec, arch, transport, machines // 2, seed,
                measure=6 if fast else 8,
            )
        )
        result.cells.append(
            _retune_cell(
                model, transport, machines, seed,
                measure=measure, segments=4 if fast else 6,
            )
        )
    return result


def format_result(result: ElasticResult) -> str:
    """One row per scenario per seed."""
    rows: List[List[object]] = []
    for cell in result.cells:
        rows.append(
            [
                cell.scenario,
                cell.seed,
                f"{cell.speed:,.0f}" if cell.speed else "-",
                cell.epoch,
                cell.members_now,
                cell.detail,
                "ok" if cell.ok else "FAIL",
            ]
        )
    table = format_table(
        [
            "scenario",
            "seed",
            "speed (sm/s)",
            "epoch",
            "members",
            "detail",
            "check",
        ],
        rows,
        title=(
            f"Elastic membership: {result.model}, {result.arch}, "
            f"{result.machines} machines max "
            "(join/leave scale events, epoch-fenced)"
        ),
    )
    verdict = (
        "all checks passed"
        if result.all_ok
        else "SOME CHECKS FAILED — see the rows marked FAIL"
    )
    return table + (
        "\nScale-out must speed the job up, scale-in must refund "
        "credits and resize barriers, a below-floor drop must park "
        "(never deadlock), storms must keep the parameter digest "
        "deterministic and converged, and the online tuner's epoch "
        f"reset must recover at least half the knob gap: {verdict}."
    )
