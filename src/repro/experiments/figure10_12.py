"""Figures 10, 11, 12: the headline speed grid.

One figure per model (VGG16 / ResNet50 / Transformer); per figure, the
five setups of §6.1 over 8-64 GPUs with three lines each — baseline
(vanilla framework), ByteScheduler (tuned knobs), and linear scaling —
plus P3 on the MXNet-PS-TCP subplot and DeAR (knob-free decoupled
phases) on the all-reduce subplots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.experiments.common import (
    PAPER_SETUPS,
    format_table,
    setup_cluster,
)
from repro.training import SchedulerSpec

__all__ = ["SetupGrid", "ModelGrid", "run_model", "format_model_grid", "speedup_band"]

#: Machine counts shown on the paper's x-axis (8 GPUs per machine).
DEFAULT_MACHINES = (1, 2, 4, 8)

#: Only MXNet PS TCP gets the P3 line (P3's only supported setup).
P3_SETUP = ("mxnet", "ps", "tcp")


@dataclass
class SetupGrid:
    """One subplot: speeds per GPU count for each line."""

    framework: str
    arch: str
    transport: str
    gpus: List[int] = field(default_factory=list)
    baseline: List[float] = field(default_factory=list)
    bytescheduler: List[float] = field(default_factory=list)
    linear: List[float] = field(default_factory=list)
    p3: Optional[List[float]] = None
    #: DeAR line — all-reduce subplots only (its phases are collective).
    dear: Optional[List[float]] = None

    @property
    def label(self) -> str:
        return f"{self.framework}-{self.arch}-{self.transport}"

    def speedups(self) -> List[float]:
        """Per-scale ByteScheduler-vs-baseline fractional speedups."""
        return [
            bs / base - 1.0
            for bs, base in zip(self.bytescheduler, self.baseline)
        ]


@dataclass
class ModelGrid:
    """One figure: all subplots for one model."""

    model: str
    setups: List[SetupGrid] = field(default_factory=list)


def run_model(
    model: str,
    machines_list: Sequence[int] = DEFAULT_MACHINES,
    setups: Sequence[Tuple[str, str, str]] = tuple(PAPER_SETUPS),
    measure: int = 4,
    include_p3: bool = True,
    include_dear: bool = True,
    p3_measure: int = 2,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> ModelGrid:
    """Produce the full grid for one model (one paper figure).

    Every point of the grid is an independent trial, so the whole
    figure is expanded into one flat trial list and executed through
    :func:`repro.training.trials.run_trials` — serially by
    default, over a process pool with ``workers``, memoised with
    ``cache_dir`` (both fall back to the active parallel session).
    The assembled numbers are identical on every path.
    """
    from dataclasses import replace

    from repro.training import trials as par
    from repro.experiments.common import bytescheduler_candidates

    if workers is None:
        workers = par.active_workers()
    cache = par.ResultCache(cache_dir) if cache_dir is not None else par.active_cache()

    fifo = SchedulerSpec(kind="fifo")
    specs: List[par.TrialSpec] = []

    def add(cluster, scheduler, trial_measure, trial_warmup=2) -> int:
        specs.append(
            par.TrialSpec(
                model=model,
                cluster=cluster,
                scheduler=scheduler,
                measure=trial_measure,
                warmup=trial_warmup,
            )
        )
        return len(specs) - 1

    # Expansion pass: record which trial indices feed which cell.
    plan = []
    for framework, arch, transport in setups:
        wants_p3 = include_p3 and (framework, arch, transport) == P3_SETUP
        wants_dear = include_dear and arch == "allreduce"
        points = []
        for machines in machines_list:
            cluster = setup_cluster(framework, arch, transport, machines)
            single = replace(
                cluster, machines=1, num_servers=None, arch="allreduce"
            )
            point = {
                "gpus": cluster.num_gpus,
                "machines": machines,
                "baseline": add(cluster, fifo, measure),
                "bytescheduler": [
                    add(
                        cluster,
                        SchedulerSpec(
                            kind="bytescheduler",
                            partition_bytes=partition,
                            credit_bytes=credit,
                        ),
                        measure,
                    )
                    for partition, credit in bytescheduler_candidates(
                        model, cluster
                    )
                ],
                # linear_scaling_speed's reference run, deduplicated by
                # the cache across scale points (it is scale-invariant).
                "linear": add(single, fifo, 6),
                "p3": add(cluster, SchedulerSpec(kind="p3"), p3_measure)
                if wants_p3
                else None,
                "dear": add(cluster, SchedulerSpec(kind="dear"), measure)
                if wants_dear
                else None,
            }
            points.append(point)
        plan.append(((framework, arch, transport), wants_p3, wants_dear, points))

    payloads = par.run_trials(specs, workers=workers, cache=cache)
    speeds = [par.result_from_payload(payload).speed for payload in payloads]

    grid = ModelGrid(model=model)
    for (framework, arch, transport), wants_p3, wants_dear, points in plan:
        subplot = SetupGrid(framework=framework, arch=arch, transport=transport)
        if wants_p3:
            subplot.p3 = []
        if wants_dear:
            subplot.dear = []
        for point in points:
            subplot.gpus.append(point["gpus"])
            subplot.baseline.append(speeds[point["baseline"]])
            subplot.bytescheduler.append(
                max(speeds[index] for index in point["bytescheduler"])
            )
            subplot.linear.append(speeds[point["linear"]] * point["machines"])
            if wants_p3:
                subplot.p3.append(speeds[point["p3"]])
            if wants_dear:
                subplot.dear.append(speeds[point["dear"]])
        grid.setups.append(subplot)
    return grid


def speedup_band(subplot: SetupGrid) -> Tuple[float, float]:
    """(min, max) ByteScheduler speedup across scales — the numbers the
    paper prints under each subplot."""
    ups = subplot.speedups()
    return min(ups), max(ups)


def format_model_grid(grid: ModelGrid) -> str:
    """Paper-style text rendering of one figure."""
    blocks: List[str] = []
    for subplot in grid.setups:
        low, high = speedup_band(subplot)
        headers = ["# GPUs", "baseline", "bytescheduler", "linear"]
        rows: List[List[object]] = []
        for index, gpus in enumerate(subplot.gpus):
            row: List[object] = [
                gpus,
                subplot.baseline[index],
                subplot.bytescheduler[index],
                subplot.linear[index],
            ]
            if subplot.p3 is not None:
                row.append(subplot.p3[index])
            if subplot.dear is not None:
                row.append(subplot.dear[index])
            rows.append(row)
        if subplot.p3 is not None:
            headers = headers + ["p3"]
        if subplot.dear is not None:
            headers = headers + ["dear"]
        title = (
            f"{grid.model} | {subplot.label} "
            f"(ByteScheduler speedup {low * 100:.0f}%-{high * 100:.0f}%)"
        )
        blocks.append(format_table(headers, rows, title=title))
    return "\n\n".join(blocks)
