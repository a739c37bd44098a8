"""The experiment registry and the one-shot reproduction report.

:data:`EXPERIMENTS` is the single list of reproduce targets: the CLI's
``reproduce <name>`` prints ``EXPERIMENTS[name].render(fast)``, and
``reproduce all`` (:func:`generate_report`) runs every ``in_all`` entry
in registry order into one markdown document — the machine-generated
companion to the hand-curated EXPERIMENTS.md.  Each renderer imports
its figure module when it runs, so importing the registry is cheap.

Alongside the markdown, ``json_out`` emits a machine-readable section
index — per-section status, wall time, and body — so dashboards and
regression tooling can consume the run without scraping printed tables.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, TextIO

__all__ = ["Experiment", "EXPERIMENTS", "generate_report"]


@dataclass(frozen=True)
class Experiment:
    """One reproduce target; ``render(fast)`` runs it and returns its text."""

    name: str
    title: str
    render: Callable[[bool], str]
    #: Whether ``reproduce all`` runs it.
    in_all: bool = True


def _figure2(fast: bool) -> str:
    from repro.experiments import figure2

    return figure2.format_result(figure2.run())


def _figure4(fast: bool) -> str:
    from repro.experiments import figure4

    sizes = (100, 250, 700) if fast else (100, 160, 250, 400, 550, 700)
    return figure4.format_result(figure4.run(machines=2, measure=2, sizes_kb=sizes))


def _figure9(fast: bool) -> str:
    from repro.experiments import figure9

    return figure9.format_result(figure9.run(machines=2 if fast else 4))


def _speed_grid(model: str, fast: bool) -> str:
    from repro.experiments import figure10_12

    grid = figure10_12.run_model(
        model,
        machines_list=(1, 2) if fast else (1, 2, 4, 8),
        measure=2 if fast else 3,
    )
    return figure10_12.format_model_grid(grid)


def _figure13(fast: bool) -> str:
    from repro.experiments import figure13

    models = ("vgg16",) if fast else ("vgg16", "resnet50", "transformer")
    return figure13.format_result(
        figure13.run(models=models, machines=2 if fast else 4, measure=2)
    )


def _figure14(fast: bool) -> str:
    from repro.experiments import figure14

    return figure14.format_result(
        figure14.run(machines=2, seeds=(0,) if fast else (0, 1, 2))
    )


def _table1(fast: bool) -> str:
    from repro.experiments import table1

    return table1.format_result(
        table1.run(machines=2 if fast else 4, trials=6 if fast else 10)
    )


def _p3(fast: bool) -> str:
    from repro.experiments import extra

    machines = 2 if fast else 4
    return (
        extra.format_p3(extra.run_p3_comparison(machines=machines))
        + "\n\n"
        + extra.format_extra_models(extra.run_extra_models(machines=machines))
    )


def _bounds(fast: bool) -> str:
    from repro.experiments import bounds_check

    return bounds_check.format_result(bounds_check.run(machines=2 if fast else 4))


def _ablations(fast: bool) -> str:
    from repro.experiments import ablations

    machines = 2 if fast else 4
    parts = [
        ablations.format_ablation(runner(machines=machines))
        for runner in (
            ablations.credit_ablation,
            ablations.partition_ablation,
            ablations.barrier_ablation,
            ablations.sharding_ablation,
        )
    ]
    parts.append(
        ablations.format_ablation(ablations.fusion_ablation(machines=8, measure=2))
    )
    return "\n\n".join(parts)


def _extensions(fast: bool) -> str:
    from repro.experiments import extensions

    machines = 2 if fast else 4
    return "\n\n".join(
        [
            extensions.format_per_layer(extensions.per_layer_partitions(machines=machines)),
            extensions.format_online(
                extensions.online_tuning_trajectory(machines=machines, segments=5 if fast else 8)
            ),
            extensions.format_async(extensions.async_vs_sync(machines=machines)),
        ]
    )


def _coscheduling(fast: bool) -> str:
    from repro.experiments import coscheduling

    return coscheduling.format_result(coscheduling.run(machines=2 if fast else 4))


def _faults(fast: bool) -> str:
    from repro.experiments import faults

    return faults.format_result(faults.run(machines=2, measure=2 if fast else 3))


def _recovery(fast: bool) -> str:
    from repro.experiments import recovery

    kwargs = {}
    if fast:
        kwargs = dict(
            measure=3,
            crash_times=(0.4,),
            restart_delays=(0.1,),
            checkpoint_intervals=(0.05, 0.2),
        )
    return recovery.format_result(recovery.run(machines=2, **kwargs))


def _integrity(fast: bool) -> str:
    from repro.experiments import faults

    measure = 2 if fast else 3
    return (
        faults.format_integrity(faults.run_integrity(machines=2, measure=measure))
        + "\n\n"
        + faults.format_dear_integrity(
            faults.run_dear_integrity(machines=2, measure=measure)
        )
    )


def _dear(fast: bool) -> str:
    from repro.experiments import dear

    return dear.format_result(
        dear.run(machines=2 if fast else 4, measure=2 if fast else 3)
    )


def _cluster(fast: bool) -> str:
    from repro.experiments import cluster

    return cluster.format_result(
        cluster.run(jobs=80 if fast else 200, seeds=(0,) if fast else (0, 1, 2))
    )


def _elastic(fast: bool) -> str:
    from repro.experiments import elastic

    return elastic.format_result(elastic.run(fast=fast))


def _drift(fast: bool) -> str:
    from repro.experiments import drift

    return drift.format_result(drift.run(fast=fast))


#: Every reproduce target, keyed by its CLI name, in report order.
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment("figure2", "Figure 2 — contrived example", _figure2),
        Experiment("figure4", "Figure 4 — FIFO knob sweeps", _figure4),
        Experiment("figure9", "Figure 9 — BO search trace", _figure9),
        Experiment("figure10", "Figure 10 — VGG16 speed grid",
                   partial(_speed_grid, "vgg16")),
        Experiment("figure11", "Figure 11 — ResNet50 speed grid",
                   partial(_speed_grid, "resnet50")),
        Experiment("figure12", "Figure 12 — Transformer speed grid",
                   partial(_speed_grid, "transformer")),
        Experiment("figure13", "Figure 13 — bandwidth sweep", _figure13),
        Experiment("figure14", "Figure 14 — search costs", _figure14),
        Experiment("table1", "Table 1 — best knobs", _table1),
        Experiment("p3", "§6.2 — P3 and extra models", _p3),
        Experiment("bounds", "§4.1 — bounds check", _bounds),
        Experiment("ablations", "Ablations", _ablations),
        Experiment("extensions", "§7 extensions", _extensions),
        Experiment("coscheduling", "§7 co-scheduling", _coscheduling),
        Experiment("faults", "Faults — stragglers, slow links, loss", _faults),
        Experiment("recovery", "Recovery — crash and restart", _recovery),
        Experiment("integrity", "Integrity — corrupt, dup, reorder", _integrity),
        Experiment("dear", "DeAR — decoupled all-reduce", _dear),
        Experiment("cluster", "Cluster — multi-job scheduling", _cluster),
        Experiment("elastic", "Elastic — join, leave, park", _elastic),
        # Its --fast sweep alone takes about five times as long as
        # every other entry together.
        Experiment("drift", "Drift — tuners under drift", _drift, in_all=False),
    )
}


def generate_report(
    fast: bool = True,
    stream: Optional[TextIO] = None,
    sections: Optional[List[str]] = None,
    json_out: Optional[str] = None,
) -> str:
    """Run every ``in_all`` experiment and return the markdown report.

    ``sections`` optionally filters by (substring of) section title;
    ``stream`` receives progress lines as sections complete;
    ``json_out`` additionally writes the machine-readable section index.
    """
    out = io.StringIO()
    out.write("# ByteScheduler reproduction report\n\n")
    out.write(
        "Generated by `repro.experiments.report`"
        f"{' (fast mode)' if fast else ''}.  See EXPERIMENTS.md for the "
        "paper-vs-measured commentary.\n"
    )
    records: List[Dict[str, Any]] = []
    for experiment in EXPERIMENTS.values():
        title = experiment.title
        wanted = not sections or any(want.lower() in title.lower() for want in sections)
        if not (experiment.in_all and wanted):
            continue
        started = time.time()
        body = experiment.render(fast)
        elapsed = time.time() - started
        records.append(
            {"title": title, "seconds": elapsed, "status": "ok", "body": body}
        )
        if stream is not None:
            stream.write(f"[report] {title} ({elapsed:.1f}s)\n")
            stream.flush()
        out.write(f"\n## {title}\n\n```\n{body}\n```\n")
    if json_out:
        envelope = {
            "generator": "repro.experiments.report",
            "fast": fast,
            "sections": records,
            "total_seconds": sum(record["seconds"] for record in records),
        }
        with open(json_out, "w") as handle:
            json.dump(envelope, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return out.getvalue()
