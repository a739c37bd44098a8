"""Summarise sets of benchmark runs, and compare two sets.

Each input file holds the standard output of one ``run.py`` invocation
(its last two lines are the metadata and the result).  Usage::

    python3 perfbench/summarize.py RUNS_DIR            # medians, quartiles
    python3 perfbench/summarize.py NEW_DIR --against OLD_DIR

End-to-end metrics are summarised per workload as the median and the
quartiles of ``statistics.quantiles(values, n=4)``; *spread* is the
interquartile distance as a share of the median.  With ``--against``,
each new median is compared with the old one and the metric's bound in
``BENCHMARK.json``.  Per-layer values that the simulation determines
(see ``is_exact``) are compared seed by seed: any difference is reported as a
change, never as noise.  Exit status 1 means a failed run, a median
beyond its bound, or a changed exact value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def is_exact(name: str) -> bool:
    """Per-layer values fixed by the simulation, not by the host."""
    return name.endswith("_per_iter") or name in (
        "training.sim_iter_ms",
        "training.exposed_comm_share",
        "recovery.recoveries",
    )


def load(directory: Path):
    """``{(workload, trace): [(seed, result), ...]}`` for every run file."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            raise SystemExit(f"{path}: no result (did the run fail?)")
        meta = json.loads(lines[-2])["meta"]
        runs[(meta["workload"], meta["trace"])].append((meta["seed"], json.loads(lines[-1])))
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "runs": len(values),
    }


def summarise(runs) -> dict:
    out: dict = {}
    for (workload, trace), results in sorted(runs.items()):
        section = out.setdefault(workload, {})
        names = results[0][1]["metrics"].keys()
        if trace:
            section["per_layer"] = {
                name: {
                    str(seed): result["metrics"][name]["value"] for seed, result in results
                }
                for name in names
            }
        else:
            section["end_to_end"] = {
                name: summary([result["metrics"][name]["value"] for _, result in results])
                for name in names
            }
        section.setdefault("failed_runs", 0)
        section["failed_runs"] += sum(not result["correct"] for _, result in results)
    return out


def compare(new: dict, old: dict, bounds: dict) -> list:
    problems = []
    for workload, section in new.items():
        before = old.get(workload, {})
        for name, stats in section.get("end_to_end", {}).items():
            if name not in before.get("end_to_end", {}):
                continue
            spec = bounds[name]
            base = before["end_to_end"][name]["median"]
            change = stats["median"] / base - 1.0
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            print(f"{workload:24s} {name:18s} {base:12.6g} -> {stats['median']:12.6g} "
                  f"{change:+7.1%} (bound {spec['bound']:.0%}) {verdict}")
            if verdict != "ok":
                problems.append(f"{workload} {name} worse by {worse:.1%}")
        old_layers = before.get("per_layer", {})
        for name, by_seed in section.get("per_layer", {}).items():
            if not is_exact(name) or name not in old_layers:
                continue
            for seed, value in by_seed.items():
                if seed in old_layers[name] and old_layers[name][seed] != value:
                    problems.append(
                        f"{workload} {name} seed {seed}: CHANGED "
                        f"{old_layers[name][seed]!r} -> {value!r}"
                    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    new = summarise(load(args.runs))
    problems = [
        f"{workload}: {section['failed_runs']} runs not correct"
        for workload, section in new.items()
        if section["failed_runs"]
    ]
    if args.against is None:
        print(json.dumps(new, indent=2, sort_keys=True))
        for workload, section in new.items():
            for name, stats in section.get("end_to_end", {}).items():
                limit = bounds[name]["bound"] / 3
                if stats["spread"] > limit:
                    problems.append(
                        f"{workload} {name}: spread {stats['spread']:.3f} > bound/3 {limit:.3f}"
                    )
    else:
        problems += compare(new, summarise(load(args.against)), bounds)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
