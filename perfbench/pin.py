"""Regenerate ``pins.json``: every job's simulated speed and digest hash
for the shipped seeds (the default seed and one held-out seed).

Run from the repository root: ``python3 perfbench/pin.py``.  Only do so
for a change that alters simulated behaviour on purpose, and say so.
"""

from __future__ import annotations

import json
import sys

import run

#: The default ``--seed`` of run.py, and a seed held out from tuning.
SEEDS = (1, 2)


def main() -> int:
    run.import_program()
    import workloads

    pins = {}
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            checker = run.Checker({})
            run.run_pass(workloads.points(workload, seed), checker, None, run.HostSpeed())
            if checker.failed:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            pins.setdefault(str(seed), {})[workload] = {
                label: list(output) for label, output in checker.reference.items()
            }
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
