"""Golden digests of the fast reproduce suite.

Pins the sha256 of ``EXPERIMENTS[name].render(fast=True)`` for every
registry entry that renders in under about 3 s, so a refactor that
moves one printed number fails here instead of in a hand-run diff of
``reproduce all --fast``.  Moving a digest is a deliberate act: rerun
``PYTHONPATH=src python -m tests.golden.test_fast_suite`` to rewrite
the table, and say in CHANGES.md which digest moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.report import EXPERIMENTS

GOLDEN_PATH = Path(__file__).with_name("fast_suite.json")

#: Entries cheap enough for the tier-1 lane; the rest (figure4, 10,
#: 13, 14, table1, p3, elastic, drift) belong to the nightly lane.
FAST_ENTRIES = (
    "figure2",
    "figure9",
    "figure11",
    "figure12",
    "bounds",
    "ablations",
    "extensions",
    "coscheduling",
    "faults",
    "recovery",
    "integrity",
    "dear",
    "cluster",
)


def render_digest(name: str) -> str:
    body = EXPERIMENTS[name].render(True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", FAST_ENTRIES)
def test_fast_render_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert render_digest(name) == golden[name]


if __name__ == "__main__":
    table = {name: render_digest(name) for name in FAST_ENTRIES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")
