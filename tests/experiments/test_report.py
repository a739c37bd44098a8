"""Tests for the one-shot reproduction report."""

import io
import subprocess
import sys

from repro.cli import build_parser
from repro.experiments import report
from repro.experiments.report import EXPERIMENTS, Experiment, generate_report


def _reproduce_choices():
    commands = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    target = next(
        action for action in commands.choices["reproduce"]._actions
        if action.dest == "target"
    )
    return list(target.choices)


def test_registry_drives_cli_choices_and_report(monkeypatch):
    assert _reproduce_choices() == [*EXPERIMENTS, "all"]
    titles = " ".join(experiment.title for experiment in EXPERIMENTS.values())
    for token in (
        "Figure 2", "Figure 4", "Figure 9", "Figure 10", "Figure 11",
        "Figure 12", "Figure 13", "Figure 14", "Table 1", "P3", "bounds",
        "Ablations", "extensions", "co-scheduling", "Faults", "Recovery",
        "Integrity", "DeAR", "Cluster", "Elastic", "Drift",
    ):
        assert token in titles, token

    calls = []

    def stub(name):
        return lambda fast: calls.append((name, fast)) or f"{name} body"

    monkeypatch.setattr(report, "EXPERIMENTS", {
        "skipped": Experiment("skipped", "Skipped", stub("skipped"), in_all=False),
        "second": Experiment("second", "Second", stub("second")),
        "first": Experiment("first", "First", stub("first")),
    })
    text = generate_report(fast=False)
    assert calls == [("second", False), ("first", False)]
    assert text.index("## Second") < text.index("## First")
    assert "Skipped" not in text


def test_importing_experiments_is_lazy():
    code = (
        "import sys, repro.experiments, repro.training.runner\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith("
        "('scipy.', 'repro.experiments.figure'))]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_generate_report_filtered_section():
    stream = io.StringIO()
    text = generate_report(fast=True, stream=stream, sections=["Figure 2"])
    assert "# ByteScheduler reproduction report" in text
    assert "44.4%" in text
    assert "Figure 14" not in text
    assert "[report] Figure 2" in stream.getvalue()


def test_generate_report_table1_section():
    text = generate_report(fast=True, sections=["Table 1"])
    assert "Table 1: best partition/credit sizes" in text


def test_generate_report_writes_json_index(tmp_path):
    import json

    path = tmp_path / "report.json"
    generate_report(fast=True, sections=["Figure 2"], json_out=str(path))
    data = json.loads(path.read_text())
    assert data["generator"] == "repro.experiments.report"
    assert data["fast"] is True
    assert len(data["sections"]) == 1
    section = data["sections"][0]
    assert section["title"].startswith("Figure 2")
    assert section["status"] == "ok"
    assert "44.4%" in section["body"]
    assert data["total_seconds"] >= 0.0

