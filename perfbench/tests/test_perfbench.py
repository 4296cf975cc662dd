"""Tiny-size runs of every benchmark workload.

Each workload runs at a small size for about a second and must emit every
metric named in ``BENCHMARK.json`` with its unit; a corrupted output (a
changed plan, a tampered response) must trip the
workload's correctness check.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
for path in (str(ROOT), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import search, serve  # noqa: E402
from perfbench.common import DeterminismRecord, Spans  # noqa: E402
from perfbench.run import result_line  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_SEARCH = search.SearchShape(
    rows=120, episodes=2, steps_per_episode=2, cold_start_episodes=1, component_epochs=1,
    max_features=None, setup_reps=1,
)
TINY_SERVE = serve.ServeShape(
    train_rows=120, plan_width=3, n_trees=2, bulk_rows=64, small_rows=4, bulk_bodies=2,
    small_bodies=2, small_rate_hz=20.0, setup_reps=1, warmup_requests=1,
)

# Metrics each workload must measure itself, not report as an absent layer.
OWN_LAYERS = {
    "search": ("core.", "ml.oracle_", "proc.", "trace."),
    "serve": ("serve.", "loadgen.", "ml.forest_", "proc.", "trace."),
}


@pytest.fixture(autouse=True)
def checkout_dir(tmp_path, monkeypatch):
    """Each test writes its records and scratch files under its own directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(kind: str, traced: bool = True, tamper=None):
    spans = Spans(f"test-{kind}", enabled=traced)
    if kind == "search":
        record = DeterminismRecord("search_oracle", "test")
        return search.run(TINY_SEARCH, 0, 0.1, spans, record, tamper=tamper)
    return serve.run(0, 1.0, spans, SRC, shape=TINY_SERVE, tamper=tamper)


@pytest.mark.parametrize("kind", ["search", "serve"])
def test_every_metric_is_emitted_with_its_unit(kind):
    outcome = _run(kind)
    assert outcome.correct, outcome.errors
    assert outcome.attempted > 0 and outcome.failed == 0
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        line = result_line(outcome, SPEC, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert outcome.end_to_end["success_frac"] == 1.0
    own = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith(OWN_LAYERS[kind])]
    missing = [name for name in own if name not in outcome.per_layer]
    assert not missing, missing


def test_changed_plan_trips_the_check():
    def tamper(k, result):
        if k != 1:
            return result
        plan = dataclasses.replace(result.plan, live_ids=result.plan.live_ids[:-1])
        return dataclasses.replace(result, plan=plan)

    outcome = _run("search", traced=False, tamper=tamper)
    assert not outcome.correct
    assert outcome.failed > 0
    assert outcome.end_to_end["success_frac"] < 1.0
    assert "differs" in outcome.errors[0]


def test_changed_plan_across_runs_trips_the_check():
    """A later run of the same seed is compared with what an earlier run saved."""
    record = DeterminismRecord("search_oracle", "test")
    assert search.run(TINY_SEARCH, 0, 0.1, Spans("a", enabled=False), record).correct
    record.save()

    def tamper(k, result):
        return dataclasses.replace(result, best_score=result.best_score + 1e-9)

    outcome = search.run(TINY_SEARCH, 0, 0.1, Spans("b", enabled=False),
                         DeterminismRecord("search_oracle", "test"), tamper=tamper)
    assert not outcome.correct
    assert outcome.failed > 0


def test_tampered_response_trips_the_check():
    def tamper(kind, index, data):
        if kind == "bulk" and index == 1:
            return data.replace(b'"predictions": [', b'"predictions": [7, ', 1)
        return data

    outcome = _run("serve", traced=False, tamper=tamper)
    assert not outcome.correct
    assert outcome.failed > 0
    assert outcome.end_to_end["success_frac"] < 1.0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
