"""Benchmark plumbing: run each experiment once, save its report to disk.

``pytest benchmarks/ --benchmark-only`` regenerates every table and figure of
the paper at the scaled-down SMOKE/DEFAULT profiles and writes the formatted
reports to ``benchmarks/reports/``. Pass ``--profile=default`` (or ``full``,
hours of compute) to rescale.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# The seed inner loop the search-throughput bench measures against lives
# in tests/reference/ (imported as ``reference``). tests/ is not a
# package, and a bench-only run never loads tests/conftest.py, so put it
# on the path here.
sys.path.insert(0, str(ROOT / "tests"))

REPORT_DIR = Path(__file__).resolve().parent / "reports"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "serial: timing-ratio benchmark; must not run concurrently with "
        "other CPU-heavy work (see fig10)",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--profile",
        action="store",
        default="smoke",
        choices=["smoke", "default", "full"],
        help="Experiment scale profile (smoke | default | full)",
    )


@pytest.fixture(scope="session")
def profile(request):
    from repro.experiments import DEFAULT, FULL, SMOKE

    return {"smoke": SMOKE, "default": DEFAULT, "full": FULL}[
        request.config.getoption("--profile")
    ]


@pytest.fixture(scope="session")
def sized_profile(profile):
    """The selected profile with floors on dataset size and RL schedule.

    Sweep-style figures (learning curves, threshold/hyper-parameter sweeps)
    are uninformative on sub-100-sample datasets where every arm lands on the
    same quantized CV score; this keeps the method budgets of the selected
    profile but guarantees enough data/episodes for the sweeps to resolve.
    """
    import dataclasses

    return dataclasses.replace(
        profile,
        dataset_scale=max(profile.dataset_scale, 0.25),
        episodes=max(profile.episodes, 6),
        steps_per_episode=max(profile.steps_per_episode, 4),
        cold_start_episodes=max(profile.cold_start_episodes, 2),
    )


@pytest.fixture(scope="session")
def save_report():
    from repro.obs import run_metadata_header

    REPORT_DIR.mkdir(exist_ok=True)

    def _save(name: str, report: str) -> None:
        path = REPORT_DIR / f"{name}.txt"
        # Perf numbers are only interpretable with the producing machine
        # attached; every report leads with the environment header.
        path.write_text(run_metadata_header() + "\n" + report + "\n")
        print(f"\n{report}\n[report saved to {path}]")

    return _save
