"""Shared pieces of the benchmark: spans, statistics, process facts, results.

Nothing here imports ``repro`` at module level, so ``run.py`` can report a
missing source tree with a clean error before any workload is loaded.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# Every file a run writes lives under this directory of the checkout.
OUT_DIR = Path(".bench_out")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


class Spans:
    """In-memory span recorder for one workload run.

    A span has a name, start and end (``perf_counter`` seconds), an id and
    the id of the span that was open on the same thread when it began.
    Every span of a run carries the run's id. ``enabled=False`` makes
    :meth:`span` a no-op, so the untraced runs pay nothing.
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = {
            "run": self.run_id,
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            **attrs,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.records.append(record)

    def self_times(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append((r["start"], r["end"]))
        out = []
        for r in self.records:
            if r["name"] != name:
                continue
            covered, cursor = 0.0, r["start"]
            for start, end in sorted(children.get(r["id"], [])):
                start, end = max(start, cursor), min(end, r["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out.append(r["end"] - r["start"] - covered)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.records, key=lambda r: r["start"]):
                fh.write(json.dumps(record) + "\n")


def cpu_seconds(children: bool = False) -> float:
    t = os.times()
    return t.children_user + t.children_system if children else t.user + t.system


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """Hash of the program's source, keying the cross-run determinism record."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Outcome:
    """What a workload run returns: checks, counts and metric values."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.errors.append(message)
        self.failed += count

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.attempted > 0


class DeterminismRecord:
    """Remembers each unit's output digest across runs in one checkout.

    Keyed by workload, unit key and the program's source digest, so a
    changed program never compares against a stale record.
    """

    def __init__(self, workload: str, program: str) -> None:
        self.path = OUT_DIR / "determinism" / f"{workload}-{program}.json"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, digest: str) -> bool:
        """True when ``digest`` matches what earlier runs saw for ``key``."""
        previous = self.known.setdefault(key, digest)
        return previous == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)
