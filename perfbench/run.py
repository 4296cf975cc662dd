"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search_oracle --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics of a separate traced run. The line
before the result carries the drift evidence: run metadata, git sha,
1-minute load average before the run and the working process's CPU time.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("search_oracle", "serve_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> None:
    """Make ``repro`` and the benchmark modules importable; keep files local."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'repro'}")
    if not SPEC.is_file():
        raise SystemExit(f"error: no {SPEC.name} at {ROOT}")
    os.chdir(ROOT)
    tmp = ROOT / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # children and tempfile stay in the checkout
    sys.path[:0] = [str(ROOT), str(SRC)]


def run_workload(name: str, seed: int, seconds: float, spans):
    """Dispatch to a workload module; returns its :class:`common.Outcome`."""
    from perfbench.common import DeterminismRecord, source_digest

    record = DeterminismRecord(name, source_digest(SRC))
    if name == "search_oracle":
        from perfbench import search

        outcome = search.run(search.ORACLE, seed, seconds, spans, record)
    else:
        from perfbench import serve

        outcome = serve.run(seed, seconds, spans, SRC)
    if outcome.correct:
        record.save()
    return outcome


def result_line(outcome, spec: dict, traced: bool) -> dict:
    """The final JSON object: every declared metric of the run's kind.

    A traced run of a workload that does not exercise a layer reports that
    layer's metrics as 0.
    """
    values = outcome.per_layer if traced else outcome.end_to_end
    metrics = {}
    for metric in spec["per_layer" if traced else "end_to_end"]:
        name = metric["name"]
        if traced:
            value = values.get(name, 0.0)
        elif name in values:
            value = values[name]
        else:
            raise RuntimeError(f"workload did not measure {name}")
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    prepare()
    from perfbench.common import OUT_DIR, Spans, git_sha

    from repro.obs import run_metadata

    spec = json.loads(SPEC.read_text())
    load_before = os.getloadavg()[0]
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    spans = Spans(run_id, enabled=bool(args.trace))
    outcome = run_workload(args.workload, args.seed, args.seconds, spans)
    if not outcome.end_to_end:
        print("error: " + "; ".join(outcome.errors or ["no work completed"]), file=sys.stderr)
        return 1
    if args.trace:
        spans.write(OUT_DIR / "traces" / f"{run_id}.jsonl")
    evidence = {
        "run_id": run_id,
        "runmeta": run_metadata(),
        "git_sha": git_sha(ROOT),
        "load_1m_before": load_before,
        "notes": outcome.notes,
        "errors": outcome.errors[:5],
    }
    print(json.dumps(evidence))
    print(json.dumps(result_line(outcome, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
