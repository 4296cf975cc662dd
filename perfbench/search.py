"""The closed-loop search workload ``search_oracle``.

One caller steps one :class:`repro.core.session.SearchSession` at a time
through ``api.session(...)`` and ``session.step()``. A run repeats whole
searches until its time is up. The first two searches use the same seed
and must agree exactly; later searches use fresh seeds derived from the
run's seed, so one run averages over several trajectories.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from perfbench.common import (
    DeterminismRecord,
    Outcome,
    Spans,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
)

from repro import api
from repro.core.config import FastFTConfig
from repro.data import load_dataset
from repro.ml.evaluation import DownstreamEvaluator


@dataclass(frozen=True)
class SearchShape:
    """Size of one search of a workload."""

    rows: int
    episodes: int
    steps_per_episode: int
    cold_start_episodes: int
    component_epochs: int
    max_features: int | None  # None: the config's default cap
    setup_reps: int  # extra set-up-only repetitions before the searches


# All steps are cold start, so every one pays for a real forest CV and `ml`
# does most of the work. The 44-feature cap (2x the input) is reached within
# a few steps, so steps cost about the same across seeds. One epoch keeps the
# closing cold-start fit small, and with 16 steps per search the one step
# that carries it stays out of the 10% tail.
ORACLE = SearchShape(
    rows=600, episodes=2, steps_per_episode=8, cold_start_episodes=2, component_epochs=1,
    max_features=44, setup_reps=3,
)

DATASET = "fetal_health"


def search_config(shape: SearchShape, seed: int) -> FastFTConfig:
    """The DEFAULT run profile's schedule and oracle at ``shape``'s size."""
    return FastFTConfig(
        episodes=shape.episodes,
        steps_per_episode=shape.steps_per_episode,
        cold_start_episodes=shape.cold_start_episodes,
        retrain_every_episodes=2,
        component_epochs=shape.component_epochs,
        max_features=shape.max_features,
        trigger_warmup=4,
        max_clusters=5,
        mi_max_rows=128,
        cv_splits=3,
        rf_estimators=6,
        rf_max_depth=8,
        oracle_engine="presort",
        seed=seed,
    )


class TimedEvaluator:
    """``evaluator=`` wrapper: one span and one duration per oracle call."""

    def __init__(self, inner: DownstreamEvaluator, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.durations: list[float] = []

    def __call__(self, X, y) -> float:
        start = time.perf_counter()
        with self.spans.span("oracle.call"):
            score = self.inner(X, y)
        self.durations.append(time.perf_counter() - start)
        return score

    def __getattr__(self, name):
        return getattr(self.inner, name)


def plan_digest(result) -> str:
    """What two searches of one seed must agree on."""
    n_real = sum(record.is_real for record in result.history)
    text = f"{result.plan.to_json()}|{result.best_score!r}|{n_real}"
    return hashlib.sha256(text.encode()).hexdigest()


def _setup(shape: SearchShape, seed: int, spans: Spans, traced: bool):
    """Data generation plus ``session.start()``; returns (session, evaluator)."""
    cfg = search_config(shape, seed)
    with spans.span("data"):
        ds = load_dataset(DATASET, scale=1.0, seed=seed, max_samples=shape.rows)
    evaluator = api.default_evaluator(ds.task, cfg)
    if traced:
        evaluator = TimedEvaluator(evaluator, spans)
    session = api.session(
        ds.X, ds.y, ds.task, config=cfg, feature_names=ds.feature_names, evaluator=evaluator
    )
    with spans.span("session.start"):
        session.start()
    return session, evaluator


def run(shape: SearchShape, seed: int, seconds: float, spans: Spans,
        record: DeterminismRecord, tamper=None) -> Outcome:
    """Run searches for ``seconds``; ``tamper(k, result)`` lets tests corrupt one."""
    out = Outcome()
    traced_run = spans.enabled
    setups: list[float] = []
    for rep in range(shape.setup_reps):
        start = time.perf_counter()
        session, _ = _setup(shape, seed * 1000 + 999, Spans("", enabled=False), False)
        setups.append(time.perf_counter() - start)
        session.close()

    units: list[dict] = []
    step_latencies: list[float] = []
    steps_per_search = shape.episodes * shape.steps_per_episode
    cpu0 = cpu_seconds()
    began = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - began
        if k >= 2 and elapsed + median([u["total"] for u in units]) > seconds:
            break
        sub = seed * 1000 + max(0, k - 1)
        # In a traced run the second search (the first's twin) runs
        # untraced, which gives trace.overhead_frac.
        traced = traced_run and k != 1
        spans.enabled = traced
        out.attempted += steps_per_search
        try:
            with spans.span("search", seed=sub):
                start = time.perf_counter()
                session, evaluator = _setup(shape, sub, spans, traced)
                # The base-score call belongs to set-up, not to the search.
                base_calls = len(evaluator.durations) if traced else 0
                t_started = time.perf_counter()
                setups.append(t_started - start)
                latencies = []
                while not session.done:
                    t0 = time.perf_counter()
                    with spans.span("session.step"):
                        session.step()
                    latencies.append(time.perf_counter() - t0)
                with spans.span("session.result"):
                    result = session.result()
                wall = time.perf_counter() - t_started
                session.close()
        except Exception as exc:  # a failed search counts against success_frac
            out.fail(f"search seed {sub}: {type(exc).__name__}: {exc}", steps_per_search)
            break
        if tamper is not None:
            result = tamper(k, result)
        if not record.check(f"{shape}:{sub}", plan_digest(result)):
            out.fail(f"search seed {sub}: plan or best score differs from an earlier run",
                     steps_per_search)
        step_latencies.extend(latencies)
        units.append({
            "wall": wall,
            "total": time.perf_counter() - start,
            "traced": traced,
            "result": result,
            "oracle": evaluator.durations[base_calls:] if traced else None,
        })
        k += 1
    spans.enabled = traced_run
    cpu = cpu_seconds() - cpu0
    if not units:
        return out

    out.end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": median([len(u["result"].history) / u["wall"] for u in units]),
        "latency_p50_ms": 1e3 * median(step_latencies),
        "latency_p90_ms": 1e3 * percentile(step_latencies, 90),
        "success_frac": (out.attempted - out.failed) / out.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes = {"unit_walls": [round(u["wall"], 3) for u in units],
                 "steps": len(step_latencies), "proc_cpu_s": cpu}
    if traced_run:
        out.per_layer = _layer_metrics(units, spans, cpu)
    return out


def _layer_metrics(units: list[dict], spans: Spans, cpu: float) -> dict:
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    calls = [d for u in traced for d in u["oracle"]]
    busy = [sum(u["oracle"]) for u in traced]
    walls = [u["wall"] for u in traced]

    def per_search(fn):
        return median([fn(u["result"]) for u in traced])

    metrics = {
        "core.search_s": median(walls),
        "core.steps": per_search(lambda r: len(r.history)),
        "core.optimization_s": per_search(lambda r: r.time.optimization),
        "core.estimation_s": per_search(lambda r: sum(s.time_estimation for s in r.history)),
        # Episode-end fits are the part of the estimation bucket no step owns.
        "core.retrain_s": per_search(
            lambda r: r.time.estimation - sum(s.time_estimation for s in r.history)
        ),
        "core.step_self_ms_p50": 1e3 * median(spans.self_times("session.step")),
        "core.real_eval_frac": per_search(
            lambda r: sum(s.is_real for s in r.history) / len(r.history)
        ),
        "core.trigger_frac": per_search(
            lambda r: sum(s.triggered for s in r.history) / len(r.history)
        ),
        "ml.oracle_calls": median([len(u["oracle"]) for u in traced]),
        "ml.oracle_busy_s": median(busy),
        "ml.oracle_call_p50_ms": 1e3 * median(calls),
        "ml.oracle_call_p90_ms": 1e3 * percentile(calls, 90),
        "ml.oracle_share": median([b / w for b, w in zip(busy, walls)]),
        "proc.cpu_s": cpu,
    }
    if plain:
        metrics["trace.overhead_frac"] = traced[0]["wall"] / plain[0]["wall"] - 1.0
    return metrics
