"""The ``serve_mixed`` workload: a ``repro serve`` process under mixed load.

Set-up publishes a pipeline artifact (a fixed wide plan plus a 10-tree
forest) into a fresh registry and starts ``python -m repro serve`` in its
own process, until ``/healthz`` answers. One load-generator process then
holds two keep-alive connections for the measured window:

- bulk: closed loop, one client, 2048-row ``/predict`` requests sent back
  to back;
- small: open loop, 32-row ``/predict`` requests due every 1/SMALL_RATE_HZ
  seconds, each timed from when it was due.

Every response is checked against ``artifact.predict`` on the same rows.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from perfbench.common import (
    OUT_DIR,
    Outcome,
    Spans,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
)

from repro.core.sequence import FeatureNode, TransformationPlan
from repro.data import load_dataset
from repro.ml.forest import RandomForestClassifier
from repro.serve import ArtifactRegistry, PipelineArtifact


@dataclass(frozen=True)
class ServeShape:
    train_rows: int = 2000
    plan_width: int = 16  # derived features; each is a 5-node chain
    n_trees: int = 10
    bulk_rows: int = 2048
    small_rows: int = 32
    bulk_bodies: int = 4
    small_bodies: int = 8
    # Below the rate at which small requests began to queue behind bulk
    # batches (50/s built a backlog).
    small_rate_hz: float = 10.0
    setup_reps: int = 5
    warmup_requests: int = 2


SHAPE = ServeShape()
DATASET = "fetal_health"
NAME = "bench"
HEADERS = {"Content-Type": "application/json"}


def wide_plan(n_inputs: int, width: int) -> TransformationPlan:
    """A fixed plan of ``width`` derived features over the input columns."""
    nodes = {j: FeatureNode(j, None, (), j) for j in range(n_inputs)}
    live = []
    binary = ("divide", "add", "subtract", "multiply")
    unary = ("square", "sqrt", "log", "tanh", "sigmoid")

    def emit(op, children):
        fid = len(nodes)
        nodes[fid] = FeatureNode(fid, op, children)
        return fid

    for w in range(width):
        a, b, c = w % n_inputs, (3 * w + 1) % n_inputs, (5 * w + 2) % n_inputs
        stem = emit("log", (emit("add", (a, b)),))
        stem = emit("multiply", (stem, c))
        live.append(emit(unary[w % 5], (emit(binary[w % 4], (stem, (a + 7) % n_inputs)),)))
    return TransformationPlan(
        nodes=nodes,
        live_ids=live,
        n_input_columns=n_inputs,
        feature_names=[f"f{j + 1}" for j in range(n_inputs)],
    )


def build_artifact(seed: int, shape: ServeShape) -> PipelineArtifact:
    ds = load_dataset(DATASET, scale=1.0, seed=seed, max_samples=shape.train_rows)
    plan = wide_plan(ds.X.shape[1], shape.plan_width)
    model = RandomForestClassifier(
        n_estimators=shape.n_trees, max_depth=8, seed=seed, split_engine="presort"
    )
    model.fit(plan.apply(ds.X), ds.y)
    return PipelineArtifact(plan, ds.task, model=model)


def make_bodies(seed: int, shape: ServeShape, n_inputs: int):
    """Fixed request bodies: (json bytes, rows) for the bulk and small classes."""
    rng = np.random.default_rng(seed)
    pool = load_dataset(DATASET, scale=1.0, seed=seed + 1, max_samples=shape.bulk_rows).X

    def body(n_rows):
        rows = pool[rng.integers(0, len(pool), n_rows)] + rng.normal(0, 0.01, (n_rows, n_inputs))
        return json.dumps({"rows": rows.tolist()}).encode(), rows

    bulk = [body(shape.bulk_rows) for _ in range(shape.bulk_bodies)]
    small = [body(shape.small_rows) for _ in range(shape.small_bodies)]
    return bulk, small


class ServerProcess:
    """``python -m repro serve`` in a child process, stopped with SIGINT."""

    def __init__(self, registry: Path, src: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        url_file = workdir / "url"
        url_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(src))
        self.log = open(workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--registry", str(registry),
             "--name", NAME, "--port", "0", "--url-file", str(url_file)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.host, self.port = self._wait_ready(url_file)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, url_file: Path, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            text = url_file.read_text() if url_file.exists() else ""
            if text.endswith("\n"):
                host, port = text.strip().split("://", 1)[1].rsplit(":", 1)
                try:
                    status, _ = request(host, int(port), "GET", "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    return host, int(port)
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def request(host, port, method, path, body=None, conn=None):
    own = conn is None
    if own:
        conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=HEADERS)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        if own:
            conn.close()


def histogram_p50(metrics_text: str, name: str) -> float:
    """Median from a Prometheus histogram, interpolated within its bucket."""
    buckets = []
    for line in metrics_text.splitlines():
        if line.startswith(name + "_bucket{"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            buckets.append((float(le), float(line.rsplit(" ", 1)[1])))
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = 0.5 * buckets[-1][1]
    prev_le, prev_count = 0.0, 0.0
    for le, count in buckets:
        if count >= rank:
            if le == float("inf"):
                return prev_le
            return prev_le + (le - prev_le) * (rank - prev_count) / max(count - prev_count, 1e-12)
        prev_le, prev_count = le, count
    return prev_le


class Checker:
    """Verifies response bodies against precomputed ``artifact.predict``.

    The first response per body is decoded and compared; later responses
    are compared byte for byte with that verified one, and decoded again
    only when they differ.
    """

    def __init__(self, expected: list[np.ndarray]) -> None:
        self.expected = expected
        self.verified: dict[int, bytes] = {}
        self.lock = threading.Lock()

    def ok(self, index: int, status: int, data: bytes) -> bool:
        if status != 200:
            return False
        with self.lock:
            if self.verified.get(index) == data:
                return True
        try:
            predictions = np.asarray(json.loads(data)["predictions"])
        except (ValueError, KeyError):
            return False
        if not np.array_equal(predictions, self.expected[index]):
            return False
        with self.lock:
            self.verified.setdefault(index, data)
        return True


def run(seed: int, seconds: float, spans: Spans, src: Path, shape: ServeShape = SHAPE,
        tamper=None) -> Outcome:
    """Serve for ``seconds``; ``tamper(kind, index, data)`` lets tests corrupt responses."""
    out = Outcome()
    work = OUT_DIR / "tmp" / "serve"
    artifact = build_artifact(seed, shape)
    setups = []
    server = None
    try:
        for rep in range(shape.setup_reps):
            if server is not None:
                server.stop()
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            with spans.span("setup"):
                with spans.span("registry.publish"):
                    ArtifactRegistry(work / "registry").publish(artifact, NAME, tag="prod")
                server = ServerProcess(work / "registry", src, work)
            setups.append(time.perf_counter() - start)
        served = ArtifactRegistry(work / "registry").get(NAME)
        bulk, small = make_bodies(seed, shape, served.plan.n_input_columns)
        bulk_check = Checker([served.predict(rows) for _, rows in bulk])
        small_check = Checker([served.predict(rows) for _, rows in small])
        load = LoadGenerator(server.host, server.port, bulk, small, bulk_check, small_check,
                             spans, shape, tamper)
        load.warmup()
        children_cpu0 = cpu_seconds(children=True)
        load.run(seconds)
        _, metrics_text = request(server.host, server.port, "GET", "/metrics")
        _, health = request(server.host, server.port, "GET", "/healthz")
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work / "registry", ignore_errors=True)
    server_cpu = cpu_seconds(children=True) - children_cpu0

    out.attempted = load.attempted
    if load.failures:
        out.fail(f"{load.failures} of {load.attempted} requests failed or mismatched "
                 f"(first: {load.first_failure})", load.failures)
    if not load.bulk_latency or not load.small_latency:
        out.fail("no completed bulk or small requests in the window", 0)
        return out
    out.end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": load.bulk_rows_done / seconds,
        "latency_p50_ms": 1e3 * median(load.small_latency),
        "latency_p90_ms": 1e3 * percentile(load.small_latency, 90),
        "success_frac": (out.attempted - out.failed) / out.attempted,
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    out.notes = {
        "bulk_requests": len(load.bulk_latency),
        "small_requests": len(load.small_latency),
        "proc_cpu_s": server_cpu,
    }
    if spans.enabled:
        batcher = json.loads(health)["batcher"]
        text = metrics_text.decode()
        traced = [lat for lat, t in zip(load.bulk_latency, load.bulk_traced) if t]
        plain = [lat for lat, t in zip(load.bulk_latency, load.bulk_traced) if not t]
        out.per_layer = {
            "serve.batch_execute_p50_ms": 1e3 * histogram_p50(text, "serve_batch_execute_seconds"),
            "serve.request_p50_ms": 1e3 * histogram_p50(text, "serve_request_seconds"),
            "serve.batch_requests_p50": batcher["batch_requests_p50"],
            "serve.batch_rows_p50": batcher["batch_rows_p50"],
            "loadgen.bulk_p50_ms": 1e3 * median(load.bulk_latency),
            "loadgen.late_p90_ms": 1e3 * percentile(load.small_late, 90),
            "proc.cpu_s": server_cpu,
            **stage_timings(served, bulk[0][0], spans),
        }
        if traced and plain:
            out.per_layer["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return out


def stage_timings(artifact: PipelineArtifact, body: bytes, spans: Spans, reps: int = 7) -> dict:
    """Public calls on one bulk body, the stages of a served batch (ms)."""
    stages = {
        "serve.json_decode_ms": lambda: np.asarray(json.loads(body)["rows"], dtype=float),
    }
    rows = stages["serve.json_decode_ms"]()
    features = artifact.transform(rows)
    model = artifact.model
    predictions, proba = model.predict(features), model.predict_proba(features)
    stages["serve.transform_ms"] = lambda: artifact.transform(rows)
    stages["ml.forest_predict_ms"] = lambda: model.predict(features)
    stages["ml.forest_proba_ms"] = lambda: model.predict_proba(features)
    stages["serve.json_encode_ms"] = lambda: json.dumps(
        {"predictions": predictions.tolist(), "proba": proba.tolist()}
    )
    out = {}
    for name, call in stages.items():
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            with spans.span(name):
                call()
            times.append(time.perf_counter() - start)
        out[name] = 1e3 * median(times)
    return out


class LoadGenerator:
    """Two threads, two keep-alive connections: bulk closed loop, small open loop."""

    def __init__(self, host, port, bulk, small, bulk_check, small_check, spans, shape, tamper):
        self.host, self.port = host, port
        self.bulk, self.small = bulk, small
        self.bulk_check, self.small_check = bulk_check, small_check
        self.spans, self.shape, self.tamper = spans, shape, tamper
        self.bulk_latency: list[float] = []
        self.bulk_traced: list[bool] = []
        self.small_latency: list[float] = []
        self.small_late: list[float] = []
        self.bulk_rows_done = 0
        self.attempted = 0
        self.failures = 0
        self.first_failure = None
        self._lock = threading.Lock()

    def _call(self, conn, kind, index, body, traced=True):
        span = self.spans.span("http.predict", kind=kind) if traced else nullcontext()
        with span:
            try:
                status, data = request(self.host, self.port, "POST", "/predict", body, conn)
            except (OSError, http.client.HTTPException) as exc:
                status, data = None, repr(exc).encode()
        if self.tamper is not None:
            data = self.tamper(kind, index, data)
        check = self.bulk_check if kind == "bulk" else self.small_check
        ok = status is not None and check.ok(index, status, data)
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures += 1
                if self.first_failure is None:
                    self.first_failure = f"{kind} body {index}: HTTP {status} {data[:120]!r}"
        return ok

    def warmup(self) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            for i in range(self.shape.warmup_requests):
                for bodies in (self.bulk, self.small):
                    body = bodies[i % len(bodies)][0]
                    request(self.host, self.port, "POST", "/predict", body, conn)
        finally:
            conn.close()

    def _bulk_loop(self, stop_at: float) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            n = 0
            while time.perf_counter() < stop_at:
                index = n % len(self.bulk)
                traced = n % 2 == 0  # untraced half gives trace.overhead_frac
                start = time.perf_counter()
                ok = self._call(conn, "bulk", index, self.bulk[index][0], traced)
                done = time.perf_counter()
                if done <= stop_at:
                    self.bulk_latency.append(done - start)
                    self.bulk_traced.append(traced)
                    if ok:
                        self.bulk_rows_done += self.shape.bulk_rows
                n += 1
        finally:
            conn.close()

    def _small_loop(self, began: float, stop_at: float) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        interval = 1.0 / self.shape.small_rate_hz
        try:
            n = 0
            while True:
                due = began + n * interval
                if due >= stop_at:
                    break
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                self.small_late.append(time.perf_counter() - due)
                index = n % len(self.small)
                self._call(conn, "small", index, self.small[index][0])
                self.small_latency.append(time.perf_counter() - due)
                n += 1
        finally:
            conn.close()

    def run(self, seconds: float) -> None:
        began = time.perf_counter()
        stop_at = began + seconds
        threads = [
            threading.Thread(target=self._bulk_loop, args=(stop_at,)),
            threading.Thread(target=self._small_loop, args=(began, stop_at)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
