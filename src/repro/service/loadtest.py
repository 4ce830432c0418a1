"""Deterministic closed-loop load test for the planner service.

Closed-loop means each worker thread holds one keep-alive HTTP
connection and issues its next ``POST /plan`` only after the previous
response lands — so offered load adapts to service capacity and the
recorded latencies are genuine per-request round trips, not queueing
artifacts of an open-loop firehose.

Determinism: the request *mix* is fixed by ``seed`` — a
:class:`MixGenerator` pre-builds ``distinct`` deployment documents from
quantized parameter menus with one ``random.Random(seed)``, and every
worker walks its own body-index stream seeded via
:func:`repro.parallel.sweep.seed_for` (the repo-wide worker-seed
derivation).  Same seed, same workers → byte-for-byte the same request
sequence per worker; only the timings vary with the hardware.

Results are written as an append-only ``BENCH_*.json`` artifact (schema
``repro.bench/v1``) whose ``loadtest`` section carries throughput,
p50/p95/p99 latency, and error rate next to the standard per-repeat
timing vectors — so ``repro-bench compare`` and the report's bench-trend
section pick the service numbers up like any other benchmark.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from typing import Any

from ..parallel.sweep import seed_for
from ..obs.bench import BenchResult, build_artifact, percentile

__all__ = ["MixGenerator", "LoadTestResult", "run_loadtest", "loadtest_artifact"]


def _connect(host: str, port: int, timeout: float = 10.0) -> HTTPConnection:
    """Keep-alive connection with Nagle off (mirrors the server side —
    request headers and body are separate writes too)."""
    conn = HTTPConnection(host, port, timeout=timeout)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn

# Quantized parameter menus: coarse enough that a small `distinct` pool
# revisits cache-friendly inputs, wide enough to exercise the planner.
_ARRIVALS = (5.0, 10.0, 20.0, 40.0, 80.0)
_CPU_RATES = (1.0, 2.0, 4.0)
_DISK_RATES = (2.0, 4.0, 8.0)
_LOSS_TARGETS = (0.01, 0.02, 0.05)


class MixGenerator:
    """Pre-generated pool of deployment request bodies, fixed by seed."""

    def __init__(self, seed: int, distinct: int = 64) -> None:
        if distinct < 1:
            raise ValueError(f"distinct must be >= 1, got {distinct}")
        self.seed = int(seed)
        rng = random.Random(self.seed)
        self.bodies: tuple[bytes, ...] = tuple(
            self._body(rng) for _ in range(int(distinct))
        )

    @staticmethod
    def _body(rng: random.Random) -> bytes:
        services = []
        for i in range(rng.randint(1, 3)):
            rates: dict[str, float] = {"cpu": rng.choice(_CPU_RATES)}
            if rng.random() < 0.5:
                rates["disk_io"] = rng.choice(_DISK_RATES)
            services.append({
                "name": f"svc{i}",
                "arrival_rate": rng.choice(_ARRIVALS),
                "service_rates": rates,
            })
        doc = {
            "services": services,
            "loss_probability": rng.choice(_LOSS_TARGETS),
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    def body(self, index: int) -> bytes:
        return self.bodies[index % len(self.bodies)]

    def __len__(self) -> int:
        return len(self.bodies)


@dataclass
class LoadTestResult:
    """Merged outcome of one load-test run."""

    url: str
    seed: int
    workers: int
    distinct: int
    duration_s: float
    requests: int = 0
    errors: int = 0
    latencies_s: list[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    def percentiles_ms(self) -> dict[str, float | None]:
        ordered = sorted(s * 1000.0 for s in self.latencies_s)
        out: dict[str, float | None] = {}
        for name, q in (("p50_ms", 50.0), ("p95_ms", 95.0), ("p99_ms", 99.0)):
            value = percentile(ordered, q) if ordered else None
            out[name] = round(value, 3) if value is not None else None
        return out

    def summary(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "seed": self.seed,
            "workers": self.workers,
            "distinct_bodies": self.distinct,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 6),
            "throughput_rps": round(self.throughput_rps, 1),
            **self.percentiles_ms(),
        }


class _Worker(threading.Thread):
    """One closed-loop client with its own connection and index stream."""

    def __init__(
        self,
        host: str,
        port: int,
        mix: MixGenerator,
        seed: int,
        deadline: float | None,
        max_requests: int | None,
    ) -> None:
        super().__init__(daemon=True)
        self._host, self._port = host, port
        self._mix = mix
        self._rng = random.Random(seed)
        self._deadline = deadline
        self._max_requests = max_requests
        self.latencies_s: list[float] = []
        self.errors = 0

    def run(self) -> None:
        conn = _connect(self._host, self._port)
        try:
            while True:
                if self._deadline is not None and time.monotonic() >= self._deadline:
                    return
                if (
                    self._max_requests is not None
                    and len(self.latencies_s) >= self._max_requests
                ):
                    return
                body = self._mix.body(self._rng.randrange(len(self._mix)))
                start = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        "/plan",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                except (HTTPException, OSError):
                    # Count it, then start a fresh connection: a dropped
                    # keep-alive socket must not kill the whole worker.
                    self.errors += 1
                    self.latencies_s.append(time.perf_counter() - start)
                    conn.close()
                    conn = _connect(self._host, self._port)
                    continue
                self.latencies_s.append(time.perf_counter() - start)
                if status >= 400:
                    self.errors += 1
        finally:
            conn.close()


def run_loadtest(
    host: str,
    port: int,
    *,
    seed: int,
    workers: int = 4,
    duration_s: float | None = None,
    total_requests: int | None = None,
    distinct: int = 64,
    warmup: bool = True,
) -> LoadTestResult:
    """Drive the service; returns merged latencies and counts.

    Exactly one of ``duration_s`` / ``total_requests`` must be given
    (``total_requests`` is split evenly across workers).  With
    ``warmup=True`` every distinct body is sent once first, excluded
    from the recorded numbers — the acceptance throughput/latency
    figures are defined against a warm plan cache.
    """
    if (duration_s is None) == (total_requests is None):
        raise ValueError("give exactly one of duration_s or total_requests")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    mix = MixGenerator(seed, distinct=distinct)
    if warmup:
        conn = _connect(host, port, timeout=30.0)
        try:
            for body in mix.bodies:
                conn.request(
                    "POST", "/plan", body=body,
                    headers={"Content-Type": "application/json"},
                )
                conn.getresponse().read()
        finally:
            conn.close()
    deadline = None
    per_worker = None
    if duration_s is not None:
        deadline = time.monotonic() + duration_s
    else:
        per_worker = max(1, total_requests // workers)
    threads = [
        _Worker(host, port, mix, seed_for(seed, i), deadline, per_worker)
        for i in range(workers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    result = LoadTestResult(
        url=f"http://{host}:{port}",
        seed=seed,
        workers=workers,
        distinct=len(mix),
        duration_s=elapsed,
    )
    for thread in threads:
        result.latencies_s.extend(thread.latencies_s)
        result.errors += thread.errors
    result.requests = len(result.latencies_s)
    return result


def loadtest_artifact(result: LoadTestResult) -> dict[str, Any]:
    """``repro.bench/v1`` document with a ``loadtest`` summary section."""
    bench = BenchResult(
        name="service::plan",
        group="service",
        source="loadtest",
        wall_s=list(result.latencies_s),
        cpu_s=[],
        iterations=1,
        ok=result.requests > 0 and result.errors == 0,
        error=None if result.errors == 0 else f"{result.errors} failed request(s)",
    )
    doc = build_artifact(
        [bench],
        warmup=result.distinct,
        repeats=result.requests,
        selection=["loadtest"],
    )
    doc["loadtest"] = result.summary()
    return doc
