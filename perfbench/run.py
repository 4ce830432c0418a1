"""Benchmark entry point: one seeded workload against the program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload plan_cold --seed 7 --seconds 20 --trace 0

Workloads (rationale in perfbench/NOTES.md):

- ``plan_hot``: open-loop ``POST /plan`` against a fresh ``repro-serve``;
  every measured body is a response-cache hit.
- ``plan_cold``: the same HTTP path, every body a deployment the server
  has never seen.
- ``control_week``: the three-strategy fluid control comparison, weeks of
  ~1000 hosts in a fresh process.
- ``des_validate``: size the scaled group-1 deployment, then check the
  loss network at that size against B.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run and
the tracing overhead against an untraced run of the same inputs.  The
lines before it name every metric of the workload with its unit.  Any
wrong output makes the run exit 1.  A run pins itself, and every process
it starts, to one CPU, and reports its timings at reference host speed
(perfbench/calib.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import batch, calib, gen, layers, loadgen, stats  # noqa: E402

#: Fresh processes per run (at least): set-up is their median, and the
#: measured work is shared among them.  Five, so that a stall during one or
#: two starts does not move the median.
SETUP_REPEATS = 5
#: Fixed rate ladder for plan_max_rps (5% steps).
LADDER = stats.geometric_ladder(20.0, 8000.0, 1.05)
#: Share of the run's seconds under closed-loop load: the gated
#: throughput, and the capacity estimate that places the ladder search.
CLOSED_SHARE = 0.3
#: Share of the run's seconds spent at the reference rate.
REF_SHARE = 0.45
HTTP = {
    # Reference rates sit far below each workload's capacity (under a fifth
    # of it), so the p50 describes service rather than queueing, which
    # would amplify every drift in machine speed.  max_rps bounds the
    # bodies one closed-loop second may need.
    "plan_hot": {"ref_rate": 100.0, "max_rps": 20000},
    "plan_cold": {"ref_rate": 50.0, "max_rps": 800},
}
BATCH = ("control_week", "des_validate")
#: Batch workloads whose every operation runs in a fresh process: each
#: control week then pays cold sizing, as a week of ext-dynamic does, and
#: no week's time depends on how many weeks ran before it in its process.
ONE_OP_PER_PROCESS = ("control_week",)
#: Confidence of the des_validate interval over a run's replications: a
#: correct program fails the model-vs-simulation check on about one run in
#: ten thousand.
DES_CONFIDENCE = 0.9999
E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}

_procs: list[subprocess.Popen] = []


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _stop_all() -> None:
    for proc in _procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in _procs:
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- the correctness oracle -----------------------------------------------------


class Oracle:
    """SHA-256 of the expected ``/plan`` body, computed in-process through
    ``parse_deployment`` and the report JSON path."""

    def __init__(self) -> None:
        from repro.cli import _build_report, _report_json, parse_deployment

        self._path = (parse_deployment, _build_report, _report_json)

    def digest(self, body: bytes) -> bytes:
        parse_deployment, build_report, report_json = self._path
        doc = json.loads(body)
        load_model = doc.get("load_model", "paper")
        inputs, targets, planner = parse_deployment(doc)
        out = report_json(build_report(inputs, planner, load_model), inputs, targets, load_model)
        text = json.dumps(out, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
        return hashlib.sha256(text).digest()


# -- the server under test ------------------------------------------------------


class Server:
    """A fresh ``repro-serve`` process; ``setup_s`` is start to /readyz 200."""

    def __init__(self, tmp: Path, name: str, traced: bool = False) -> None:
        self.port_file = tmp / f"{name}.port"
        self.spans_out = tmp / f"{name}.spans.json"
        self.log = tmp / f"{name}.log"
        self.port_file.unlink(missing_ok=True)
        cmd = [sys.executable]
        if traced:
            cmd += [str(ROOT / "perfbench" / "serve_traced.py"), str(self.spans_out)]
        else:
            cmd += ["-m", "repro.service"]
        cmd += ["--host", "127.0.0.1", "--port", "0", "--port-file", str(self.port_file)]
        start = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        _procs.append(self.proc)
        self.port = self._wait_port(start)
        while True:
            try:
                status, _ = loadgen.get("127.0.0.1", self.port, "/readyz")
                if status == 200:
                    break
            except OSError:
                pass
            self._check_alive(start)
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def _check_alive(self, start: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}: "
                               f"{self.log.read_text()[-400:]}")
        if time.perf_counter() - start > 60.0:
            raise RuntimeError("server not ready within 60 s")

    def _wait_port(self, start: float) -> int:
        while True:
            try:
                text = self.port_file.read_text().strip()
                if text:
                    return int(text)
            except (OSError, ValueError):
                pass
            self._check_alive(start)
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def counters(self) -> dict:
        """Plan-cache and Erlang-cache counters, scraped from outside."""
        _s, metrics = loadgen.get("127.0.0.1", self.port, "/metrics")
        _s, status = loadgen.get("127.0.0.1", self.port, "/status")
        plan = {}
        for result in ("hit", "miss"):
            m = re.search(
                r'^service_plan_cache_total\{result="%s"\} ([0-9.e+]+)$' % result,
                metrics.decode(), re.M,
            )
            plan[result] = float(m.group(1)) if m else 0.0
        erlang = json.loads(status)["erlang_cache"]
        return {"plan_hits": plan["hit"], "plan_lookups": plan["hit"] + plan["miss"],
                "erlang_hits": erlang["hits"],
                "erlang_lookups": erlang["hits"] + erlang["misses"]}

    def stop(self) -> dict | None:
        """SIGTERM (the server drains and exits); spans when traced."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.spans_out.exists():
            doc = json.loads(self.spans_out.read_text())
            doc["spans"] = [tuple(s[:6]) + (tuple(s[6]) if isinstance(s[6], list) else s[6],)
                            for s in doc["spans"]]
            return doc
        return None


def _closed_loop(server: Server, bodies: list[bytes], expected: list[bytes], prefix: str) -> int:
    """Send ``bodies`` one at a time (warm-up); returns wrong responses."""
    conn = loadgen.Conn("127.0.0.1", server.port)
    wrong = 0
    try:
        for i, body in enumerate(bodies):
            status, _h, out = conn.request(loadgen.http_request("POST", "/plan", body, f"{prefix}-{i}"))
            wrong += status != 200 or hashlib.sha256(out).digest() != expected[i]
    finally:
        conn.close()
    return wrong


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _share(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


class PlanWorkload:
    """Bodies, expected digests and the warm-up for one HTTP workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.cfg = HTTP[name]
        self.oracle = Oracle()
        # Every warm-up starts with the fixed-seed bodies, whose response
        # digests were recorded: the oracle runs the same program as the
        # server, so only these catch a change in the answers themselves.
        fixed = gen.fixed_plan_bodies()
        recorded = json.loads(batch.RECORDED.read_text())["plan"]
        if recorded["seed"] != gen.PLAN_FIXED_SEED or len(recorded["sha256"]) != len(fixed):
            raise RuntimeError("recorded plan digests do not match the fixed bodies")
        self.warm = fixed
        self.warm_digest = [bytes.fromhex(h) for h in recorded["sha256"]]
        if name == "plan_hot":
            # One balanced block, so every seed's pool has the same mix.
            self.pool = gen.ColdBodies(seed, "hot", balanced=True).take(gen.COLD_BLOCK)
            self.pool_digest = [self.oracle.digest(b) for b in self.pool]
            self.warm = self.warm + self.pool
            self.warm_digest = self.warm_digest + self.pool_digest
        else:
            self.cold = gen.ColdBodies(seed, balanced=True)
        self._phase = 0

    def warm_up(self, server: Server) -> int:
        """Send the warm-up bodies once (the fixed-seed bodies, then for
        plan_hot the whole pool); returns the wrong answers."""
        return _closed_loop(server, self.warm, self.warm_digest, "warm")

    def bodies(self, n: int):
        """Bodies for the next ``n`` requests and a function giving the
        expected digest of request ``i`` (computed when first asked)."""
        self._phase += 1
        if self.name == "plan_hot":
            pick = gen.rng_for(self.seed, f"pick{self._phase}").integers(len(self.pool), size=n)
            return [self.pool[i] for i in pick], lambda i: self.pool_digest[pick[i]]
        bodies = self.cold.take(n)
        memo: dict[int, bytes] = {}

        def expected(i: int) -> bytes:
            if i not in memo:
                memo[i] = self.oracle.digest(bodies[i])
            return memo[i]

        return bodies, expected

    def paced(self, server: Server, rate: float, duration: float, prefix: str, inputs=None):
        """One open-loop window (a reference window or a ladder rung).
        Returns the window, its verdict and its inputs (to replay them on
        another server)."""
        bodies, expected = inputs or self.bodies(max(1, math.ceil(rate * duration - 1e-9)))
        paced = loadgen.run_paced("127.0.0.1", server.port, rate, bodies.__getitem__,
                                  len(bodies), prefix)
        return paced, loadgen.verdict(paced.probe, expected), (bodies, expected)

    def closed(self, server: Server, duration: float, prefix: str):
        """One calibrated closed-loop burst, and its verdict."""
        bodies, expected = self.bodies(int(duration * self.cfg["max_rps"]))
        closed = loadgen.run_closed("127.0.0.1", server.port, duration, bodies, prefix)
        return closed, loadgen.verdict(closed.probe, expected)


def _max_rps(work: PlanWorkload, server: Server, seconds: float, capacity: float) -> tuple[dict | None, list]:
    """Highest ladder rung that meets the limits, searched by bisection
    between half of and just above the closed-loop ``capacity``."""
    a, b = stats.ladder_range(LADDER, 0.5 * capacity, 1.05 * capacity)
    probes = math.ceil(math.log2(b - a + 2))
    # One window per rung: the ladder is printed, not gated, so it keeps a
    # small share of the run (and of the reference answers it needs).
    window = max(0.5, seconds / probes - 0.1)
    rungs: list[dict] = []

    def passes(rate: float) -> bool:
        _p, rung, _ = work.paced(server, rate, window, f"l{len(rungs)}")
        rungs.append(rung)
        time.sleep(0.05)
        return rung["passed"] and rung["valid"]

    stats.search_ladder(LADDER[a:b + 1], passes)
    return stats.max_passing(rungs), rungs


def run_http(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    work = PlanWorkload(name, seed)
    rate = work.cfg["ref_rate"]
    window = seconds * REF_SHARE
    lines: list[str] = []
    if trace:
        # Same inputs twice, each on a fresh server: untraced, then traced.
        plain = Server(tmp, "plain")
        wrong = work.warm_up(plain)
        base_paced, base, inputs = work.paced(plain, rate, window, "u")
        plain.stop()
        traced = Server(tmp, "traced", traced=True)
        wrong += work.warm_up(traced)
        before = traced.counters()
        paced, ref, _ = work.paced(traced, rate, window, "m", inputs)
        probe = paced.probe
        caches = _delta(traced.counters(), before)
        doc = traced.stop() or {"spans": [], "counters": {}, "missing": ["spans file"]}
        ids = {r.request_id for r in probe.records}
        spans = [s for s in doc["spans"] if s[5] in ids]
        metrics = layers.summarize(spans, doc["counters"])
        handle = layers.handle_durations(spans)
        overhead = [1e3 * (r.done - r.sent - handle[r.request_id])
                    for r in probe.records if r.request_id in handle]
        base_p50 = stats.percentile(base_paced.scaled_ms(), 50.0)
        traced_p50 = stats.percentile(paced.scaled_ms(), 50.0)
        metrics.update({
            "erlang_cache.lookups": caches["erlang_lookups"],
            "erlang_cache.hit_ratio": _share(caches["erlang_hits"], caches["erlang_lookups"]),
            "app.plan_cache_hit_ratio": _share(caches["plan_hits"], caches["plan_lookups"]),
            "http.overhead_p50_ms": stats.percentile(overhead, 50.0) if overhead else 0.0,
            "http.overhead_p99_ms": _tail_or_max(overhead)[1],
            "http.connections": doc["counters"].get("http.connections", 0),
            "loadgen.sent": len(probe.records),
            "loadgen.send_lag_p99_ms": ref["send_lag_tail_ms"],
            "loadgen.backlog_max": ref["backlog_max"],
            "trace.overhead_pct": 100.0 * (traced_p50 / base_p50 - 1.0),
        })
        if doc.get("missing"):
            lines.append(f"warning: not wrapped: {doc['missing']}")
        lines += [
            f"traced window: {len(probe.records)} requests at {rate:g} rps on one connection; "
            f"untraced p50 {base_p50:.3f} ms, traced p50 {traced_p50:.3f} ms (reference speed)",
            f"cache: plan-cache hit share {metrics['app.plan_cache_hit_ratio']:.4f} (of "
            f"{caches['plan_lookups']:.0f} lookups), Erlang-cache hit share "
            f"{metrics['erlang_cache.hit_ratio']:.4f} (of {caches['erlang_lookups']:.0f} lookups)",
        ]
        failed = wrong + ref["failed"] + base["failed"]
        attempted = 2 * len(work.warm) + ref["n"] + base["n"]
        return {"metrics": metrics, "lines": lines, "failed": failed, "attempted": attempted}

    # SETUP_REPEATS fresh servers one after another.  Each times its own
    # set-up, serves an equal share of the reference window and one
    # closed-loop burst; pooling them averages out what one process's
    # thread placement does to its timings.  The last one then runs the
    # max-rate ladder.
    setups, lat_ms, raw_ms, rss_all, caches, cals = [], [], [], [], [], []
    busy_ms, raw_rps = [], []
    wrong = sent = 0
    lag_tail, backlog_max = 0.0, 0
    for k in range(SETUP_REPEATS):
        server = Server(tmp, f"s{k}")
        setups.append(server.setup_s)
        wrong += work.warm_up(server)
        before = server.counters()
        paced, ref, _ = work.paced(server, rate, window / SETUP_REPEATS, f"ref{k}")
        lat_ms += paced.scaled_ms()
        raw_ms += loadgen.latencies_ms(paced.probe)
        cals += paced.cals
        wrong += ref["failed"]
        lag_tail = max(lag_tail, ref["send_lag_tail_ms"])
        backlog_max = max(backlog_max, ref["backlog_max"])
        # Peak RSS after the fixed-size reference share; the ladder's
        # request count depends on where the search goes.
        rss_all.append(server.peak_rss_mb())
        busy, closed = work.closed(server, seconds * CLOSED_SHARE / SETUP_REPEATS, f"cl{k}")
        busy_ms += busy.scaled_ms()
        raw_rps.append(closed["achieved_rps"])
        wrong += closed["failed"]
        sent += len(work.warm) + ref["n"] + closed["n"]
        if k < SETUP_REPEATS - 1:
            caches.append(_delta(server.counters(), before))
            server.stop()
    capacity = statistics.median(raw_rps)
    ladder_s = seconds * (1.0 - REF_SHARE - CLOSED_SHARE)
    best, rungs = _max_rps(work, server, ladder_s, capacity)
    caches.append(_delta(server.counters(), before))
    server.stop()
    cache = {key: sum(c[key] for c in caches) for key in caches[0]}
    max_rps = best["achieved_rps"] if best else 0.0
    failed = wrong + sum(r["failed"] for r in rungs)
    attempted = sent + sum(r["n"] for r in rungs)
    q, tail_ms = _tail_or_max(lat_ms)
    p50 = stats.percentile(lat_ms, 50.0)
    closed_rps = 1e3 / stats.percentile(busy_ms, 50.0)
    setup_s = calib.scale(statistics.median(setups), statistics.median(cals))
    lines += [
        f"plan_p50_ms = {p50:.4f} ms  (n={len(lat_ms)} from {SETUP_REPEATS} fresh servers, timed "
        f"from due, open loop at {rate:g} rps on one connection; at reference speed, raw p50 "
        f"{stats.percentile(raw_ms, 50.0):.4f} ms, median burst {1e3 * statistics.median(cals):.4f} "
        f"ms of {len(cals)} against {1e3 * calib.REF_S:g})",
        f"plan_p99_ms = {tail_ms:.4f} ms  ({q} of n={len(lat_ms)}, reference speed)",
        f"plan_closed_rps = {closed_rps:.2f} 1/s  (1 / median request time of a closed loop on "
        f"one connection, {seconds * CLOSED_SHARE / SETUP_REPEATS:g} s per server, "
        f"n={len(busy_ms)}, at reference speed; "
        "achieved raw per server: " + ", ".join(f"{x:.1f}" for x in raw_rps) + ")",
        f"plan_max_rps = {max_rps:.2f} 1/s  (achieved at ladder rung "
        f"{best['rate'] if best else 0:g} rps: one window with tail <= "
        f"{loadgen.SLO_MS:g} ms, no failures, no growing backlog)",
        "ladder rungs: "
        + ", ".join(f"{r['rate']:g}:{'pass' if r['passed'] else 'fail'}"
                    f"{'' if r['valid'] else '(generator-limited)'}" for r in rungs),
        f"loadgen: send lag tail {lag_tail:.3f} ms, backlog max {backlog_max}",
        f"cache: plan-cache hit share {_share(cache['plan_hits'], cache['plan_lookups']):.4f} "
        f"(of {cache['plan_lookups']:.0f} lookups), Erlang-cache hit share "
        f"{_share(cache['erlang_hits'], cache['erlang_lookups']):.4f} "
        f"(of {cache['erlang_lookups']:.0f} lookups)",
        f"setup_s = {setup_s:.4f} s  (median of {SETUP_REPEATS} starts to /readyz 200 at "
        "reference speed, by the run's median burst; raw: "
        + ", ".join(f"{t:.3f}" for t in setups) + ")",
        f"peak_rss_mb = {statistics.median(rss_all):.1f} MB  (median over servers after their "
        "reference share: " + ", ".join(f"{x:.1f}" for x in rss_all) + ")",
    ]
    metrics = {
        "setup_s": setup_s,
        "p50_ms": p50,
        "throughput_per_s": closed_rps,
        "peak_rss_mb": statistics.median(rss_all),
    }
    return {"metrics": metrics, "lines": lines, "failed": failed, "attempted": attempted}


# -- batch workloads --------------------------------------------------------------


class Child:
    """A fresh run process (perfbench/batch.py); set-up ends at ``ready``."""

    def __init__(self, name: str, seed: int, seconds: float, extra: list[str]) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "batch.py"), name, str(seed),
               str(seconds), *extra]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        _procs.append(self.proc)
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.proc.wait()
            raise RuntimeError(f"{name} run process failed to start ({self.proc.returncode})")
        self.setup_s = time.perf_counter() - start

    def result(self) -> dict:
        out, _ = self.proc.communicate("go\n", timeout=170)
        if self.proc.returncode != 0:
            raise RuntimeError(f"run process exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def _tail_or_max(values: list[float]) -> tuple[str, float]:
    """The reportable tail percentile, or the maximum of a sample too small
    to have a tail percentile with ten samples beyond it."""
    q, value = stats.tail(values)
    if value is None or q < 90.0:
        return "max", max(values) if values else 0.0
    return f"p{q:g}", value


def des_interval(ops: list[dict]) -> tuple[list[str], list[str]]:
    """``(lines, errors)`` of the check over a run's replications.

    Replications have distinct seeds, so their losses are independent;
    blocking comes in bursts, so a binomial interval on one replication
    would be far too narrow.  The lower end of the Student-t interval on
    the mean loss over replications must not exceed B (loss <= B), and
    the interval must contain the model's Erlang-B loss at the sized N,
    recorded in recorded.json (model and simulation agree).
    """
    by_seed = {op["seed"]: op for op in ops}  # a traced run repeats seeds
    losses = [sum(op["blocked"].values()) / sum(op["arrived"].values())
              for op in by_seed.values()]
    predicted = json.loads(batch.RECORDED.read_text())["des_validate"]["predicted_loss"]
    mean, low, high = stats.mean_interval(losses, DES_CONFIDENCE)
    lines = [f"des loss: mean {mean:.5f} over {len(losses)} replications, "
             f"{100 * DES_CONFIDENCE:g}% interval [{low:.5f}, {high:.5f}]; "
             f"B = {gen.DES_B:g}, model Erlang-B at N {predicted:.5f}"]
    errors = []
    if low > gen.DES_B:
        errors.append(f"des loss interval [{low:.5f}, {high:.5f}] lies above B={gen.DES_B:g}")
    if not low <= predicted <= high:
        errors.append(f"des loss interval [{low:.5f}, {high:.5f}] misses the model's "
                      f"{predicted:.5f}")
    return lines, errors


def run_batch(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    lines: list[str] = []
    if trace:
        base = Child(name, seed, seconds / 2.0, []).result()
        traced = Child(name, seed, seconds, ["--ops", str(len(base["ops"])), "--trace"]).result()
        t_base = sum(op["scaled_s"] for op in base["ops"])
        t_traced = sum(op["scaled_s"] for op in traced["ops"])
        metrics = dict(traced["layers"])
        metrics.update({
            "erlang_cache.lookups": traced["cache_lookups"],
            "erlang_cache.hit_ratio": _share(traced["cache_hits"], traced["cache_lookups"]),
            "app.plan_cache_hit_ratio": 0.0,
            "http.overhead_p50_ms": 0.0,
            "http.overhead_p99_ms": 0.0,
            "http.connections": 0,
            "loadgen.sent": 0,
            "loadgen.send_lag_p99_ms": 0.0,
            "loadgen.backlog_max": 0,
            "trace.overhead_pct": 100.0 * (t_traced / t_base - 1.0),
        })
        if traced.get("missing"):
            lines.append(f"warning: not wrapped: {traced['missing']}")
        lines.append(f"traced {len(traced['ops'])} ops: untraced {t_base:.3f} s, traced "
                     f"{t_traced:.3f} s (reference speed)")
        errors = base["errors"] + traced["errors"]
        attempted = len(base["ops"]) + len(traced["ops"])
        if name == "des_validate":
            des_lines, des_errors = des_interval(base["ops"] + traced["ops"])
            lines += des_lines
            errors += des_errors
            attempted += 2
        lines += [f"check failed: {e}" for e in errors]
        return {"metrics": metrics, "lines": lines, "failed": len(errors), "attempted": attempted}

    # Fresh run processes one after another, each timing its own set-up:
    # SETUP_REPEATS of them doing an equal share of the operations, or for
    # ONE_OP_PER_PROCESS workloads one operation each until the operations
    # have taken about ``seconds`` (ending nearest it).
    setups, results = [], []
    busy = last = 0.0
    while len(results) < SETUP_REPEATS or (name in ONE_OP_PER_PROCESS and busy + 0.5 * last < seconds):
        k = len(results)
        if name in ONE_OP_PER_PROCESS:
            extra = ["--ops", "1", "--part", str(k), "--parts", str(gen.WEEK_POOL)]
        else:
            extra = ["--part", str(k), "--parts", str(SETUP_REPEATS)]
        child = Child(name, seed, seconds / SETUP_REPEATS, extra)
        setups.append(child.setup_s)
        results.append(child.result())
        last = sum(op["wall_s"] for op in results[-1]["ops"])
        busy += last
    ops = [op for res in results for op in res["ops"]]
    walls = [1e3 * op["scaled_s"] for op in ops]
    raw_walls = [1e3 * op["wall_s"] for op in ops]
    work_s = sum(op["scaled_s"] for op in ops)
    rss = statistics.median(res["peak_rss_mb"] for res in results)
    hits = sum(res["cache_hits"] for res in results)
    lookups = sum(res["cache_lookups"] for res in results)
    q_note, tail_ms = _tail_or_max(walls)
    errors = [e for res in results for e in res["errors"]]
    attempted = len(ops)
    if name == "des_validate":
        des_lines, des_errors = des_interval(ops)
        lines += des_lines
        errors += des_errors
        attempted += 2
    if name == "control_week":
        done, unit, what = sum(r["ticks"] for r in results), "ticks", "control_ticks_per_s"
        op_name = "week (336 ticks x 3 strategies)"
    else:
        done, unit, what = sum(r["arrivals"] for r in results), "arrivals", "sim_arrivals_per_s"
        op_name = f"replication ({gen.DES_HORIZON:g} virtual s)"
    throughput = done / work_s
    cal = statistics.median(op["cal_s"] for op in ops)
    setup_s = calib.scale(statistics.median(setups), cal)
    lines += [
        f"{what} = {throughput:.2f} 1/s  ({done} {unit} in {work_s:.3f} host s at reference "
        f"speed, {len(walls)} ops over {len(results)} fresh processes)",
        f"p50_ms = {statistics.median(walls):.3f} ms  (median wall time per {op_name} at "
        f"reference speed, n={len(walls)}; {q_note} {tail_ms:.3f} ms; raw p50 "
        f"{statistics.median(raw_walls):.3f} ms, median burst {1e3 * cal:.4f} ms against "
        f"{1e3 * calib.REF_S:g})",
        f"cache: Erlang-cache hit share {_share(hits, lookups):.4f} (of {lookups} lookups)",
        f"setup_s = {setup_s:.4f} s  (median of {len(setups)} starts to ready at reference "
        "speed, by the run's median burst; raw: " + ", ".join(f"{t:.3f}" for t in setups) + ")",
        f"peak_rss_mb = {rss:.1f} MB  (median over run processes)",
    ]
    lines += [f"check failed: {e}" for e in errors]
    metrics = {
        "setup_s": setup_s,
        "p50_ms": statistics.median(walls),
        "throughput_per_s": throughput,
        "peak_rss_mb": rss,
    }
    return {"metrics": metrics, "lines": lines, "failed": len(errors), "attempted": attempted}


def pin_one_cpu() -> int:
    """Pin this run, and so every process it starts, to one CPU.

    A request then passes between generator and server on one CPU instead
    of waking an idle one, and the calibration bursts run on the CPU the
    server runs on.  Unpinned, on a 2-vCPU virtual machine, the p50 of the
    same 4-second plan_cold window ranged over 3.6-7.6 ms; pinned, over
    3.6-4.1 ms.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted([*HTTP, *BATCH]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # Stopped from outside, still stop every process this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_one_cpu()
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    runner = run_http if args.workload in HTTP else run_batch
    try:
        out = runner(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        _stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    units = (
        {m: u for m, u in E2E_UNITS.items()} if not args.trace
        else {m: _layer_unit(m) for m in out["metrics"]}
    )
    failed, attempted = out["failed"], max(1, out["attempted"])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"pinned to CPU {cpu}")
    for line in out["lines"]:
        print(line)
    print(f"failed_frac = {failed / attempted:.6f}  ({failed} of {attempted} checked outputs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("ratio", "per_arrival")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
