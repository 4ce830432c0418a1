"""Tests of the benchmark harness itself (not of the program).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import calib, gen, loadgen, run, stats  # noqa: E402
from perfbench.spans import Recorder, covered, self_times  # noqa: E402


# -- percentiles and the ten-beyond rule ---------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 50.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


@pytest.mark.parametrize("n", [11, 50, 500, 999, 1000, 1001, 5000])
def test_tail_has_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    q, value = stats.tail(values)
    assert q is not None and q <= 99.0
    assert sum(1 for v in values if v > value) >= 10
    if n >= 1000:
        assert q == 99.0
    else:
        # The rule reports the highest percentile that still has ten beyond.
        assert q < 99.0
        assert sum(1 for v in values if v > stats.percentile(values, q + 0.1)) < 10


def test_tail_none_below_eleven_samples():
    assert stats.tail([1.0] * 10) == (None, None)
    assert stats.tail_q(11) is not None


def test_mean_interval_student_t():
    mean, low, high = stats.mean_interval([1.0, 2.0, 3.0], 0.95)
    # sd 1, se 1/sqrt(3), t(2, 0.975) = 4.3027
    assert mean == 2.0
    assert high - mean == pytest.approx(4.302653 / 3**0.5, rel=1e-5)
    assert mean - low == pytest.approx(high - mean)
    with pytest.raises(ValueError):
        stats.mean_interval([1.0], 0.95)


def _replication(seed, loss, arrived=100_000):
    return {"seed": seed, "arrived": {"web": arrived}, "blocked": {"web": round(loss * arrived)}}


def test_des_interval_against_model_and_b():
    recorded = json.loads(run.batch.RECORDED.read_text())["des_validate"]
    p = recorded["predicted_loss"]
    spread = [0.9, 1.1, 0.95, 1.05, 1.0, 0.98]
    _lines, errors = run.des_interval([_replication(i, p * f) for i, f in enumerate(spread)])
    assert errors == []
    # A traced run repeats seeds: repeats count once.
    _lines, errors = run.des_interval([_replication(0, p), _replication(0, p), _replication(1, 1.02 * p)])
    assert errors == []
    # Loss far above the model (and above B) fails both checks.
    _lines, errors = run.des_interval([_replication(i, 2.0 * gen.DES_B * f) for i, f in enumerate(spread)])
    assert len(errors) == 2
    # Loss far below the model fails the model check only.
    _lines, errors = run.des_interval([_replication(i, 0.3 * p * f) for i, f in enumerate(spread)])
    assert len(errors) == 1 and "model" in errors[0]


# -- self time -----------------------------------------------------------------


def _span(sid, parent, start, end, name="x"):
    return (sid, parent, name, start, end, None, None)


def test_self_time_nested():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 4.0, 8.0),
        _span(4, 3, 5.0, 6.0),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 2.0 - 4.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(4.0 - 1.0)
    assert st[4] == pytest.approx(1.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == pytest.approx(5.0)
    assert covered((0.0, 10.0), []) == 0.0


def test_recorder_parents_and_request_ids():
    class Target:
        def outer(self, rid):
            return self.inner()

        def inner(self):
            return 1

    rec = Recorder()
    rec.span(Target, "inner", "inner")
    rec.span(Target, "outer", "outer", request_id=lambda a, k: a[1])
    try:
        assert Target().outer("req-1") == 1
    finally:
        rec.restore()
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["inner"][5] == "req-1"
    assert Target.outer.__name__ == "outer" and not hasattr(Target.outer, "__wrapped__")


# -- generators ------------------------------------------------------------------


def test_plan_bodies_deterministic_per_seed():
    assert gen.plan_bodies(3, "hot", 20) == gen.plan_bodies(3, "hot", 20)
    assert gen.plan_bodies(3, "hot", 20) != gen.plan_bodies(4, "hot", 20)
    assert gen.plan_bodies(3, "hot", 20) != gen.plan_bodies(3, "cold", 20)


def test_cold_bodies_unique_and_in_range():
    bodies = gen.ColdBodies(5).take(1500)
    assert len(set(bodies)) == len(bodies)
    docs = [json.loads(b) for b in bodies]
    with_targets = sum(any("loss_probability" in s for s in d["services"]) for d in docs)
    offered = sum(d.get("load_model") == "offered" for d in docs)
    assert abs(with_targets / len(docs) - gen.TARGETS_SHARE) < 0.05
    assert abs(offered / len(docs) - gen.OFFERED_SHARE) < 0.05
    for d in docs:
        assert d["loss_probability"] in gen.LOSS_TARGETS
        assert 1 <= len(d["services"]) <= 4
        kinds = {k for s in d["services"] for k in s["service_rates"]}
        assert 1 <= len(kinds) <= 3
        for s in d["services"]:
            assert all(0.0 < a <= 1.85 for a in s["impact_factors"].values())
            assert s["arrival_rate"] > 0.0


def test_cold_designs_balanced_per_block():
    rng = gen.rng_for(5, "cold")
    designs = gen.cold_designs(rng)
    n = gen.COLD_BLOCK
    assert len(designs) == n
    for key, values in (("services", (1, 2, 3, 4)), ("kinds", (1, 2, 3)), ("loss", gen.LOSS_TARGETS)):
        assert sorted(d[key] for d in designs) == sorted(list(values) * (n // len(values)))
    assert sum(d["targets"] for d in designs) == round(gen.TARGETS_SHARE * n)
    assert sum(d["offered"] for d in designs) == round(gen.OFFERED_SHARE * n)
    assert sorted(int(d["u_rho"] * n) for d in designs) == list(range(n))
    assert designs != gen.cold_designs(rng)  # the next block has its own order


def test_balanced_cold_bodies_follow_their_designs():
    bodies = gen.ColdBodies(5, balanced=True).take(2 * gen.COLD_BLOCK)
    assert bodies == gen.ColdBodies(5, balanced=True).take(2 * gen.COLD_BLOCK)
    assert len(set(bodies)) == len(bodies)
    # The first block's designs are drawn before any of its bodies.
    first = gen.cold_designs(gen.rng_for(5, "cold"))
    for body, design in zip(bodies, first):
        doc = json.loads(body)
        assert len(doc["services"]) == design["services"]
        assert len({k for s in doc["services"] for k in s["service_rates"]}) <= design["kinds"]
        assert doc["loss_probability"] == design["loss"]
        assert (doc.get("load_model") == "offered") == design["offered"]
        assert any("loss_probability" in s for s in doc["services"]) == design["targets"]


def test_fixed_plan_bodies_recorded_and_cover_both_paths():
    bodies = gen.fixed_plan_bodies()
    assert bodies == gen.fixed_plan_bodies()
    recorded = json.loads(run.batch.RECORDED.read_text())["plan"]
    assert recorded["seed"] == gen.PLAN_FIXED_SEED
    assert len(recorded["sha256"]) == len(bodies) == gen.PLAN_FIXED_COUNT
    docs = [json.loads(b) for b in bodies]
    assert any(any("loss_probability" in s for s in d["services"]) for d in docs)
    assert any(d.get("load_model") == "offered" for d in docs)
    assert not set(bodies) & set(gen.ColdBodies(2009).take(500))


def test_week_and_des_inputs_deterministic():
    assert gen.week_seeds(9, 10) == gen.week_seeds(9, 10)
    assert len(set(gen.week_seeds(9, gen.WEEK_POOL))) == gen.WEEK_POOL
    hours, traces = gen.week_traces(4)
    hours2, traces2 = gen.week_traces(4)
    assert len(hours) == 336
    assert all((traces[k] == traces2[k]).all() for k in traces)
    seeds = gen.des_seeds(9, 5)
    assert seeds[0] == gen.DES_FIXED_SEED and seeds == gen.des_seeds(9, 5)
    assert seeds != gen.des_seeds(10, 5)


# -- the rate ladder ----------------------------------------------------------------


def test_calibration_nearest_and_scale():
    times = [float(t) for t in range(10)]
    cals = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    assert calib.nearest(times, cals, -5.0) == 1.0  # clamped to the first bursts
    assert calib.nearest(times, cals, 3.0) == 1.0  # bursts 1-5
    assert calib.nearest(times, cals, 7.0) == 2.0  # bursts 5-9
    assert calib.nearest(times, cals, 50.0) == 2.0
    assert calib.nearest([0.0, 1.0], [3.0, 5.0], 0.5) == 4.0  # fewer bursts than NEAREST
    assert calib.scale(2.0, 2 * calib.REF_S) == pytest.approx(1.0)
    assert calib.burst() > 0.0


def test_search_ladder_finds_highest_passing_rung():
    ladder = stats.geometric_ladder(20.0, 8000.0, 1.05)
    for capacity in (25.0, 333.0, 1234.0, 7999.0):
        probed = []

        def passes(rate):
            probed.append(rate)
            return rate <= capacity

        best = stats.search_ladder(ladder, passes)
        assert ladder[best] <= capacity
        assert best == len(ladder) - 1 or ladder[best + 1] > capacity
        assert len(probed) <= 8
    assert stats.search_ladder(ladder, lambda r: False) == -1


def test_max_passing_skips_failed_and_generator_limited():
    results = [
        {"rate": 100.0, "passed": True, "valid": True},
        {"rate": 200.0, "passed": True, "valid": False},
        {"rate": 150.0, "passed": False, "valid": True},
        {"rate": 120.0, "passed": True, "valid": True},
    ]
    assert stats.max_passing(results)["rate"] == 120.0
    assert stats.max_passing([results[1]]) is None


def _record(i, due, taken, sent, done, status=200, digest=b"ok"):
    return loadgen.Record(i, f"r{i}", due, taken, sent, done, status, digest)


def test_verdict_flags_growing_backlog_and_wrong_answers():
    probe = loadgen.Probe(rate=100.0, duration=1.0, scheduled=30)
    probe.records = [_record(i, i / 100, i / 100, i / 100, i / 100 + 0.001) for i in range(30)]
    probe.backlog = [(i / 100, 0) for i in range(30)]
    ok = loadgen.verdict(probe, lambda i: b"ok")
    assert ok["passed"] and ok["valid"] and ok["failed"] == 0
    assert ok["p50_ms"] == pytest.approx(1.0)

    probe.backlog = [(i / 100, i) for i in range(30)]
    assert not loadgen.verdict(probe, lambda i: b"ok")["passed"]

    probe.backlog = [(i / 100, 0) for i in range(30)]
    probe.records[3] = _record(3, 0.03, 0.03, 0.03, 0.031, digest=b"bad")
    wrong = loadgen.verdict(probe, lambda i: b"ok")
    assert wrong["failed"] == 1 and not wrong["passed"]


# -- connection failures ---------------------------------------------------------


class _Hangup(socketserver.BaseRequestHandler):
    """Reads a request and closes the connection without answering."""

    def handle(self):
        self.request.recv(65536)


@pytest.fixture
def hangup_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Hangup)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_closed_loop_counts_dropped_connections_as_failed(hangup_server):
    bodies = [b"{}"] * 20
    closed = loadgen.run_closed("127.0.0.1", hangup_server, 0.5, bodies, "c")
    probe = closed.probe
    assert len(probe.records) == len(bodies)
    assert all(r.status == 0 and r.error for r in probe.records)
    assert loadgen.verdict(probe, lambda i: b"ok")["failed"] == len(bodies)
    assert len(closed.cals) >= 2
    assert len(closed.scaled_ms()) == len(bodies)


def test_paced_counts_dropped_connections_and_calibrates(hangup_server):
    paced = loadgen.run_paced("127.0.0.1", hangup_server, 50.0, lambda i: b"{}", 6, "p")
    assert [r.index for r in paced.probe.records] == list(range(6))
    assert loadgen.verdict(paced.probe, lambda i: b"ok")["failed"] == 6
    assert len(paced.cals) >= 2 * calib.NEAREST
    assert paced.cal_times == sorted(paced.cal_times)
    assert len(paced.scaled_ms()) == 6


def test_send_survives_a_refused_reconnect():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    conn = loadgen.Conn("127.0.0.1", port)
    peer, _ = listener.accept()
    peer.close()
    listener.close()  # nothing accepts any more: the reconnect is refused
    status, digest, error = loadgen._send(conn, loadgen.http_request("POST", "/plan", b"{}"))
    assert (status, digest) == (0, b"") and error
    conn.close()
