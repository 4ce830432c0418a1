"""HTTP load generator for ``POST /plan``, on one keep-alive connection.

Open loop (``run_paced``): requests are due on a fixed schedule (request
``i`` at ``t0 + i/rate``) whatever the server does; the next one goes
out once it is due and the previous response has arrived, so a slow
server builds a backlog of due-but-unsent requests and every request is
timed from when it was due.  The generator's own lag is kept apart from
the server's: it is the delay between a request being both due and
taken (the previous response in), and the moment it was sent.  Closed
loop (``run_closed``): each request goes out as soon as the previous
one has returned.  Both time calibration bursts (``calib``) while the
connection is idle.
"""

from __future__ import annotations

import hashlib
import math
import os
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from . import calib, stats

#: Latency limit on the tail percentile (repro-serve's default --slo-p99-ms).
SLO_MS = 50.0
#: A probe is generator-limited (invalid) when the generator's own send
#: lag exceeds this at its 90th percentile: a sustained lag, not the
#: scheduling hiccups that delay the server just as much.
GEN_LAG_LIMIT_MS = 2.0
#: Socket timeout of a single GET (readiness, /metrics, /status).
GET_TIMEOUT_S = 5.0
#: Time between calibration pauses of the closed loop.
CAL_EVERY_S = 0.02


class Conn:
    """Minimal HTTP/1.1 keep-alive client over one socket."""

    def __init__(self, host: str, port: int, timeout: float = 15.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self.reopen()

    def reopen(self) -> None:
        self.sock = socket.create_connection(self.address, timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def request(self, payload: bytes) -> tuple[int, dict[str, str], bytes]:
        self.sock.sendall(payload)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, headers, body

    def close(self) -> None:
        self.sock.close()


def http_request(method: str, path: str, body: bytes = b"", request_id: str | None = None) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: localhost"]
    if request_id:
        lines.append(f"X-Request-Id: {request_id}")
    if method == "POST":
        lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def get(host: str, port: int, path: str) -> tuple[int, bytes]:
    conn = Conn(host, port, GET_TIMEOUT_S)
    try:
        status, _headers, body = conn.request(http_request("GET", path, request_id=f"probe{path}"))
    finally:
        conn.close()
    return status, body


@dataclass
class Record:
    index: int
    request_id: str
    due: float
    taken: float
    sent: float
    done: float
    status: int
    digest: bytes
    error: str = ""


@dataclass
class Probe:
    """One window of requests on one connection (rate 0: closed loop)."""

    rate: float
    duration: float
    records: list[Record] = field(default_factory=list)
    backlog: list[tuple[float, int]] = field(default_factory=list)
    scheduled: int = 0


def _send(conn: Conn, payload: bytes) -> tuple[int, bytes, str]:
    """``(status, body digest, error)`` of one request on ``conn``.

    A connection error leaves status 0 and the error text, and ``conn``
    is reopened (when the server still accepts) for the next request.
    """
    try:
        status, _headers, body = conn.request(payload)
        return status, hashlib.sha256(body).digest(), ""
    except OSError as exc:
        conn.close()
        try:
            conn.reopen()
        except OSError:
            pass
        return 0, b"", f"{type(exc).__name__}: {exc}"


@dataclass
class Paced:
    """One open-loop window on one connection, with the calibration
    bursts timed in its idle gaps."""

    probe: Probe
    cal_times: list[float] = field(default_factory=list)
    cals: list[float] = field(default_factory=list)

    def _calibrate(self) -> None:
        self.cals.append(calib.burst())
        self.cal_times.append(time.perf_counter())

    def scaled_ms(self) -> list[float]:
        """Each request's latency from due, rescaled to reference speed by
        the bursts timed around it."""
        return [
            1e3 * calib.scale(r.done - r.due, calib.nearest(self.cal_times, self.cals, r.due))
            for r in self.probe.records
        ]


def run_paced(
    host: str,
    port: int,
    rate: float,
    body_for: Callable[[int], bytes],
    count: int,
    id_prefix: str,
) -> Paced:
    """Send ``count`` requests on schedule over one keep-alive connection.

    Request ``i`` is due at ``t0 + i/rate`` and timed from then; a slow
    response delays the next send, which is charged to that request.
    The generator never idles: it yields the CPU once after each response
    (so the server, on the same CPU, finishes that request), then fills
    the gap to the next due time with calibration bursts, each only when
    it still ends before the due time, and busy-waits the rest.  The
    window starts and ends with a few more bursts.
    """
    probe = Probe(rate=rate, duration=count / rate, scheduled=count)
    paced = Paced(probe)
    payloads = [
        http_request("POST", "/plan", body_for(i), f"{id_prefix}-{i}") for i in range(count)
    ]
    clock = time.perf_counter
    conn = Conn(host, port)
    try:
        for _ in range(calib.NEAREST):
            paced._calibrate()
        t0 = clock() + 0.01
        for i, payload in enumerate(payloads):
            due = t0 + i / rate
            taken = clock()
            probe.backlog.append((taken, max(0, min(count, math.floor((taken - t0) * rate) + 1) - (i + 1))))
            # Fill the gap with calibration bursts, once the server (on
            # this CPU) has finished the previous request, then spin.
            os.sched_yield()
            step = 1.5 * statistics.median(paced.cals[-calib.NEAREST:])
            while due - clock() > step:
                paced._calibrate()
            while clock() < due:
                pass
            sent = clock()
            status, digest, error = _send(conn, payload)
            probe.records.append(
                Record(i, f"{id_prefix}-{i}", due, taken, sent, clock(), status, digest, error)
            )
        for _ in range(calib.NEAREST):
            paced._calibrate()
    finally:
        conn.close()
    return paced


def run_closed(host: str, port: int, duration: float, bodies: list[bytes], id_prefix: str) -> Paced:
    """One connection sends each request as soon as the previous one has
    returned, for ``duration`` seconds.

    Every :data:`CAL_EVERY_S` the loop pauses between two requests: it
    yields the CPU (so the server, on the same CPU, finishes the request)
    and times one calibration burst.  Each record's due time is its send
    time, so :meth:`Paced.scaled_ms` gives the rescaled time the server
    took per request while kept busy.  A request whose connection fails
    is recorded with its error and the loop reconnects.
    """
    probe = Probe(rate=0.0, duration=duration)
    paced = Paced(probe)
    clock = time.perf_counter
    conn = Conn(host, port)
    try:
        paced._calibrate()
        end = last_cal = clock()
        end += duration
        for i, body in enumerate(bodies):
            if clock() >= end:
                break
            rid = f"{id_prefix}-{i}"
            sent = clock()
            status, digest, error = _send(conn, http_request("POST", "/plan", body, rid))
            probe.records.append(Record(i, rid, sent, sent, sent, clock(), status, digest, error))
            if clock() - last_cal >= CAL_EVERY_S:
                os.sched_yield()
                paced._calibrate()
                last_cal = clock()
        os.sched_yield()
        paced._calibrate()
    finally:
        conn.close()
    probe.scheduled = len(probe.records)
    return paced


def latencies_ms(probe: Probe) -> list[float]:
    """Each request's latency from when it was due."""
    return [1e3 * (r.done - r.due) for r in probe.records]


def verdict(probe: Probe, expected: Callable[[int], bytes]) -> dict:
    """Latency, failures, backlog and validity of one probe."""
    recs = probe.records
    lat_ms = latencies_ms(probe)
    # Wrong or failed responses.
    failed = sum(1 for r in recs if r.status != 200 or r.digest != expected(r.index))
    send_lag = [1e3 * (r.sent - r.due) for r in recs]
    gen_lag = [1e3 * (r.sent - max(r.due, r.taken)) for r in recs]
    q, tail_ms = stats.tail(lat_ms)
    if tail_ms is None and lat_ms:
        q, tail_ms = 100.0, max(lat_ms)
    backlog = [b for _t, b in probe.backlog]
    third = max(1, len(backlog) // 3)
    first = sum(backlog[:third]) / third if backlog else 0.0
    last = sum(backlog[-third:]) / third if backlog else 0.0
    growing = last > first + 1.0
    gen_p90 = stats.percentile(gen_lag, 90.0) if gen_lag else 0.0
    _sq, lag_tail = stats.tail(send_lag)
    if lag_tail is None:
        lag_tail = max(send_lag) if send_lag else 0.0
    elapsed = (max(r.done for r in recs) - min(r.due for r in recs)) if recs else 0.0
    ok = len(recs) - failed
    return {
        "rate": probe.rate,
        "n": len(recs),
        "p50_ms": stats.percentile(lat_ms, 50.0) if lat_ms else 0.0,
        "tail_q": q,
        "tail_ms": tail_ms if tail_ms is not None else 0.0,
        "failed": failed,
        "backlog_max": max(backlog, default=0),
        "backlog_growing": growing,
        "send_lag_tail_ms": lag_tail,
        "gen_lag_p90_ms": gen_p90,
        "achieved_rps": ok / elapsed if elapsed > 0 else 0.0,
        "passed": (
            bool(recs) and failed == 0 and not growing
            and tail_ms is not None and tail_ms <= SLO_MS
        ),
        "valid": gen_p90 <= GEN_LAG_LIMIT_MS,
    }
