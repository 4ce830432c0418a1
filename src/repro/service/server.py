"""`repro-serve`: threaded HTTP front end for :class:`PlannerApp`.

Stdlib only: :class:`http.server.ThreadingHTTPServer` dispatches each
connection to a handler thread; all shared state (metrics registry, SLO
tracker, plan response cache, the process-wide Erlang cache) lives in
one :class:`~repro.service.app.PlannerApp` and is lock-protected there —
see DESIGN.md, "Planner service threading model".

Shutdown contract (exercised by CI): SIGTERM or SIGINT stops accepting
connections, drains in-flight requests up to ``--drain-deadline``
seconds, records open SLO alarms, flushes the access log, writes the
final metrics snapshot and ``run_manifest.json``, and exits 0.  Startup
or teardown failures (unbindable port, unwritable output path) exit 2
with a one-line ``error:`` message — the repro-report convention.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence

from ..obs.export import build_manifest, write_manifest, write_prometheus
from .accesslog import AccessLog, NullAccessLog
from .app import PlannerApp, Response
from .slo import SLOTracker

__all__ = ["PlannerServer", "main"]

_MAX_BODY_BYTES = 4 * 1024 * 1024  # reject absurd request bodies early


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter: socket I/O in, ``app.handle`` out."""

    # Keep-alive needs HTTP/1.1 + explicit Content-Length (we always set
    # one), which is what lets keep-alive clients reuse sockets.
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body go out as separate small writes; with Nagle on,
    # the body segment waits out the client's delayed ACK (~40 ms per
    # request on Linux loopback) — fatal for a <50 ms p99 target.
    disable_nagle_algorithm = True

    def _respond(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for key, value in response.headers:
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _handle(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            # The unread body would be misparsed as the next request, so the
            # connection cannot be kept alive after an early 413.
            self.close_connection = True
            self._respond(Response(status=413, body=b'{"error":"body too large"}\n'))
            return
        body = self.rfile.read(length) if length else b""
        response = self.server.app.handle(method, self.path, body, dict(self.headers))
        self._respond(response)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def log_message(self, format: str, *args) -> None:
        # The structured JSONL access log replaces stderr chatter.
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    app: PlannerApp


class PlannerServer:
    """Owns the listening socket and the serve/drain lifecycle."""

    def __init__(self, app: PlannerApp, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self._httpd = _Server((host, port), _Handler)
        self._httpd.app = app
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve on a background thread (returns once listening)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()

    def drain(self, deadline_s: float = 5.0) -> bool:
        """Stop accepting, wait for in-flight requests; True when drained."""
        self.app.draining = True
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=deadline_s)
        limit = time.monotonic() + deadline_s
        while self.app.in_flight > 0 and time.monotonic() < limit:
            time.sleep(0.01)
        return self.app.in_flight == 0

    def close(self) -> None:
        """Stop the serve loop, if :meth:`start` ran, then close the socket.

        A loop left running on a closed socket spins at full CPU.  The
        ``shutdown()`` is skipped when no loop was started, because it
        would then wait forever.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the consolidation planner over HTTP "
        "(POST /plan, GET /metrics, /healthz, /readyz, /status).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks an ephemeral port (default %(default)s)",
    )
    parser.add_argument(
        "--port-file", metavar="FILE",
        help="write the bound port number to FILE once listening "
        "(lets scripts discover an ephemeral --port 0)",
    )
    parser.add_argument(
        "--access-log", metavar="FILE",
        help="append structured request/alarm JSONL (schema repro.access/v1) to FILE",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write a final Prometheus text snapshot to FILE at shutdown",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR",
        help="write run_manifest.json (with open-alarm records) to DIR at shutdown",
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=50.0,
        help="target p99 plan latency in milliseconds (default %(default)s)",
    )
    parser.add_argument(
        "--slo-availability", type=float, default=0.999,
        help="availability target for the plan error budget (default %(default)s)",
    )
    parser.add_argument(
        "--burn-threshold", type=float, default=2.0,
        help="error-budget burn rate that flips /readyz (default %(default)s)",
    )
    parser.add_argument(
        "--burn-clear", type=float, default=1.0,
        help="burn rate below which readiness recovers (default %(default)s)",
    )
    parser.add_argument(
        "--drain-deadline", type=float, default=5.0,
        help="seconds to wait for in-flight requests at shutdown (default %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        slo = SLOTracker(
            target_p99_ms=args.slo_p99_ms,
            availability_target=args.slo_availability,
            burn_threshold=args.burn_threshold,
            burn_clear=args.burn_clear,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        access_log = AccessLog(args.access_log) if args.access_log else NullAccessLog()
    except OSError as exc:
        print(f"error: cannot open access log {args.access_log!r}: {exc}", file=sys.stderr)
        return 2
    app = PlannerApp(slo=slo, access_log=access_log)
    try:
        server = PlannerServer(app, host=args.host, port=args.port)
    except OSError as exc:
        access_log.close()
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    if args.port_file:
        try:
            port_path = Path(args.port_file)
            port_path.parent.mkdir(parents=True, exist_ok=True)
            port_path.write_text(f"{server.port}\n")
        except OSError as exc:
            server.close()
            access_log.close()
            print(f"error: cannot write port file {args.port_file!r}: {exc}", file=sys.stderr)
            return 2

    stop = threading.Event()
    signals_seen: list[int] = []

    def _stop(signum, frame) -> None:
        signals_seen.append(signum)
        stop.set()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    t_start = time.perf_counter()
    server.start()
    print(f"listening on {server.url}", file=sys.stderr)
    stop.wait()
    signame = signal.Signals(signals_seen[0]).name if signals_seen else "stop"
    print(f"{signame}: draining (deadline {args.drain_deadline:g}s)", file=sys.stderr)
    drained = server.drain(deadline_s=args.drain_deadline)
    if not drained:
        print(
            f"warning: {app.in_flight} request(s) still in flight at deadline",
            file=sys.stderr,
        )
    open_alarms = app.finalize()
    server.close()
    wall_time = time.perf_counter() - t_start

    try:
        if args.metrics_out:
            write_prometheus(app.registry, args.metrics_out)
        if args.state_dir:
            Path(args.state_dir).mkdir(parents=True, exist_ok=True)
            write_prometheus(app.registry, Path(args.state_dir) / "metrics.prom")
            manifest = build_manifest(
                {
                    "command": "repro-serve",
                    "host": args.host,
                    "port": server.port,
                    "slo_p99_ms": args.slo_p99_ms,
                    "slo_availability": args.slo_availability,
                },
                wall_time_s=round(wall_time, 3),
                registry=app.registry,
                trace=app.trace,
                extra={
                    "service": {
                        "drained": drained,
                        "requests_logged": access_log.written,
                        "slo": slo.snapshot(),
                        "open_alarms": [e.to_doc() for e in open_alarms],
                    },
                },
            )
            write_manifest(manifest, Path(args.state_dir) / "run_manifest.json")
        access_log.close()
    except OSError as exc:
        print(f"error: cannot write shutdown artifacts: {exc}", file=sys.stderr)
        return 2
    print("shutdown complete", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
