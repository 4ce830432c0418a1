"""Socket-level and process-level server tests: boot, probe, drain, exit codes."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.obs import parse_prometheus_text
from repro.service import PlannerApp
from repro.service.server import PlannerServer

EXAMPLE_PATH = Path(__file__).resolve().parents[2] / "examples" / "deployment.json"
SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def server():
    srv = PlannerServer(PlannerApp())
    srv.start()
    yield srv
    srv.close()


def _get(server, path, method="GET", body=None, headers=None):
    conn = HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_metrics_round_trips(self, server):
        _get(server, "/healthz")
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus_text(body.decode())
        assert "service_requests_total" in families

    def test_plan_over_the_wire(self, server):
        payload = EXAMPLE_PATH.read_bytes()
        status, headers, body = _get(
            server, "/plan", method="POST", body=payload,
            headers={"Content-Type": "application/json", "X-Request-Id": "wire-1"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "wire-1"
        assert json.loads(body)["consolidated_servers"] >= 1

    def test_keep_alive_reuses_the_connection(self, server):
        conn = HTTPConnection(server.host, server.port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_oversized_body_is_413(self, server):
        # The server rejects on Content-Length before reading the body, so a
        # high-level client would die on a broken pipe mid-upload; speak raw.
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /plan HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 5242880\r\n"
                b"\r\n"
            )
            reply = sock.recv(4096).decode()
        assert reply.startswith("HTTP/1.1 413")


class TestDrain:
    def test_drain_waits_for_in_flight_request(self):
        app = PlannerApp()
        release = threading.Event()
        original = app._plan

        def slow_plan(body, request_id):
            release.wait(timeout=10)
            return original(body, request_id)

        app._plan = slow_plan
        srv = PlannerServer(app)
        srv.start()
        try:
            result = {}

            def fire():
                result["response"] = _get(
                    srv, "/plan", method="POST", body=EXAMPLE_PATH.read_bytes()
                )

            t = threading.Thread(target=fire)
            t.start()
            deadline = time.monotonic() + 5
            while app.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert app.in_flight == 1

            drained = {}

            def drain():
                drained["clean"] = srv.drain(deadline_s=5.0)

            d = threading.Thread(target=drain)
            d.start()
            assert app.draining or not d.is_alive() or True  # drain in progress
            release.set()
            d.join(timeout=10)
            t.join(timeout=10)
            assert drained["clean"] is True
            assert result["response"][0] == 200
        finally:
            release.set()
            srv.close()

    def test_drain_deadline_expires_with_stuck_request(self):
        app = PlannerApp()
        stuck = threading.Event()

        def never_plan(body, request_id):
            stuck.wait(timeout=30)
            from repro.service.app import _json_response

            return _json_response(200, {})

        app._plan = never_plan
        srv = PlannerServer(app)
        srv.start()
        try:
            t = threading.Thread(
                target=lambda: _get(
                    srv, "/plan", method="POST", body=EXAMPLE_PATH.read_bytes()
                ),
                daemon=True,
            )
            t.start()
            deadline = time.monotonic() + 5
            while app.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv.drain(deadline_s=0.3) is False
        finally:
            stuck.set()
            srv.close()


def _spawn(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--port-file", str(tmp_path / "port"),
            "--access-log", str(tmp_path / "access.jsonl"),
            "--state-dir", str(tmp_path / "state"),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _wait_port(tmp_path, proc, deadline_s=15.0):
    port_file = tmp_path / "port"
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return int(port_file.read_text())
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early: {proc.returncode}\n{proc.stderr.read().decode()}"
            )
        time.sleep(0.05)
    raise AssertionError("port file never appeared")


class TestProcessLifecycle:
    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        proc = _spawn(tmp_path)
        try:
            port = _wait_port(tmp_path, proc)
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("POST", "/plan", body=EXAMPLE_PATH.read_bytes())
            assert conn.getresponse().read()
            conn.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        stderr = proc.stderr.read().decode()
        assert "shutdown complete" in stderr
        # The access log was flushed and the manifest records a clean drain.
        lines = (tmp_path / "access.jsonl").read_text().splitlines()
        assert len(lines) >= 1
        manifest = json.loads((tmp_path / "state" / "run_manifest.json").read_text())
        assert manifest["service"]["drained"] is True
        assert manifest["service"]["requests_logged"] >= 1
        assert (tmp_path / "state" / "metrics.prom").exists()
        parse_prometheus_text((tmp_path / "state" / "metrics.prom").read_text())

    def test_bad_slo_params_exit_2_with_one_line_error(self, tmp_path):
        proc = _spawn(tmp_path, "--slo-availability", "1.5")
        out, err = proc.communicate(timeout=15)
        assert proc.returncode == 2
        message = err.decode().strip()
        assert message.startswith("error:")
        assert len(message.splitlines()) == 1

    def test_unopenable_access_log_exit_2(self, tmp_path):
        # A *file* where the parent directory should be makes the log
        # unopenable (missing directories are created automatically).
        (tmp_path / "blocker").write_text("")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0",
                "--access-log", str(tmp_path / "blocker" / "access.jsonl"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=15)
        assert proc.returncode == 2
        assert err.decode().strip().startswith("error:")

    def test_occupied_port_exit_2(self, tmp_path):
        import socket

        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        taken = holder.getsockname()[1]
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", str(taken)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            out, err = proc.communicate(timeout=15)
            assert proc.returncode == 2
            assert err.decode().strip().startswith("error:")
        finally:
            holder.close()
