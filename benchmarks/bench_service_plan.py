"""Benchmark (L6): one warm ``POST /plan`` over loopback HTTP.

An in-process :class:`~repro.service.server.PlannerServer` on an ephemeral port
and one keep-alive client connection are set up once per process, by the
first call (a calibration probe or warmup under ``repro-bench run``'s
defaults), so the timed calls measure requests only.  Each call posts
``examples/deployment.json``; after the first, every request is a
response-cache hit, so the time is L6 transport plus the L5 request core
(``PlannerApp.handle``), not planning.

Paced and closed-loop load on fresh servers, with cold bodies, is
``perfbench``'s ``plan_hot`` and ``plan_cold``.
"""

import socket
from functools import cache
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.service import PlannerApp
from repro.service.server import PlannerServer

DEPLOYMENT = Path(__file__).resolve().parents[1] / "examples" / "deployment.json"
_HEADERS = {"Content-Type": "application/json"}


@cache
def setup() -> tuple[HTTPConnection, bytes]:
    """This process's keep-alive connection to an in-process server, and
    the request body to post over it."""
    server = PlannerServer(PlannerApp(), port=0)
    server.start()
    conn = HTTPConnection(server.host, server.port, timeout=10.0)
    conn.connect()
    # Headers and body are separate writes; Nagle would hold the body.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn, DEPLOYMENT.read_bytes()


def post_plan(conn: HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/plan", body=body, headers=_HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


@pytest.mark.benchmark(group="service-plan")
def test_plan_warm(benchmark):
    status, reply = benchmark(post_plan, *setup())
    assert status == 200
    assert b'"consolidated_servers"' in reply
