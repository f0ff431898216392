"""The query service's handler threads. Each connection is answered at once
on its own thread, as by `ThreadingHTTPServer`, but a thread that is done
waits for the next connection instead of exiting: sequential requests start
almost no threads, a burst leaves at most `httpapi.IDLE_THREADS` behind,
and `server_close` ends the rest. Concurrent answers are byte for byte the
sequential ones."""

from __future__ import annotations

import http.client
import random
import socket
import sys
import threading
import time

import pytest

from cveledger import httpapi
from cveledger.chaincode import WorldState
from cveledger.httpapi import QueryService, serve_in_thread

from test_http import service  # noqa: F401  (the fixture whose routes the corpus asks)


def request(port: int, path: str, method: str = "GET") -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def handler_threads(before: set) -> list[threading.Thread]:
    """The live handler threads that are not in `before`."""
    return [t for t in threading.enumerate() if t.name == httpapi.HANDLER_THREAD and t.is_alive() and t not in before]


def settle(before: set) -> int:
    """How many handler threads outside `before` stay alive once those over
    the idle cap have exited after their connections."""
    deadline = time.monotonic() + 10
    while len(handler_threads(before)) > 4 and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(handler_threads(before))


def at_once(count: int, target) -> None:
    """Run `target` on `count` client threads and wait for all of them."""
    clients = [threading.Thread(target=target) for _ in range(count)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=60)
    assert not any(client.is_alive() for client in clients)


@pytest.fixture
def server(tmp_path):
    """A service of an empty registry, shut down and closed after the test
    (again, if the test did so)."""
    threads_before = set(threading.enumerate())
    server, port = serve_in_thread(WorldState(), [], ledger_path=tmp_path / "ledger.jsonl")
    server.port, server.threads_before = port, threads_before
    yield server
    server.shutdown()
    server.server_close()


def test_sequential_requests_start_almost_no_threads(server, monkeypatch):
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread) or start(thread))
    for _ in range(200):
        assert request(server.port, "/v1/events")[0] == 200
    assert len(starts) <= 3, len(starts)


def test_no_handler_thread_outlives_the_server(server):
    for _ in range(20):
        assert request(server.port, "/v1/events")[0] == 200
    kept = handler_threads(server.threads_before)
    assert kept
    server.shutdown()
    server.server_close()
    for thread in kept:  # one still ending its connection ends with it; an idle one only if woken
        thread.join(timeout=10)
    assert not handler_threads(server.threads_before)


def test_no_connection_waits_behind_another(server, monkeypatch):
    """Eight audits that each wait for all eight to arrive: a server that
    answered fewer connections at a time would break the barrier."""
    barrier = threading.Barrier(8, timeout=30)
    monkeypatch.setattr(QueryService, "audit_report", lambda self: {"arrived": barrier.wait()})
    answers = []
    at_once(8, lambda: answers.append(request(server.port, "/v1/audit")))
    assert sorted(status for status, _ in answers) == [200] * 8
    assert not barrier.broken


def test_a_burst_leaves_at_most_the_idle_cap_behind(server, monkeypatch):
    barrier = threading.Barrier(16, timeout=30)
    monkeypatch.setattr(QueryService, "audit_report", lambda self: {"arrived": barrier.wait()})
    statuses = []
    at_once(16, lambda: statuses.append(request(server.port, "/v1/audit")[0]))
    assert statuses == [200] * 16
    assert settle(server.threads_before) == 4  # the first four done stay, the rest exit


def corpus(height: int) -> list[tuple[str, str]]:
    """(method, path) of every route of `test_http`'s service, with its
    400, 404 and 405 cases; `height` is its chain's last height."""
    gets = [
        "/v1/cve/CVE-2025-0001", "/v1/cve/CVE-2025-0099", "/v1/cve/CVE-2025-9999", "/v1/cve/NOT-AN-ID",
        "/v1/cve", "/v1/cve?status=PUBLISHED", "/v1/cve?product=secretware", "/v1/cve?year=2025",
        "/v1/cve?submitter=cna.redhat", "/v1/cve?id=CVE-2025-0002",
        "/v1/cve?status=NOPE", "/v1/cve?year=abc", "/v1/cve?bogus=1",
        "/v1/blocks/0", f"/v1/blocks/{height}", f"/v1/blocks/{height + 1}", "/v1/blocks/abc",
        "/v1/audit", "/v1/events", "/v1/events?since=1", "/v1/events?since=xyz",
        "/v2/whatever", "/v1/cve/CVE-2025-0001/extra", "/",
    ]
    others = [
        (method, path)
        for method in ("HEAD", "OPTIONS", "POST", "PUT", "DELETE", "PATCH")
        for path in ("/v1/cve", "/v1/cve/CVE-2025-0001", "/v1/blocks/0", "/v1/audit", "/v1/events")
    ]
    return [("GET", path) for path in gets] + others


def test_concurrent_answers_are_the_sequential_ones(service):  # noqa: F811
    """Eight clients, more than the cores, ask the corpus in shuffled orders
    with threads switching often: each answer is the sequential one, and
    the handler threads left are within the idle cap (a handoff lost from
    the idle set would leave a thread waiting for good)."""
    before = set(threading.enumerate())
    base, _, net = service
    port = int(base.rsplit(":", 1)[1])
    asked = corpus(len(net.chain) - 1)
    expected = {(method, path): request(port, path, method) for method, path in asked}
    assert {status for status, _ in expected.values()} == {200, 400, 404, 405}
    orders = [random.Random(seed).sample(asked * 3, 3 * len(asked)) for seed in range(8)]
    start = threading.Barrier(8, timeout=30)
    mismatches = []

    def client() -> None:
        order = orders.pop()
        start.wait()
        for method, path in order:
            answer = request(port, path, method)
            if answer != expected[method, path]:
                mismatches.append((method, path, answer, expected[method, path]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        at_once(8, client)
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches, mismatches[:3]
    assert 1 <= settle(before) <= 4


def test_a_silent_connection_is_closed_and_its_thread_let_go(server, monkeypatch):
    """Six clients that connect and send nothing: the handler timeout closes
    each connection, and the threads that answered them stay within the
    idle cap."""
    assert 0 < httpapi._Handler.timeout == httpapi.HANDLER_TIMEOUT_S
    monkeypatch.setattr(httpapi._Handler, "timeout", 0.2)
    silent = [socket.create_connection(("127.0.0.1", server.port), timeout=30) for _ in range(6)]
    try:
        for sock in silent:
            assert sock.recv(1) == b""  # the server closed it
    finally:
        for sock in silent:
            sock.close()
    assert settle(server.threads_before) <= httpapi.IDLE_THREADS
    assert request(server.port, "/v1/events")[0] == 200
