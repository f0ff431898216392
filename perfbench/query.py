"""`query`: one sequential reader of the read-only HTTP service.

A seeded registry of about 10k records, about 1 in 7 still embargoed, is
written by a child process (so that its memory does not count toward this
process's peak) and loaded the way `cveledger serve` loads it: `read_chain`
plus `replay`, then `httpapi.serve_in_thread`. One client runs a closed
loop over loopback, one connection at a time, with a seeded mix:
70% `GET /v1/cve/{id}` skewed toward the newest tenth of the registry,
10% `?product=`, and 5% each of `?submitter=`, `?status=`,
`/v1/blocks/{h}` and `/v1/events?since=<recent>`.

The mix is exact, not drawn: every run has the same number of requests of
each kind, statuses and submitters are asked in turn, and every tenth
product request probes a withheld record's product. Only the order, the
ids, products and heights vary with the seed.

Times are scaled to a quiet host by two references that are not the
program, both timed between requests: the p50s of the HTTP round trip by a
stdlib HTTP server in the same process that answers a fixed JSON body
(`HttpSpeed`), and the rate, the p99 and set-up, which are mostly
in-process work, by the integer loop the other workloads use (`HostSpeed`).

`?status=PUBLISHED` is left out of the mix: it returns most of the
registry and, at 1% of requests, would sit right at the p99 and make it
jump between runs. `/v1/audit` is left out; `operator` measures audit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from cveledger import httpapi, ledger, storage
from cveledger.canonical import to_canonical_bytes
from cveledger.records import parse_cve_id

from . import ingest
from .common import (
    HostSpeed,
    ROOT,
    SECRET_MARKER,
    Metric,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    rng_for,
    scratch_dir,
    timed_setups,
)

N_BLOCKS = 100  # of 100 transactions: about 10k records
# 200 requests per second of --seconds: about --seconds on a quiet 2-CPU
# host; at least 1,000 so that the p99 has 10 requests beyond it
REQUESTS_PER_SECOND = 200
MIN_REQUESTS = 1000
# the mix, in requests per 20
MIX = (("cve_one", 14), ("product", 2), ("submitter", 1), ("status", 1), ("blocks", 1), ("events", 1))
# the host-speed references are timed before every this many requests
SPEED_EVERY = 10
SETUP_REPEATS = 3
ROUTES = ("cve_one", "cve_list", "blocks", "events")
STATUSES = ("DRAFT", "REJECTED", "DISPUTED", "ARCHIVED")
_SECRET = SECRET_MARKER.encode()


def make_ledger(path: Path, seed: int) -> None:
    """Write the seeded registry's ledger (one peer suffices to make it)."""
    net = ingest.new_network(seed, n_peers=1)
    blocks = ingest.build_blocks(
        seed, N_BLOCKS, net.governance_id, net.clock, embargo_every=14, secret_every=7
    )
    for index, txs in enumerate(blocks):
        for op, args, caller in txs:
            result = net.invoke(op, args, caller)
            if not result.accepted:
                raise RuntimeError(f"block {index} {op} refused: {result.refusals}")
        net.tick()
    storage.write_chain_file(path, net.chain)


def _make_ledger_in_child(path: Path, seed: int) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    subprocess.run(
        [sys.executable, "-m", "perfbench.query", "--make-ledger", str(path), "--seed", str(seed)],
        cwd=ROOT, env=env, check=True, timeout=170,
    )


class _Service:
    """The registry loaded as `cveledger serve` loads it, served on loopback."""

    def __init__(self, ledger_path: Path):
        self.chain = storage.read_chain(ledger_path, recover=True, repair=False)
        self.state = ledger.replay(self.chain)
        self.server, self.port = httpapi.serve_in_thread(self.state, self.chain, port=0, ledger_path=ledger_path)
        status, _ = get(self.port, "/v1/blocks/0")
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


# about the size and shape of a point lookup's answer
_REFERENCE_BODY = {
    "cveID": "CVE-2025-0001",
    "description": "word " * 48,
    "product": "product-001",
    "severity": {"cvssScore": 7.5, "label": "HIGH"},
    "status": "PUBLISHED",
    "submitterCNA": "cna-1",
    "version": [{"hi": [1, 2, 3], "lo": [1, 0, 0]}],
}


class _ReferenceHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        body = json.dumps(_REFERENCE_BODY, sort_keys=True, separators=(",", ":")).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class HttpSpeed:
    """How fast this host answers HTTP on loopback while a run lasts.

    A request's time is mostly connection set-up, the server's thread start
    and stdlib request parsing, and on a shared host that cost drifts by a
    third or more over minutes while a pure-Python loop (`HostSpeed`) stays
    within a few percent. So the reference is a stdlib `ThreadingHTTPServer`
    in this process, built like the program's (a thread per connection, one
    connection per request) but answering a fixed JSON body; none of it is
    program code, so a faster program still reads faster. `sample()` times
    three requests and keeps the median. `scale()` is the reference's time
    on a quiet host over its median in the run.
    """

    REFERENCE_S = 0.0012

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _ReferenceHandler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.port = self._server.server_address[1]

    def sample(self) -> None:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            status, _ = get(self.port, "/reference")
            times.append(time.perf_counter() - t0)
            if status != 200:
                raise RuntimeError(f"reference server answered {status}")
        self.samples.append(median(times))

    def scale(self) -> float:
        return self.REFERENCE_S / median(self.samples)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def build_requests(seed: int, state, chain, count: int) -> list[tuple[str, str, str | None]]:
    """(route, path, cve id for point lookups) in a seeded order; `count`
    is rounded up to a whole number of 20-request mixes."""
    rng = rng_for(seed, "query-requests")
    ids = sorted(state.cve_registry)
    newest = ids[-max(1, len(ids) // 10):]
    products = sorted({r.product for r in state.cve_registry.values() if SECRET_MARKER not in r.product})
    secret_products = sorted({r.product for r in state.cve_registry.values() if SECRET_MARKER in r.product})
    submitters = sorted({r.submitter for r in state.cve_registry.values()})
    n_events = len(state.event_log)
    kinds = [kind for kind, per_20 in MIX for _ in range(per_20 * -(-count // 20))]
    rng.shuffle(kinds)
    asked = {kind: 0 for kind, _ in MIX}
    out = []
    for kind in kinds:
        turn = asked[kind]
        asked[kind] += 1
        if kind == "cve_one":
            cid = str(rng.choice(newest) if rng.random() < 0.8 else rng.choice(ids))
            out.append(("cve_one", f"/v1/cve/{cid}", cid))
        elif kind == "product":
            pool = secret_products if secret_products and turn % 10 == 9 else products
            out.append(("cve_list", f"/v1/cve?product={rng.choice(pool)}", None))
        elif kind == "submitter":
            out.append(("cve_list", f"/v1/cve?submitter={submitters[turn % len(submitters)]}", None))
        elif kind == "status":
            out.append(("cve_list", f"/v1/cve?status={STATUSES[turn % len(STATUSES)]}", None))
        elif kind == "blocks":
            out.append(("blocks", f"/v1/blocks/{rng.randrange(len(chain))}", None))
        else:
            out.append(("events", f"/v1/events?since={max(0, n_events - rng.randint(1, 500))}", None))
    return out


def drive(port: int, requests, tracer, outcome: Outcome, speeds):
    """Closed loop, one request at a time, sampling each of `speeds` before
    every `SPEED_EVERY` requests. Returns per-route latencies (s),
    point-lookup bodies to check, bytes received and the wall time."""
    latencies: dict[str, list[float]] = {route: [] for route in ROUTES}
    lookups: list[tuple[str, bytes]] = []
    received = 0
    started = time.perf_counter()
    for index, (route, path, cid) in enumerate(requests):
        if index % SPEED_EVERY == 0:
            for speed in speeds:
                speed.sample()
        tracer.begin_op(f"request {index} {route}")
        outcome.attempted += 1
        t0 = time.perf_counter()
        with tracer.remote_parent("http.request"):
            status, body = get(port, path)
        latencies[route].append(time.perf_counter() - t0)
        received += len(body)
        if status != 200:
            outcome.fail(f"GET {path} answered {status}: {body[:200]!r}")
            continue
        if _SECRET in body:
            outcome.fail(f"GET {path} leaked withheld content")
        if cid is not None:
            lookups.append((cid, body))
        elif SECRET_MARKER in path and body != b"[]":
            outcome.fail(f"GET {path} matched withheld content: {body[:200]!r}")
    return latencies, lookups, received, time.perf_counter() - started


def run(seed: int, seconds: int, tracer, *, setup_repeats: int = SETUP_REPEATS) -> Outcome:
    outcome = Outcome()
    count = max(MIN_REQUESTS, REQUESTS_PER_SECOND * seconds)
    with scratch_dir() as tmp:
        ledger_path = tmp / "ledger.jsonl"
        t0 = time.perf_counter()
        _make_ledger_in_child(ledger_path, seed)
        outcome.notes["ledger_build_s"] = time.perf_counter() - t0
        setup_speed = HostSpeed()
        setup_s, service = timed_setups(setup_repeats, lambda: _Service(ledger_path), setup_speed)
        try:
            http_speed, cpu_speed = HttpSpeed(), HostSpeed()
            try:
                state = service.state
                plan = build_requests(seed, state, service.chain, count)
                http_speed.sample()  # warm-up
                http_speed.samples.clear()
                with tracer.active():
                    latencies, lookups, received, wall = drive(
                        service.port, plan, tracer, outcome, (http_speed, cpu_speed)
                    )
                rss = peak_rss_mb()
            finally:
                http_speed.close()
        finally:
            service.close()

    for cid, body in lookups:
        record = state.cve_registry[parse_cve_id(cid)]
        expected = to_canonical_bytes(ledger.record_view(record, state.clock_now))
        outcome.check(body == expected, f"GET /v1/cve/{cid} differs from record_view")
    withheld = sum(1 for r in state.cve_registry.values() if SECRET_MARKER in r.product)
    outcome.notes["records"] = len(state.cve_registry)
    outcome.notes["withheld_records"] = withheld
    outcome.notes["height"] = len(service.chain) - 1
    outcome.notes["wall_s"] = wall

    every = [x * 1000 for route in ROUTES for x in latencies[route]]
    one = [x * 1000 for x in latencies["cve_one"]]
    n = len(every)
    # Each time is scaled by the reference that tracked it best across
    # separate runs on a drifting shared 2-CPU host (the power the metric
    # grew as of the reference's time): the p50s, mostly HTTP round trip,
    # by the HTTP reference (point lookups 1.03, all requests 1.75); the
    # rate and the p99, mostly list filters sorting and encoding in-process,
    # by the integer loop (rate 1.2, p99 1.23, against the HTTP reference's
    # 0.75 and 0.65); set-up by the loop timed around it (1.01).
    http_scale, cpu_scale, setup_scale = http_speed.scale(), cpu_speed.scale(), setup_speed.scale()
    outcome.notes["http_scale"] = http_scale
    outcome.notes["host_scale"] = cpu_scale
    outcome.notes["host_scale_setup"] = setup_scale
    raw = {
        "setup_s": setup_s,
        "throughput_per_s": n / (sum(every) / 1000),
        "latency_p50_ms": median(every),
        "latency_slow_ms": percentile(every, 0.99),
        "latency_light_ms": median(one),
    }
    for name, value in raw.items():
        outcome.notes[f"raw {name}"] = value
    outcome.metrics = {
        "setup_s": Metric(raw["setup_s"] * setup_scale, "s", setup_repeats),
        "peak_rss_mb": Metric(rss, "MB", 1),
        "throughput_per_s": Metric(raw["throughput_per_s"] / cpu_scale, "1/s", n, "requests_per_s"),
        "latency_p50_ms": Metric(raw["latency_p50_ms"] * http_scale, "ms", n, "query_p50_ms"),
        "latency_slow_ms": Metric(raw["latency_slow_ms"] * cpu_scale, "ms", n, "query_p99_ms"),
        "latency_light_ms": Metric(raw["latency_light_ms"] * http_scale, "ms", len(one), "cve_one_p50_ms"),
    }
    for route in ROUTES:
        outcome.layer[f"httpapi.request_p50_ms.{route}"] = median(latencies[route]) * 1000
    outcome.layer["httpapi.response_bytes"] = received
    return outcome


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write the query workload's ledger")
    parser.add_argument("--make-ledger", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    make_ledger(args.make_ledger, args.seed)
