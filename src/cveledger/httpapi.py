"""Read-only audit/query HTTP endpoints.

GET only; every other method gets a JSON 405 (headers only for HEAD).
Served views apply the same embargo redaction as the query layer,
including raw block responses: submission payloads of still-embargoed
records are served with their content fields replaced by the commitment
hash. Record views are served from the canonical bytes each record keeps
(`ledger.record_view_bytes`); a list body is its rows joined, byte for
byte the canonical encoding of the views as dicts. A one-filter list is
read back from `query_public`'s memo once asked, and each event's view is
encoded once (`QueryService.event_view`).

Each connection is answered at once on a kept handler thread
(`_KeptThreadServer`), so a request seldom pays for a thread start.
"""

from __future__ import annotations

import queue
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .canonical import to_canonical_bytes
from .canonical import to_canonical_json  # noqa: F401  (perfbench patches it here)
# content_commitment and record_view are looked up here by the benchmark's span tracer
from .chaincode import OP_SUBMIT, WorldState, content_commitment, is_content_withheld  # noqa: F401
from .errors import MalformedId, YearOutOfRange
from .ledger import Block, query_public, record_commitment, record_view, record_view_bytes  # noqa: F401
from .records import CveStatus, parse_cve_id
from .storage import audit_file

_CVE_FILTERS = {"status", "product", "year", "submitter", "id"}
# a number in a path or query string is ASCII digits after an optional minus;
# `int()` would also take "+4", " 3 ", "1_0" and non-ASCII digits
_INT_FULLMATCH = re.compile(r"-?[0-9]+").fullmatch


def _number(text: str) -> int:
    """The integer `text` spells, or the ValueError `int()` raises for text it refuses."""
    if _INT_FULLMATCH(text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def redacted_block_dict(block: Block, state: WorldState) -> dict:
    """Block wire form with embargoed submission content withheld. Each
    withheld submission gets a new payload dict whose record holds the
    commitment marker in its content fields and whose args drop `salt`;
    the block's own payloads are shared, never mutated."""
    obj = block.to_dict()
    redacted: list[str] = []
    for tx_obj in obj["txs"]:
        payload = tx_obj["payload"]
        if payload.get("op") != OP_SUBMIT:
            continue
        record_obj = payload["args"].get("record")
        if not isinstance(record_obj, dict):  # failed at commit: nothing to withhold
            continue
        try:
            cid = parse_cve_id(record_obj.get("cveID", ""))
        except (MalformedId, YearOutOfRange):
            continue
        stored = state.cve_registry.get(cid)
        if stored is None or not is_content_withheld(stored, state.clock_now):
            continue
        marker = f"committed:{record_commitment(stored)}"
        args = {key: value for key, value in payload["args"].items() if key != "salt"}
        args["record"] = dict(record_obj, description=marker, product=marker, version=[])
        tx_obj["payload"] = dict(payload, args=args)
        redacted.append(tx_obj["txId"])
    if redacted:
        obj["redactedTxs"] = redacted
    return obj


class QueryService:
    """Holds the snapshot the handlers serve from, and the ledger file that
    `/v1/audit` audits."""

    def __init__(self, state: WorldState, chain: list[Block], ledger_path: Path):
        self.state = state
        self.chain = chain
        self.ledger_path = Path(ledger_path)
        self._event_views: dict[int, bytes] = {}

    def event_view(self, index: int) -> bytes:
        """The canonical bytes of the event at `index` with its index, as
        `/v1/events` serves it, encoded on first use. The log only grows, so
        an index names one event for good."""
        view = self._event_views.get(index)
        if view is None:
            view = to_canonical_bytes(dict(self.state.event_log[index].to_dict(), index=index))
            self._event_views[index] = view
        return view

    def audit_report(self) -> dict:
        return audit_file(self.ledger_path).to_dict()


# seconds a connection may stay silent, mid-request included, before its
# handler closes it, so a client that sends nothing holds no thread for long
HANDLER_TIMEOUT_S = 30


class _Handler(BaseHTTPRequestHandler):
    server_version = "cveledger-query/0.1"
    timeout = HANDLER_TIMEOUT_S

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, code: int, obj) -> None:
        self._send_body(code, to_canonical_bytes(obj))

    def _send_body(self, code: int, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def do_GET(self):
        try:
            self._route()
        except BrokenPipeError:
            pass
        except Exception as exc:  # never let a handler kill the server
            self._error(500, f"internal error: {exc}")

    def _route(self):
        service = self.server.service  # type: ignore[attr-defined]
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query, keep_blank_values=True)

        if len(parts) >= 2 and parts[0] == "v1":
            if parts[1] == "cve" and len(parts) == 3:
                return self._one_cve(service, parts[2])
            if parts[1] == "cve" and len(parts) == 2:
                return self._cve_list(service, query)
            if parts[1] == "blocks" and len(parts) == 3:
                return self._block(service, parts[2])
            if parts[1] == "audit" and len(parts) == 2:
                return self._send(200, service.audit_report())
            if parts[1] == "events" and len(parts) == 2:
                return self._events(service, query)
        self._error(404, f"no such resource: {url.path}")

    def _one_cve(self, service, cve_text: str):
        try:
            cid = parse_cve_id(cve_text)
        except (MalformedId, YearOutOfRange) as exc:
            return self._error(400, str(exc))
        record = service.state.cve_registry.get(cid)
        if record is None:
            return self._error(404, f"unknown CVE id: {cve_text}")
        self._send_body(200, record_view_bytes(record, service.state.clock_now))

    def _cve_list(self, service, query: dict):
        unknown = set(query) - _CVE_FILTERS
        if unknown:
            return self._error(400, f"unknown filters: {sorted(unknown)}")
        filters: dict = {}
        try:
            if "status" in query:
                filters["status"] = CveStatus(query["status"][0])
            if "year" in query:
                filters["year"] = _number(query["year"][0])
            if "id" in query:
                filters["cve_id"] = parse_cve_id(query["id"][0])
            if "product" in query:
                filters["product"] = query["product"][0]
            if "submitter" in query:
                filters["submitter"] = query["submitter"][0]
        except (ValueError, MalformedId, YearOutOfRange) as exc:
            return self._error(400, f"bad filter: {exc}")
        rows = query_public(service.state, view=record_view_bytes, **filters)
        self._send_body(200, b"[" + b",".join(rows) + b"]")

    def _block(self, service, height_text: str):
        try:
            height = _number(height_text)
        except ValueError:
            return self._error(400, f"bad height: {height_text}")
        if height < 0 or height >= len(service.chain):
            return self._error(404, f"no block at height {height_text}")
        self._send(200, redacted_block_dict(service.chain[height], service.state))

    def _events(self, service, query: dict):
        since = 0
        if "since" in query:
            try:
                since = _number(query["since"][0])
            except ValueError:
                return self._error(400, f"bad since: {query['since'][0]}")
        end = len(service.state.event_log)
        views = b",".join(map(service.event_view, range(max(since, 0), end)))
        self._send_body(200, b'{"events":[%s],"next":%d}' % (views, end))

    def do_POST(self):
        self._error(405, "read-only service")

    do_PUT = do_POST
    do_DELETE = do_POST
    do_PATCH = do_POST
    do_HEAD = do_POST
    do_OPTIONS = do_POST


# handler threads kept waiting for a connection; one that finishes while
# this many wait exits, so a burst of connections leaves no more behind
IDLE_THREADS = 4
HANDLER_THREAD = "cveledger-query-handler"


class _KeptThreadServer(HTTPServer):
    """An `HTTPServer` that answers each connection on a thread at once, so
    no connection waits behind another, and keeps a thread that is done for
    the next connection. A connection goes to an idle thread if there is
    one, else to a new daemon thread named `HANDLER_THREAD`. `server_close`
    ends the idle threads; a thread still answering ends with its
    connection."""

    def __init__(self, *args, **kwargs):
        self._lock = threading.Lock()
        self._idle: list[tuple[queue.SimpleQueue, threading.Thread]] = []  # inbox, thread
        self._closed = False
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        if idle is None:
            threading.Thread(
                name=HANDLER_THREAD, target=self._answer, args=(request, client_address), daemon=True
            ).start()
        else:
            idle[0].put((request, client_address))

    def _answer(self, request, client_address) -> None:
        """Answer connections, each with `ThreadingMixIn`'s cleanup, until
        `IDLE_THREADS` others are idle or the server closes."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                if self._closed or len(self._idle) >= IDLE_THREADS:
                    return
                self._idle.append((inbox, threading.current_thread()))
            job = inbox.get()
            if job is None:
                return
            request, client_address = job

    def server_close(self):
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox, thread in idle:
            inbox.put(None)
            thread.join()


def serve_queries(
    state: WorldState, chain: list[Block], *, ledger_path: Path, port: int = 8440
) -> HTTPServer:
    """Start the read-only query service; caller owns the returned server
    (serve_forever / shutdown)."""
    server = _KeptThreadServer(("127.0.0.1", port), _Handler)
    server.service = QueryService(state, chain, ledger_path)  # type: ignore[attr-defined]
    return server


def serve_in_thread(state, chain, *, ledger_path, port=0) -> tuple[HTTPServer, int]:
    server = serve_queries(state, chain, ledger_path=ledger_path, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]
