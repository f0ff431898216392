"""Read-only audit/query HTTP endpoints.

GET only; every other method gets a JSON 405 (headers only for HEAD).
Served views apply the same embargo redaction as the query layer,
including raw block responses: submission payloads of still-embargoed
records are served with their content fields replaced by the commitment
hash. Record views are served from the canonical bytes each record keeps
(`ledger.record_view_bytes`); a list body is its rows joined, byte for
byte the canonical encoding of the views as dicts.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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

    def audit_report(self) -> dict:
        return audit_file(self.ledger_path).to_dict()


class _Handler(BaseHTTPRequestHandler):
    server_version = "cveledger-query/0.1"

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
                filters["year"] = int(query["year"][0])
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
            height = int(height_text)
        except ValueError:
            return self._error(400, f"bad height: {height_text}")
        if height < 0 or height >= len(service.chain):
            return self._error(404, f"no block at height {height_text}")
        self._send(200, redacted_block_dict(service.chain[height], service.state))

    def _events(self, service, query: dict):
        since = 0
        if "since" in query:
            try:
                since = int(query["since"][0])
            except ValueError:
                return self._error(400, f"bad since: {query['since'][0]}")
        log = service.state.event_log
        start = max(since, 0)
        events = [dict(e.to_dict(), index=i) for i, e in enumerate(log[start:], start)]
        self._send(200, {"events": events, "next": len(log)})

    def do_POST(self):
        self._error(405, "read-only service")

    do_PUT = do_POST
    do_DELETE = do_POST
    do_PATCH = do_POST
    do_HEAD = do_POST
    do_OPTIONS = do_POST


def serve_queries(
    state: WorldState, chain: list[Block], *, ledger_path: Path, port: int = 8440
) -> ThreadingHTTPServer:
    """Start the read-only query service; caller owns the returned server
    (serve_forever / shutdown)."""
    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    server.service = QueryService(state, chain, ledger_path)  # type: ignore[attr-defined]
    return server


def serve_in_thread(state, chain, *, ledger_path, port=0) -> tuple[ThreadingHTTPServer, int]:
    server = serve_queries(state, chain, ledger_path=ledger_path, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]
