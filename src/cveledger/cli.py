"""Operator command-line interface.

All output is JSON: results on stdout, errors as a single line on stderr.
Exit codes: 0 success, 1 domain error (guard failure, invalid audit),
2 usage error.

Read commands never write the ledger. Writers leave the state checkpoint
next to it (`ledger.jsonl.state`) after each committed block, so that the
next write or `query` decodes and replays only the blocks appended since.
`audit` writes one file, the audit watermark (`storage.audit_file`), so
that the next audit verifies only the blocks appended since; `serve`
writes it on each `GET /v1/audit`, and `replay` and `query` write nothing.
`replay` and `serve` load the ledger from genesis, never from the
checkpoint: `replay` is the oracle the checkpoint is checked against.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .bench import bench
from .canonical import to_canonical_json
from .decision import DecisionInputs, decide_architecture
from .errors import LedgerError
from .identity import ROLE_CNA, ROLE_GOVERNANCE, ROLE_READER
# replay and read_chain are looked up here by the benchmark's span tracer
from .ledger import replay, state_hash  # noqa: F401
from .node import LEDGER_FILE, Node, load_data_dir, read_json_file
from .records import CveStatus
from .storage import audit_file, read_chain  # noqa: F401

DEFAULT_DATA_DIR = os.environ.get("CVELEDGER_DATA_DIR", "./cveledger-data")


def _emit(obj) -> None:
    print(to_canonical_json(obj))


def _fail(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("UsageError", message)
        raise SystemExit(2)


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: a parse fills its own namespace."""
    parser = _Parser(prog="cveledger", description="Permissioned-ledger CVE registry")
    parser.add_argument(
        "--data-dir", default=DEFAULT_DATA_DIR, help="node data directory (ledger, keys, certs)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create CA, genesis block, bootstrap governance")
    p.add_argument("--now", type=int, default=None, help="genesis block time (unix seconds)")
    p.add_argument("--peers", type=int, default=3)
    p.add_argument("--port", type=int, default=8440)

    p = sub.add_parser("issue", help="issue a certificate (and local key) for a participant")
    p.add_argument("participant")
    p.add_argument("--role", choices=[ROLE_CNA, ROLE_GOVERNANCE, ROLE_READER], default=ROLE_CNA)
    p.add_argument("--out", default=None, help="certificate file to write")

    p = sub.add_parser("onboard", help="authorize a CNA (governance)")
    p.add_argument("cna")
    p.add_argument("certfile")

    p = sub.add_parser("revoke", help="revoke a CNA's authorization and certificate")
    p.add_argument("cna")

    p = sub.add_parser("submit", help="submit a CVE record")
    p.add_argument("record_json")
    p.add_argument("--embargo", type=int, default=None, help="embargo until (unix seconds)")

    p = sub.add_parser("status", help="transition a record's lifecycle status")
    p.add_argument("cve_id")
    p.add_argument("new_status", choices=[s.value for s in CveStatus])
    p.add_argument("--as", dest="caller", default=None, help="acting participant id")

    p = sub.add_parser("reject", help="reject a record with an explanation")
    p.add_argument("cve_id")
    p.add_argument("--reason", required=True)
    p.add_argument("--as", dest="caller", default=None)

    p = sub.add_parser("dispute", help="mark a record disputed")
    p.add_argument("cve_id")
    p.add_argument("--reason", required=True, help="nature of the dispute")
    p.add_argument("--ref", default=None, help="external reference backing the dispute")
    p.add_argument("--as", dest="caller", default=None)

    p = sub.add_parser("merge", help="merge duplicate records onto the canonical id")
    p.add_argument("ids", nargs="+")
    p.add_argument("--meta", required=True, help="candidates JSON (criteria per id)")
    p.add_argument("--as", dest="caller", default=None)

    p = sub.add_parser("split", help="split one record into several")
    p.add_argument("cve_id")
    p.add_argument("--candidates", required=True, help="split candidates JSON")
    p.add_argument("--as", dest="caller", default=None)

    p = sub.add_parser("partialdup", help="resolve partially overlapping records")
    p.add_argument("keep")
    p.add_argument("revise")
    p.add_argument("--as", dest="caller", default=None)

    p = sub.add_parser("tick", help="advance the chain clock and sweep embargoes")
    p.add_argument("--now", type=int, default=None)

    p = sub.add_parser("query", help="query public record views")
    p.add_argument("--status", choices=[s.value for s in CveStatus], default=None)
    p.add_argument("--product", default=None)
    p.add_argument("--year", type=int, default=None)
    p.add_argument("--id", dest="cve_id", default=None)
    p.add_argument("--submitter", default=None)

    sub.add_parser("audit", help="verify the ledger file; exit 0 iff valid")
    sub.add_parser("replay", help="replay the ledger file and print the state hash")

    p = sub.add_parser("decide", help="blockchain-suitability decision (six yes/no flags)")
    for flag, dest in (
        ("--store", "store"),
        ("--writers", "writers"),
        ("--ttp", "ttp"),
        ("--known", "known"),
        ("--trusted", "trusted"),
        ("--public", "public"),
    ):
        p.add_argument(flag, dest=dest, action="store_true")

    p = sub.add_parser("bench", help="throughput/latency benchmark")
    p.add_argument("--txs", type=int, required=True)
    p.add_argument("--peers", type=int, default=3)

    p = sub.add_parser("serve", help="read-only query endpoints")
    p.add_argument("--port", type=int, default=None)

    return parser


def _merge_meta(candidates: list) -> list:
    if not all(isinstance(c, dict) and isinstance(c.get("cveID"), str) for c in candidates):
        raise TypeError("each entry must be an object with a string cveID")
    return candidates


def _run(args) -> int:
    data_dir = Path(args.data_dir)
    command = args.command

    if command == "decide":
        inputs = DecisionInputs(
            need_store=args.store,
            multiple_writers=args.writers,
            online_ttp_available=args.ttp,
            writers_known=args.known,
            writers_trusted=args.trusted,
            public_verifiability=args.public,
        )
        _emit({"inputs": inputs.to_dict(), "verdict": decide_architecture(inputs).value})
        return 0

    if command == "bench":
        _emit(bench(args.txs, args.peers))
        return 0

    if command == "init":
        with Node.init(
            data_dir, genesis_time=args.now, peer_count=args.peers, listen_port=args.port
        ) as node:
            _emit(
                {
                    "dataDir": str(data_dir),
                    "genesisBlockHash": node.net.chain[0].block_hash,
                    "caPublicKey": node.net.ca.public_key,
                    "governance": node.config.governance_id,
                    "peers": sorted(node.net.trust.peer_keys),
                }
            )
        return 0

    if command == "audit":
        report = audit_file(data_dir / LEDGER_FILE)
        _emit(report.to_dict())
        return 0 if report.valid else 1

    if command == "replay":
        _, chain, state, _ = load_data_dir(data_dir, checkpoint=False)
        _emit({"stateHash": state_hash(state), "height": chain[-1].height})
        return 0

    if command == "query":
        from .ledger import query_public
        from .records import parse_cve_id

        _, _, state, _ = load_data_dir(data_dir)
        filters: dict = {}
        if args.status is not None:
            filters["status"] = CveStatus(args.status)
        if args.product is not None:
            filters["product"] = args.product
        if args.year is not None:
            filters["year"] = args.year
        if args.cve_id is not None:
            filters["cve_id"] = parse_cve_id(args.cve_id)
        if args.submitter is not None:
            filters["submitter"] = args.submitter
        _emit(query_public(state, **filters))
        return 0

    if command == "serve":
        from .httpapi import serve_queries

        config, chain, state, _ = load_data_dir(data_dir, checkpoint=False)
        port = args.port if args.port is not None else config.listen_port
        server = serve_queries(state, chain, port=port, ledger_path=data_dir / LEDGER_FILE)
        _emit({"serving": f"http://127.0.0.1:{server.server_address[1]}", "height": chain[-1].height})
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    # everything below mutates the ledger
    with Node.open(data_dir) as node:
        if command == "issue":
            cert = node.issue(args.participant, args.role)
            out_path = Path(args.out or f"{args.participant}.cert.json")
            out_path.write_text(to_canonical_json(cert.to_dict()) + "\n", encoding="utf-8")
            _emit(
                {
                    "subject": cert.subject,
                    "role": cert.role,
                    "serial": cert.serial,
                    "certHash": cert.cert_hash(),
                    "certFile": str(out_path),
                }
            )
            return 0
        if command == "onboard":
            _emit(node.onboard(args.cna, args.certfile))
            return 0
        if command == "revoke":
            _emit(node.revoke(args.cna))
            return 0
        if command == "submit":
            _emit(node.submit(read_json_file(args.record_json), embargo=args.embargo))
            return 0
        if command == "status":
            _emit(node.update_status(args.cve_id, args.new_status, caller=args.caller))
            return 0
        if command == "reject":
            _emit(node.reject(args.cve_id, args.reason, caller=args.caller))
            return 0
        if command == "dispute":
            _emit(node.dispute(args.cve_id, args.reason, external_ref=args.ref, caller=args.caller))
            return 0
        if command == "merge":
            candidates = read_json_file(args.meta, list, _merge_meta)
            meta_ids = {c["cveID"] for c in candidates}
            if meta_ids != set(args.ids):
                raise LedgerError(
                    f"merge ids {sorted(set(args.ids))} do not match --meta entries {sorted(meta_ids)}"
                )
            _emit(node.merge(candidates, caller=args.caller))
            return 0
        if command == "split":
            _emit(node.split(args.cve_id, read_json_file(args.candidates, object), caller=args.caller))
            return 0
        if command == "partialdup":
            _emit(node.partial_duplicate(args.keep, args.revise, caller=args.caller))
            return 0
        if command == "tick":
            _emit(node.tick(now=args.now))
            return 0

    raise LedgerError(f"unhandled command: {command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except LedgerError as exc:
        _fail(exc.code, str(exc))
        return 1
    except (OSError, ValueError) as exc:
        _fail(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
