"""Operator command-line interface.

All output is JSON: results on stdout, errors as a single line on stderr.
Exit codes: 0 success, 1 domain error (guard failure, invalid audit),
2 usage error.

Each subcommand is declared once, in `COMMANDS`, in the order `--help`
lists them: its name, help, arguments and handler, and whether the handler
runs on the `Node` that `Node.open` returns (the writers) or on the data
dir's path. `build_parser` builds the parser from the table; `main` looks
the parsed command up in it, runs the handler and prints what it returns.

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
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .bench import bench
from .canonical import to_canonical_json
from .decision import DecisionInputs, decide_architecture
from .errors import LedgerError
from .identity import ROLE_CNA, ROLE_GOVERNANCE, ROLE_READER
# replay and read_chain are looked up here by the benchmark's span tracer
from .ledger import replay, state_hash  # noqa: F401
from .node import LEDGER_FILE, Node, initialized, load_data_dir, read_json_file
from .records import CveStatus, parse_cve_id
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


def _arg(*flags, **kwargs) -> tuple:
    """One `add_argument` call of a subcommand."""
    return flags, kwargs


# the acting participant of a correction; `status` declares its own, with a help text
_AS = _arg("--as", dest="caller", default=None)
_STATUSES = [s.value for s in CveStatus]


class _Command(NamedTuple):
    """One subcommand. `run(args, target)` gets the parsed args and the
    `Node` that `Node.open` returned if `on_node`, else the data dir's path;
    it returns the result to print, or None once it has printed its own.
    The command exits 1 when `ok(result)` is false."""

    name: str
    help: str
    arguments: tuple
    run: Callable
    on_node: bool = False
    ok: Callable = lambda out: True


def _decide(args, data_dir) -> dict:
    inputs = DecisionInputs(
        need_store=args.store,
        multiple_writers=args.writers,
        online_ttp_available=args.ttp,
        writers_known=args.known,
        writers_trusted=args.trusted,
        public_verifiability=args.public,
    )
    return {"inputs": inputs.to_dict(), "verdict": decide_architecture(inputs).value}


def _init(args, data_dir) -> dict:
    with Node.init(data_dir, genesis_time=args.now, peer_count=args.peers, listen_port=args.port) as node:
        return {
            "dataDir": str(data_dir),
            "genesisBlockHash": node.net.chain[0].block_hash,
            "caPublicKey": node.net.ca.public_key,
            "governance": node.config.governance_id,
            "peers": sorted(node.net.trust.peer_keys),
        }


def _replay(args, data_dir) -> dict:
    _, chain, state, _ = load_data_dir(data_dir, checkpoint=False)
    return {"stateHash": state_hash(state), "height": chain[-1].height}


def _query(args, data_dir) -> list:
    from .ledger import query_public  # looked up per call: the span tracer patches it

    _, _, state, _ = load_data_dir(data_dir)
    return query_public(
        state,
        status=None if args.status is None else CveStatus(args.status),
        product=args.product,
        year=args.year,
        cve_id=None if args.cve_id is None else parse_cve_id(args.cve_id),
        submitter=args.submitter,
    )


def _serve(args, data_dir) -> None:
    """Prints where it serves before it blocks, so it returns nothing to print."""
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


def _issue(args, node) -> dict:
    cert = node.issue(args.participant, args.role)
    out_path = Path(args.out or f"{args.participant}.cert.json")
    out_path.write_text(to_canonical_json(cert.to_dict()) + "\n", encoding="utf-8")
    return {
        "subject": cert.subject,
        "role": cert.role,
        "serial": cert.serial,
        "certHash": cert.cert_hash(),
        "certFile": str(out_path),
    }


def _merge_meta(candidates: list) -> list:
    if not all(isinstance(c, dict) and isinstance(c.get("cveID"), str) for c in candidates):
        raise TypeError("each entry must be an object with a string cveID")
    return candidates


def _merge(args, node) -> dict:
    candidates = read_json_file(args.meta, list, _merge_meta)
    meta_ids = {c["cveID"] for c in candidates}
    if meta_ids != set(args.ids):
        raise LedgerError(f"merge ids {sorted(set(args.ids))} do not match --meta entries {sorted(meta_ids)}")
    return node.merge(candidates, caller=args.caller)


COMMANDS = {c.name: c for c in (
    _Command("init", "create CA, genesis block, bootstrap governance", (
        _arg("--now", type=int, default=None, help="genesis block time (unix seconds)"),
        _arg("--peers", type=int, default=3),
        _arg("--port", type=int, default=8440),
    ), _init),
    _Command("issue", "issue a certificate (and local key) for a participant", (
        _arg("participant"),
        _arg("--role", choices=[ROLE_CNA, ROLE_GOVERNANCE, ROLE_READER], default=ROLE_CNA),
        _arg("--out", default=None, help="certificate file to write"),
    ), _issue, on_node=True),
    _Command("onboard", "authorize a CNA (governance)", (_arg("cna"), _arg("certfile")),
             lambda args, node: node.onboard(args.cna, args.certfile), on_node=True),
    _Command("revoke", "revoke a CNA's authorization and certificate", (_arg("cna"),),
             lambda args, node: node.revoke(args.cna), on_node=True),
    _Command("submit", "submit a CVE record", (
        _arg("record_json"), _arg("--embargo", type=int, default=None, help="embargo until (unix seconds)"),
    ), lambda args, node: node.submit(read_json_file(args.record_json), embargo=args.embargo), on_node=True),
    _Command("status", "transition a record's lifecycle status", (
        _arg("cve_id"),
        _arg("new_status", choices=_STATUSES),
        _arg("--as", dest="caller", default=None, help="acting participant id"),
    ), lambda args, node: node.update_status(args.cve_id, args.new_status, caller=args.caller), on_node=True),
    _Command("reject", "reject a record with an explanation", (_arg("cve_id"), _arg("--reason", required=True), _AS),
             lambda args, node: node.reject(args.cve_id, args.reason, caller=args.caller), on_node=True),
    _Command("dispute", "mark a record disputed", (
        _arg("cve_id"),
        _arg("--reason", required=True, help="nature of the dispute"),
        _arg("--ref", default=None, help="external reference backing the dispute"),
        _AS,
    ), lambda args, node: node.dispute(args.cve_id, args.reason, external_ref=args.ref, caller=args.caller),
        on_node=True),
    _Command("merge", "merge duplicate records onto the canonical id", (
        _arg("ids", nargs="+"), _arg("--meta", required=True, help="candidates JSON (criteria per id)"), _AS,
    ), _merge, on_node=True),
    _Command("split", "split one record into several", (
        _arg("cve_id"), _arg("--candidates", required=True, help="split candidates JSON"), _AS,
    ), lambda args, node: node.split(args.cve_id, read_json_file(args.candidates, object), caller=args.caller),
        on_node=True),
    _Command("partialdup", "resolve partially overlapping records", (_arg("keep"), _arg("revise"), _AS),
             lambda args, node: node.partial_duplicate(args.keep, args.revise, caller=args.caller), on_node=True),
    _Command("tick", "advance the chain clock and sweep embargoes", (_arg("--now", type=int, default=None),),
             lambda args, node: node.tick(now=args.now), on_node=True),
    _Command("query", "query public record views", (
        _arg("--status", choices=_STATUSES, default=None),
        _arg("--product", default=None),
        _arg("--year", type=int, default=None),
        _arg("--id", dest="cve_id", default=None),
        _arg("--submitter", default=None),
    ), _query),
    _Command("audit", "verify the ledger file; exit 0 iff valid", (),
             lambda args, data_dir: audit_file(initialized(data_dir, LEDGER_FILE)).to_dict(),
             ok=lambda report: report["valid"]),
    _Command("replay", "replay the ledger file and print the state hash", (), _replay),
    _Command("decide", "blockchain-suitability decision (six yes/no flags)", tuple(
        _arg(f"--{flag}", action="store_true") for flag in ("store", "writers", "ttp", "known", "trusted", "public")
    ), _decide),
    _Command("bench", "throughput/latency benchmark", (
        _arg("--txs", type=int, required=True), _arg("--peers", type=int, default=3),
    ), lambda args, data_dir: bench(args.txs, args.peers)),
    _Command("serve", "read-only query endpoints", (_arg("--port", type=int, default=None),), _serve),
)}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: a parse fills its own namespace."""
    parser = _Parser(prog="cveledger", description="Permissioned-ledger CVE registry")
    parser.add_argument(
        "--data-dir", default=DEFAULT_DATA_DIR, help="node data directory (ledger, keys, certs)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in command.arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    data_dir = Path(args.data_dir)
    try:
        if command.on_node:
            with Node.open(data_dir) as node:
                out = command.run(args, node)
        else:
            out = command.run(args, data_dir)
        if out is not None:
            _emit(out)
    except LedgerError as exc:
        _fail(exc.code, str(exc))
        return 1
    except (OSError, ValueError) as exc:
        _fail(type(exc).__name__, str(exc))
        return 1
    return 0 if command.ok(out) else 1


if __name__ == "__main__":
    sys.exit(main())
