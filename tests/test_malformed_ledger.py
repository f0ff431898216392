"""A ledger line of the wrong shape gets a verdict, never a traceback.

A block whose `txs` holds a non-object is undecodable: `replay` and `tick`
refuse it with one `LedgerCorrupt` line at its height. So is a line with a
NaN, an infinity or a number too large for a float anywhere in it, which
canonical JSON cannot encode. Genesis trust anchors of the wrong shape are
refused the same way by every command that reads them (`tick` through
`Node.open`); `replay` reads none of them, so it still folds the chain.
The auditor reports all of these as `HASH_MISMATCH`.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from cveledger.chaincode import WorldState
from cveledger.cli import main
from cveledger.errors import LedgerCorrupt
from cveledger.httpapi import serve_in_thread
from cveledger.node import LEDGER_FILE, Node


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "node"
    with Node.init(d, genesis_time=1000, seed=b"malformed-ledger"):
        pass
    return d


def _rewrite_genesis(data_dir, edit) -> None:
    ledger = data_dir / LEDGER_FILE
    lines = ledger.read_bytes().split(b"\n")
    genesis = json.loads(lines[0])
    edit(genesis)
    lines[0] = json.dumps(genesis, sort_keys=True, separators=(",", ":")).encode()  # Infinity allowed
    ledger.write_bytes(b"\n".join(lines))


def _run(capsys, data_dir, *argv) -> tuple[int, str, list[str]]:
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), *argv])
    out, err = capsys.readouterr()
    return code, out, err.strip().splitlines()


def _refused_at_genesis(capsys, data_dir, *argv) -> None:
    code, _, err = _run(capsys, data_dir, *argv)
    assert code == 1 and len(err) == 1, (argv, err)
    line = json.loads(err[0])
    assert line["error"] == "LedgerCorrupt" and "height 0" in line["message"], (argv, line)


def _audited_at_genesis(capsys, data_dir) -> None:
    code, out, _ = _run(capsys, data_dir, "audit")
    assert code == 1
    assert json.loads(out) == {"valid": False, "firstBadHeight": 0, "reason": "HASH_MISMATCH"}


def test_a_transaction_that_is_not_an_object_is_undecodable(data_dir, capsys):
    _rewrite_genesis(data_dir, lambda block: block.update(txs=[5]))
    for argv in (["replay"], ["tick"]):
        _refused_at_genesis(capsys, data_dir, *argv)
    _audited_at_genesis(capsys, data_dir)


def _args(block) -> dict:
    return block["txs"][0]["payload"]["args"]


BAD_ANCHORS = [
    lambda b: _args(b).update(peers=[1]),
    lambda b: _args(b).update(peers={"peer0.org0": 1}),
    lambda b: _args(b).update(peers={"peer0.org0": {"org": ["org0"], "publicKey": "00"}}),
    lambda b: _args(b).update(peers={"peer0.org0": {"org": "org0"}}),
    lambda b: _args(b).update(policy=[1]),
    lambda b: _args(b).update(policy={"rule": "ANY_N", "n": None}),
    lambda b: _args(b).update(policy={"rule": "ANY_N", "n": 1e300}),
    lambda b: _args(b).update(governance=[1]),
    lambda b: _args(b)["governance"]["gov.root"].update(serial=-1),
    lambda b: b.update(txs=[]),
]


@pytest.mark.parametrize("edit", BAD_ANCHORS)
def test_malformed_genesis_trust_anchors_are_refused_at_height_0(data_dir, capsys, edit):
    _rewrite_genesis(data_dir, edit)
    with pytest.raises(LedgerCorrupt) as err:
        Node.open(data_dir)
    assert err.value.height == 0
    _refused_at_genesis(capsys, data_dir, "tick")
    _audited_at_genesis(capsys, data_dir)
    code, _, err_lines = _run(capsys, data_dir, "replay")
    assert code == 0 and err_lines == []


@pytest.fixture
def onboarded_dir(tmp_path):
    """A data dir whose block 1 onboards `cna.redhat`."""
    d = tmp_path / "node"
    with Node.init(d, genesis_time=1000, seed=b"malformed-ledger") as node:
        cert = node.issue("cna.redhat", "CNA")
        cert_file = tmp_path / "redhat.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.redhat", cert_file)
    return d


def _http_audit(ledger) -> dict:
    server, port = serve_in_thread(WorldState(), [], ledger_path=ledger)
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/audit") as resp:
            return json.loads(resp.read())
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1E+400"])
def test_a_non_finite_number_is_undecodable(onboarded_dir, capsys, literal):
    ledger = onboarded_dir / LEDGER_FILE
    lines = ledger.read_bytes().split(b"\n")
    cert_hash = _args(json.loads(lines[1]))["certHash"]
    tampered = lines[1].replace(f'"certHash":"{cert_hash}"'.encode(), b'"certHash":' + literal.encode())
    assert tampered != lines[1]
    lines[1] = tampered
    ledger.write_bytes(b"\n".join(lines))
    data = ledger.read_bytes()
    verdict = {"valid": False, "firstBadHeight": 1, "reason": "HASH_MISMATCH"}
    code, out, _ = _run(capsys, onboarded_dir, "audit")
    assert code == 1 and json.loads(out) == verdict
    assert _http_audit(ledger) == verdict
    for argv in (["replay"], ["query"], ["tick"]):
        code, _, err = _run(capsys, onboarded_dir, *argv)
        assert code == 1 and len(err) == 1, (argv, err)
        line = json.loads(err[0])
        assert line["error"] == "LedgerCorrupt" and "height 1" in line["message"], (argv, line)
    assert ledger.read_bytes() == data


def test_a_large_finite_number_still_decodes(onboarded_dir, capsys):
    """Only the non-finite are refused: 1e300 decodes, and the auditor
    reports the edit as the hash mismatch it is."""
    ledger = onboarded_dir / LEDGER_FILE
    lines = ledger.read_bytes().split(b"\n")
    cert_hash = _args(json.loads(lines[1]))["certHash"]
    lines[1] = lines[1].replace(f'"certHash":"{cert_hash}"'.encode(), b'"certHash":1e300')
    ledger.write_bytes(b"\n".join(lines))
    code, out, _ = _run(capsys, onboarded_dir, "audit")
    assert code == 1 and json.loads(out) == {"valid": False, "firstBadHeight": 1, "reason": "HASH_MISMATCH"}
    code, _, err = _run(capsys, onboarded_dir, "replay")
    assert code == 0 and err == []
