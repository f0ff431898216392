"""A ledger line of the wrong shape gets a verdict, never a traceback.

A block whose `txs` holds a non-object is undecodable: `replay` and `tick`
refuse it with one `LedgerCorrupt` line at its height. Genesis trust
anchors of the wrong shape are refused the same way by every command that
reads them (`tick` through `Node.open`); `replay` reads none of them, so
it still folds the chain. The auditor reports both as `HASH_MISMATCH`.
"""

from __future__ import annotations

import json

import pytest

from cveledger.cli import main
from cveledger.errors import LedgerCorrupt
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
    lambda b: _args(b).update(policy={"rule": "ANY_N", "n": float("inf")}),
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
