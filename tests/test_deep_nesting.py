"""JSON nested too deeply for the interpreter is refused like any other
malformed input, at every boundary that decodes or encodes JSON.

A ledger line whose block 1 carries a 990- or 100,000-deep `certHash` gets
the auditor's height-1 `HASH_MISMATCH` verdict (CLI and HTTP) and is refused
by every reader with one `LedgerCorrupt` line. A config or record file that
deep is one `LedgerError` line naming the file. The canonical encoder
refuses what it cannot nest, so the auditor's re-encode of a line that only
just decodes gives the same verdict.
"""

from __future__ import annotations

import json
import threading

import pytest

from cveledger.canonical import ZERO_HASH, to_canonical_json
from cveledger.chaincode import OP_SUBMIT
from cveledger.ledger import Block, ChainAuditor, Transaction, block_line, parse_line
from cveledger.node import CONFIG_FILE, LEDGER_FILE

from test_malformed_ledger import _args, _http_audit, _run, onboarded_dir  # noqa: F401  (a fixture)

VERDICT = {"valid": False, "firstBadHeight": 1, "reason": "HASH_MISMATCH"}


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


def _nest_cert_hash(data: bytes, depth: int) -> bytes:
    """`data` with block 1's `certHash` replaced by `depth` nested lists."""
    lines = data.split(b"\n")
    cert_hash = _args(json.loads(lines[1]))["certHash"]
    tampered = lines[1].replace(f'"certHash":"{cert_hash}"'.encode(), b'"certHash":' + _nested(depth))
    assert tampered != lines[1]
    lines[1] = tampered
    return b"\n".join(lines)


@pytest.mark.parametrize("depth", [990, 100_000])
def test_a_deeply_nested_line_gets_a_verdict_and_every_reader_refuses_it(onboarded_dir, capsys, depth):
    ledger = onboarded_dir / LEDGER_FILE
    data = _nest_cert_hash(ledger.read_bytes(), depth)
    ledger.write_bytes(data)
    code, out, err = _run(capsys, onboarded_dir, "audit")
    assert (code, json.loads(out), err) == (1, VERDICT, [])
    assert _http_audit(ledger) == VERDICT  # a status other than 200 raises
    for argv in (["replay"], ["query", "--id", "CVE-2025-0001"], ["tick"]):
        code, _, err = _run(capsys, onboarded_dir, *argv)
        assert code == 1 and len(err) == 1, (argv, err)
        line = json.loads(err[0])
        assert line["error"] == "LedgerCorrupt" and "height 1" in line["message"], (argv, line)
    assert ledger.read_bytes() == data


def test_a_line_that_only_just_decodes_gets_the_same_verdict(onboarded_dir):
    """Audited from a shallow thread, some depth below 1,000 decodes but is
    too deep to encode back; every depth around it gets the verdict."""
    clean = (onboarded_dir / LEDGER_FILE).read_bytes()
    reports = {}

    def audit_all():
        for depth in range(960, 1000):
            reports[depth] = ChainAuditor().audit_bytes(_nest_cert_hash(clean, depth)).to_dict()

    thread = threading.Thread(target=audit_all)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(reports) == 40 and all(report == VERDICT for report in reports.values())


def test_a_deeply_nested_config_or_record_file_is_one_error_naming_it(onboarded_dir, tmp_path, capsys):
    ledger = onboarded_dir / LEDGER_FILE
    data = ledger.read_bytes()
    record = tmp_path / "record.json"
    record.write_bytes(b'{"cveID":' + _nested(100_000) + b"}")
    config = onboarded_dir / CONFIG_FILE
    runs = [(["submit", str(record)], "record.json")]
    runs += [(["replay"], CONFIG_FILE), (["tick"], CONFIG_FILE)]
    for index, (argv, name) in enumerate(runs):
        if index == 1:
            config.write_bytes(b'{"ordererConfig":' + _nested(100_000) + b"}")
        code, _, err = _run(capsys, onboarded_dir, *argv)
        assert code == 1 and len(err) == 1, (argv, err)
        line = json.loads(err[0])
        assert line["error"] == "LedgerError" and name in line["message"], (argv, line)
    assert ledger.read_bytes() == data


def test_the_codec_refuses_nesting_too_deep_with_a_value_error():
    nested: list = []
    for _ in range(100_000):
        nested = [nested]
    with pytest.raises(ValueError, match="nesting"):
        to_canonical_json(nested)
    with pytest.raises(ValueError, match="nesting"):
        Transaction.build(OP_SUBMIT, {"record": nested}, "cna.redhat", 1000)
    payload = {"args": {"record": nested}, "caller": "cna.redhat", "clockNow": 1000, "op": OP_SUBMIT}
    block = Block.build(1, ZERO_HASH, 1000, [Transaction(payload=payload, tx_id="ab" * 32, caller_signature="")])
    with pytest.raises(ValueError, match="nesting"):
        block_line(block)
    with pytest.raises(ValueError, match="nesting"):
        parse_line(b'{"height":' + _nested(100_000) + b"}")
