"""The ledger line: one codec, one exact audit, kept payload bytes.

`ledger.block_line` writes a block's line and `ledger.parse_line` reads
it back; the file auditor accepts a line only if the block it decodes to
encodes back to exactly that line. This checks that the rule refuses every
other spelling of a block (whitespace, an added key, a `\\u` escape, a
lone surrogate) at its height through all three audit surfaces, and that
it never refuses a line the program wrote. It also checks the two copies
the line rule leans on: the payload bytes a transaction keeps, and the
redacted block the HTTP block route serves.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import ledger
from cveledger.canonical import to_canonical_bytes, to_canonical_json
from cveledger.chaincode import OP_SUBMIT, WorldState, is_content_withheld
from cveledger.cli import main
from cveledger.errors import MalformedId, YearOutOfRange
from cveledger.httpapi import redacted_block_dict
from cveledger.ledger import (
    HASH_MISMATCH,
    AuditReport,
    Block,
    ChainAuditor,
    Transaction,
    block_line,
    parse_line,
    record_commitment,
    replay,
    verify_chain,
)
from cveledger.network import SimulatedNetwork, drive_scenario
from cveledger.node import LEDGER_FILE, Node
from cveledger.records import parse_cve_id

from test_malformed_ledger import _http_audit  # the JSON body; an error status raises HTTPError
from test_op_table import ALL_OPS_SCRIPT

RECORD = {
    "cveID": "CVE-2025-0001",
    "description": "Stack smash in widget",
    "product": "widget",
    "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
    "severity": {"label": "HIGH", "cvssScore": 7.5},
    "submitterCNA": "cna.redhat",
}


@pytest.fixture(scope="module")
def demo_lines(tmp_path_factory) -> list[bytes]:
    """The lines of the README walk-through's ledger: genesis, the
    onboarding of `cna.redhat`, an embargoed submission, the release tick."""
    tmp = tmp_path_factory.mktemp("line-owner")
    with Node.init(tmp / "node", genesis_time=1000, seed=b"line-owner") as node:
        cert = node.issue("cna.redhat", "CNA")
        cert_file = tmp / "redhat.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.redhat", cert_file)
        node.submit(dict(RECORD), embargo=1500)
        node.tick(1500)
    lines = (tmp / "node" / LEDGER_FILE).read_bytes().split(b"\n")
    assert len(lines) == 5 and lines[-1] == b""
    return lines[:-1]


def _space_after_a_colon(lines):
    return 2, lines[2].replace(b'":', b'": ', 1)


def _key_in_the_block(lines):
    return 2, b'{"zzz":"x",' + lines[2][1:]


def _key_in_a_transaction(lines):
    return 2, lines[2].replace(b'"txs":[{', b'"txs":[{"zzz":"x",', 1)


def _escaped_letter(lines):
    return 2, lines[2].replace(b'"Stack smash', b'"\\u0053tack smash', 1)


def _lone_surrogate(lines):
    cert_hash = json.loads(lines[1])["txs"][0]["payload"]["args"]["certHash"]
    return 1, lines[1].replace(f'"certHash":"{cert_hash}"'.encode(), b'"certHash":"\\ud800"', 1)


EDITS = [_space_after_a_colon, _key_in_the_block, _key_in_a_transaction, _escaped_letter, _lone_surrogate]


@pytest.mark.parametrize("edit", EDITS, ids=lambda edit: edit.__name__.strip("_"))
def test_every_other_spelling_of_a_line_is_a_hash_mismatch_at_its_height(demo_lines, tmp_path, capsys, edit):
    height, tampered = edit(demo_lines)
    assert tampered != demo_lines[height]
    json.loads(tampered)  # still valid JSON: only the line rule refuses it
    lines = list(demo_lines)
    lines[height] = tampered
    data = b"\n".join(lines) + b"\n"
    verdict = AuditReport(valid=False, first_bad_height=height, reason=HASH_MISMATCH)
    assert ChainAuditor().audit_bytes(data) == verdict

    data_dir = tmp_path / "node"
    data_dir.mkdir()
    (data_dir / LEDGER_FILE).write_bytes(data)
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), "audit"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out), err) == (1, verdict.to_dict(), "")
    assert _http_audit(data_dir / LEDGER_FILE) == verdict.to_dict()


def test_the_untampered_demo_ledger_audits_valid(demo_lines):
    assert ChainAuditor().audit_bytes(b"".join(line + b"\n" for line in demo_lines)).valid


# -- the rule never refuses a line the program wrote ----------------------------


@pytest.fixture(scope="module")
def all_ops_chain() -> list[Block]:
    net, _, _ = drive_scenario(ALL_OPS_SCRIPT)
    return list(net.chain)


def test_every_line_of_an_all_ops_chain_encodes_back_to_itself(all_ops_chain):
    ops = set()
    for block in all_ops_chain:
        line = block_line(block)
        assert line == to_canonical_bytes(block.to_dict()) + b"\n"
        assert block_line(parse_line(line[:-1])) == line
        ops.update(tx.payload["op"] for tx in block.txs)
    assert len(ops) >= 10, ops
    assert verify_chain(all_ops_chain).valid


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)  # any code point but a surrogate
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(args=st.lists(st.dictionaries(_TEXT, _JSON, max_size=4), min_size=1, max_size=3), caller=_TEXT)
def test_lines_whose_args_hold_any_text_encode_back_to_themselves(args, caller):
    txs = [Transaction.build(OP_SUBMIT, a, caller, 1000 + i) for i, a in enumerate(args)]
    txs = [tx.with_endorsements([(caller, "ab" * 64)]) for tx in txs]
    line = block_line(Block.build(1, "0" * 64, 1000, txs))
    block = parse_line(line[:-1])
    assert block_line(block) == line
    assert [tx.payload_bytes() for tx in block.txs] == [tx.payload_bytes() for tx in txs]


@pytest.fixture(scope="module")
def text_network() -> SimulatedNetwork:
    net = SimulatedNetwork(seed=b"line-owner-text", genesis_time=1000)
    net.onboard("cna.redhat", net.issue_identity("cna.redhat"), net.governance_id)
    net.tick(1001)
    return net


@settings(max_examples=30, deadline=None)
@given(description=_TEXT.filter(bool))
def test_a_committed_description_of_any_text_audits_valid(text_network, description):
    net = text_network
    record = dict(RECORD, cveID=f"CVE-2025-{len(net.chain):04d}", description=description)
    assert net.submit(record).accepted
    [block] = net.tick(net.clock + 1)
    line = block_line(block)
    assert json.loads(line)["txs"][0]["payload"]["args"]["record"]["description"] == description
    assert block_line(parse_line(line[:-1])) == line
    assert verify_chain(net.chain).valid


# -- kept payload bytes -----------------------------------------------------------


def test_kept_payload_bytes_equal_a_fresh_encoding(all_ops_chain):
    replayed = [parse_line(block_line(block)[:-1]) for block in all_ops_chain]
    txs = [tx for chain in (all_ops_chain, replayed) for block in chain for tx in block.txs]
    assert len(txs) > 20
    for tx in txs:
        assert tx.payload_bytes() == to_canonical_bytes(tx.payload)
        payload = dict(tx.payload, clockNow=tx.payload["clockNow"] + 1)
        changed = dataclasses.replace(tx, payload=payload)
        assert changed.payload_bytes() == to_canonical_bytes(payload) != tx.payload_bytes()


def test_a_transaction_encodes_its_payload_once(monkeypatch):
    encoded = []
    encode = ledger.to_canonical_bytes
    monkeypatch.setattr(ledger, "to_canonical_bytes", lambda obj: encoded.append(obj) or encode(obj))
    tx = Transaction.build(OP_SUBMIT, {"record": dict(RECORD)}, "cna.redhat", 1000)
    endorsed = tx.with_endorsements([("peer0.org0", "ab" * 64)])
    assert tx.payload_bytes() is endorsed.payload_bytes()
    assert encoded == [tx.payload]


# -- the block route copies only what it redacts -------------------------------------


def oracle_redacted_block_dict(block: Block, state: WorldState) -> dict:
    """The block route's redaction as it was: a deep copy by a canonical
    round trip, mutated in place."""
    obj = json.loads(to_canonical_json(block.to_dict()))
    redacted: list[str] = []
    for tx_obj in obj["txs"]:
        payload = tx_obj["payload"]
        if payload.get("op") != OP_SUBMIT:
            continue
        record_obj = payload.get("args", {}).get("record", {})
        try:
            cid = parse_cve_id(record_obj.get("cveID", ""))
        except (MalformedId, YearOutOfRange):
            continue
        stored = state.cve_registry.get(cid)
        if stored is None or not is_content_withheld(stored, state.clock_now):
            continue
        marker = f"committed:{record_commitment(stored)}"
        record_obj["description"] = marker
        record_obj["product"] = marker
        record_obj["version"] = []
        payload["args"].pop("salt", None)
        redacted.append(tx_obj["txId"])
    if redacted:
        obj["redactedTxs"] = redacted
    return obj


def _embargo_script() -> dict:
    actions = [
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.alpha"}},
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.beta"}},
    ]
    for seq, (tick, embargo_ticks) in enumerate([(1, 3), (1, None), (2, 2), (2, 5), (3, 1)], 1):
        record = dict(RECORD, cveID=f"CVE-2025-{seq:04d}", description=f"secret {seq}",
                      submitterCNA="cna.alpha" if seq % 2 else "cna.beta")
        args: dict = {"record": record}
        if embargo_ticks is not None:
            args["embargoTicks"] = embargo_ticks
        actions.append({"atTick": tick, "action": "submit", "args": args})
    actions += [{"atTick": tick, "action": "embargo-tick", "args": {}} for tick in range(2, 9)]
    return {"seed": "5e" * 16, "genesisTime": 1_000_000, "actions": actions}


def test_redaction_matches_the_round_trip_and_leaves_the_block_as_it_was():
    net, _, _ = drive_scenario(_embargo_script())
    chain = list(net.chain)
    releases = {r.embargo_until for r in replay(chain).cve_registry.values() if r.embargo_until}
    assert len(releases) >= 3
    clocks = sorted({c + d for c in releases for d in (-1, 0, 1)})
    redactions = 0
    for height in range(1, len(chain) + 1):
        state = replay(chain[:height])
        for clock in clocks:
            state.clock_now = clock
            for block in chain:
                before = block_line(block)
                got, expected = redacted_block_dict(block, state), oracle_redacted_block_dict(block, state)
                assert got == expected and to_canonical_bytes(got) == to_canonical_bytes(expected)
                assert block_line(block) == before
                redactions += len(got.get("redactedTxs", ()))
    assert redactions > 0
