"""`verify_chain` is the file auditor run over block lines; this checks it
against the block-object loop it replaced.

The oracle below is that loop as it was: it derives the trust anchors from
`chain[0]`, then checks heights and calls `_verify_block` block by block.
A hypothesis property tampers `Block` objects of a real chain at random
heights and needs the same `(valid, first_bad_height, reason)` from both.

One difference is intended. A block whose line does not decode back to it
(upper-case hex in a signature, which no ledger file can hold because
decoding refuses it) is `HASH_MISMATCH` at its height for the auditor,
unless the oracle finds an earlier violation. The old loop read such a
signature's bytes, so an upper-cased endorsement passed it.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cveledger.canonical import ZERO_HASH, sha256_hex
from cveledger.chaincode import OP_CHECK_EMBARGO, OP_UPDATE_STATUS
from cveledger.ledger import (
    HASH_MISMATCH,
    AuditReport,
    Block,
    EndorsementPolicy,
    TrustAnchors,
    _VerifyContext,
    _verify_block,
    verify_chain,
)
from cveledger.network import SimulatedNetwork
from cveledger.storage import block_line


def oracle_verify_chain(chain: list[Block]) -> AuditReport:
    """The block-object verification loop `verify_chain` used to run."""
    if not chain:
        return AuditReport(valid=False, first_bad_height=0, reason=HASH_MISMATCH)
    try:
        trust = TrustAnchors.from_genesis(chain[0])
    except Exception:
        return AuditReport(valid=False, first_bad_height=0, reason=HASH_MISMATCH)
    ctx = _VerifyContext()
    ctx.ca_public_key = trust.ca_public_key
    for index, block in enumerate(chain):
        if block.height != index:
            return AuditReport(valid=False, first_bad_height=index, reason=HASH_MISMATCH)
        reason, exported = _verify_block(block, ctx, trust)
        if reason is not None:
            return AuditReport(valid=False, first_bad_height=index, reason=reason)
        ctx.caller_keys.update(exported)
        ctx.prev_hash = block.block_hash
        ctx.prev_time = block.block_time
    return AuditReport(valid=True)


def _record(seq: int, cna: str, embargo: int | None = None) -> dict:
    record = {
        "cveID": f"CVE-2025-{seq:04d}",
        "description": f"issue number {seq}",
        "product": "widget",
        "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "submitterCNA": cna,
    }
    if embargo is not None:
        record["embargoUntil"] = embargo
    return record


def _build_chain() -> list[Block]:
    """Genesis, two onboardings, then blocks of one to three transactions
    (embargoed submissions, a status change, an embargo sweep), each
    transaction carrying two endorsements."""
    net = SimulatedNetwork(seed=b"verify-oracle", genesis_time=1000, policy=EndorsementPolicy("ANY_N", 2))
    for cna in ("cna.alpha", "cna.beta"):
        net.onboard(cna, net.issue_identity(cna), net.governance_id)
    net.tick(1001)
    net.submit(_record(1, "cna.alpha"))
    net.submit(_record(2, "cna.beta", 1010), salt="ab" * 16)
    net.tick(1002)
    net.submit(_record(3, "cna.alpha"))
    net.tick(1003)
    net.invoke(OP_UPDATE_STATUS, {"cveID": "CVE-2025-0001", "newStatus": "ARCHIVED"}, "cna.alpha")
    net.submit(_record(4, "cna.beta"))
    net.invoke(OP_CHECK_EMBARGO, {}, net.governance_id)
    net.tick(1004)
    net.invoke(OP_CHECK_EMBARGO, {}, net.governance_id)
    net.tick(1010)
    assert oracle_verify_chain(net.chain).valid
    return list(net.chain)


CHAIN = _build_chain()
TAMPERS = ("prevHash", "blockTime", "height", "txId", "arg", "sigCase", "dropEndorsement", "swap")


def _flip_hex(value: str, pos: int) -> str:
    digit = "0123456789abcdef"[(int(value[pos], 16) + 1) % 16]
    return value[:pos] + digit + value[pos + 1 :]


def _swap_case(value: str, pos: int) -> str:
    letters = [i for i, ch in enumerate(value) if ch in "abcdef"]
    i = letters[pos % len(letters)]
    return value[:i] + value[i].upper() + value[i + 1 :]


def _tamper_tx(block: Block, data, kind: str) -> Block:
    index = data.draw(st.integers(0, len(block.txs) - 1))
    tx = block.txs[index]
    if kind == "txId":
        tx = dataclasses.replace(tx, tx_id=_flip_hex(tx.tx_id, data.draw(st.integers(0, 63))))
    elif kind == "arg":
        payload = json.loads(json.dumps(tx.payload))
        args = payload["args"]
        key = data.draw(st.sampled_from(sorted(args) + ["extra"]))
        args[key] = data.draw(st.one_of(st.text(max_size=8), st.integers(-5, 5), st.none()))
        tx = dataclasses.replace(tx, payload=payload)
    elif kind == "dropEndorsement":
        if not tx.endorsements:
            return block
        drop = data.draw(st.integers(0, len(tx.endorsements) - 1))
        tx = dataclasses.replace(tx, endorsements=tx.endorsements[:drop] + tx.endorsements[drop + 1 :])
    else:  # sigCase: the caller signature, or one endorsement signature
        pos = data.draw(st.integers(0, 127))
        which = data.draw(st.integers(-1, len(tx.endorsements) - 1))
        if which < 0 or not tx.endorsements:
            if not tx.caller_signature:
                return block
            tx = dataclasses.replace(tx, caller_signature=_swap_case(tx.caller_signature, pos))
        else:
            peer, sig = tx.endorsements[which]
            endorsements = list(tx.endorsements)
            endorsements[which] = (peer, _swap_case(sig, pos))
            tx = dataclasses.replace(tx, endorsements=tuple(endorsements))
    txs = block.txs[:index] + (tx,) + block.txs[index + 1 :]
    return dataclasses.replace(block, txs=txs)


def _tamper(chain: list[Block], data) -> tuple[list[Block], str]:
    kind = data.draw(st.sampled_from(TAMPERS))
    height = data.draw(st.integers(0, len(chain) - 1))
    block = chain[height]
    if kind == "swap":
        other = data.draw(st.integers(0, len(chain) - 1))
        chain[height], chain[other] = chain[other], chain[height]
        return chain, kind
    if kind == "prevHash":
        block = dataclasses.replace(block, prev_hash=_flip_hex(block.prev_hash, data.draw(st.integers(0, 63))))
    elif kind == "blockTime":
        block = dataclasses.replace(block, block_time=data.draw(st.integers(0, 2000)))
    elif kind == "height":
        block = dataclasses.replace(block, height=data.draw(st.integers(0, len(chain))))
    else:
        block = _tamper_tx(block, data, kind)
    if data.draw(st.booleans()):  # a forger who also recomputes the tx ids and the block hash
        txs = [dataclasses.replace(tx, tx_id=sha256_hex(tx.payload_bytes())) for tx in block.txs]
        block = Block.build(block.height, block.prev_hash, block.block_time, txs)
    chain[height] = block
    return chain, kind


def _first_undecodable(chain: list[Block]) -> int | None:
    for height, block in enumerate(chain):
        try:
            if Block.from_dict(json.loads(block_line(block))) == block:
                continue
        except (ValueError, KeyError):
            pass
        return height
    return None


def expected_report(chain: list[Block]) -> AuditReport:
    """The oracle's report, with the one intended difference applied."""
    report = oracle_verify_chain(chain)
    bad_line = _first_undecodable(chain)
    if bad_line is None or (not report.valid and report.first_bad_height < bad_line):
        return report
    return AuditReport(valid=False, first_bad_height=bad_line, reason=HASH_MISMATCH)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_chain_matches_the_block_loop_it_replaced(data):
    chain = list(CHAIN)
    for _ in range(data.draw(st.integers(1, 3))):
        chain, kind = _tamper(chain, data)
        event(kind)
    report = verify_chain(chain)
    event(str(report.reason))
    if _first_undecodable(chain) is not None:
        event("a line does not decode")
    assert report == expected_report(chain)


def test_the_untampered_chain_and_its_prefixes():
    for end in range(len(CHAIN) + 1):
        assert verify_chain(CHAIN[:end]) == oracle_verify_chain(CHAIN[:end])
    assert CHAIN[0].prev_hash == ZERO_HASH and verify_chain(CHAIN).valid


def test_upper_case_endorsement_is_refused_where_the_block_loop_passed_it():
    victim = CHAIN[3]
    tx = victim.txs[0]
    peer, sig = tx.endorsements[0]
    forged = dataclasses.replace(tx, endorsements=((peer, sig.upper()),) + tx.endorsements[1:])
    chain = CHAIN[:3] + [dataclasses.replace(victim, txs=(forged,) + victim.txs[1:])] + CHAIN[4:]
    assert oracle_verify_chain(chain).valid
    assert verify_chain(chain) == AuditReport(valid=False, first_bad_height=3, reason=HASH_MISMATCH)
