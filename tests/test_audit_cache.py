"""The auditor's verdict cache is keyed by `(prev_hash, sha256(line))`.

The key holds no index, block time or keyring: the previous block's hash
commits all of them once every earlier line has verified, which is the only
time the cache is consulted. The property below audits a random sequence of
files with one `ChainAuditor` and needs, for every file, the report a fresh
auditor gives. The files are a real chain with bit flips, line edits
(deletions, duplicates, swaps, replacements) and lines re-endorsed by a
second peer: different bytes, the same block hash, so the lines after one
see the same cache keys as in the original file.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.identity import sign_payload
from cveledger.ledger import ChainAuditor, EndorsementPolicy, block_line
from cveledger.network import SimulatedNetwork

from test_verify_oracle import _record


def _build() -> tuple[list[bytes], dict[int, bytes]]:
    """The lines of a 3-peer `ANY_N(1)` chain, and for each line after the
    genesis the same block with its first transaction endorsed by another
    peer instead."""
    net = SimulatedNetwork(seed=b"audit-cache", genesis_time=1000, policy=EndorsementPolicy("ANY_N", 1))
    for cna in ("cna.alpha", "cna.beta"):
        net.onboard(cna, net.issue_identity(cna), net.governance_id)
    net.tick(1001)
    for seq in range(1, 9):
        net.submit(_record(seq, ("cna.alpha", "cna.beta")[seq % 2], 1010 if seq % 3 == 0 else None))
        if seq % 2 == 0:
            net.tick(1001 + seq)
    lines = [block_line(block)[:-1] for block in net.chain]
    assert len(lines) == 6
    keys = {peer.peer_id: peer.key for peer in net.peers}
    reendorsed = {}
    for height, block in enumerate(net.chain[1:], 1):
        tx = block.txs[0]
        [(first, _)] = tx.endorsements
        other = next(pid for pid in sorted(keys) if pid != first)
        tx = tx.with_endorsements([(other, sign_payload(keys[other], tx.payload_bytes()).hex())])
        block = dataclasses.replace(block, txs=(tx,) + block.txs[1:])
        reendorsed[height] = block_line(block)[:-1]
        assert reendorsed[height] != lines[height]
    assert ChainAuditor().audit_bytes(_joined([lines[0], *reendorsed.values()])).valid
    return lines, reendorsed


def _joined(lines: list[bytes]) -> bytes:
    return b"".join(line + b"\n" for line in lines)


LINES, REENDORSED = _build()


def _file(data) -> bytes:
    """The chain's file with one random change: a line re-endorsed and up
    to two bit flips after it, a line edit, up to two bit flips, or none."""
    lines = list(LINES)
    n = len(lines)
    kind = data.draw(st.sampled_from(["reendorse", "delete", "duplicate", "swap", "replace", "flip", "none"]))
    first_flip = 0
    if kind == "reendorse":
        height = data.draw(st.integers(1, n - 1))
        lines[height] = REENDORSED[height]
        first_flip = height + 1
    elif kind == "delete":
        del lines[data.draw(st.integers(0, n - 1))]
    elif kind == "duplicate":
        k = data.draw(st.integers(0, n - 1))
        lines.insert(k, lines[k])
    elif kind == "swap":
        k = data.draw(st.integers(0, n - 2))
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "replace":
        lines[data.draw(st.integers(0, n - 1))] = lines[data.draw(st.integers(0, n - 1))]
    out = bytearray(_joined(lines))
    start = len(_joined(lines[:first_flip]))
    if kind in ("reendorse", "flip") and start < len(out):
        for _ in range(data.draw(st.integers(0 if kind == "reendorse" else 1, 2))):
            out[data.draw(st.integers(start, len(out) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_reused_auditor_reports_what_a_fresh_one_does(data):
    auditor = ChainAuditor()
    files = [_joined(LINES)] + [_file(data) for _ in range(data.draw(st.integers(1, 8)))]
    for file_bytes in files:
        assert auditor.audit_bytes(file_bytes) == ChainAuditor().audit_bytes(file_bytes)
