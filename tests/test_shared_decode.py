"""One decode per transaction: the endorsers' dry runs and every peer's
apply share the decode kept on the transaction.

Inline decoding is the oracle. A network run whose peers read the shared
decode must end where `replay` of its chain's re-parsed lines ends, which
decodes every transaction inline, and no transaction keeps a decode once
its block has committed everywhere or when it was read from a ledger.
"""

from __future__ import annotations

import dataclasses
from enum import Enum

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cveledger import ledger
from cveledger.chaincode import OPS
from cveledger.ledger import EndorsementPolicy, block_line, parse_line, replay, state_hash
from cveledger.network import SimulatedNetwork
from cveledger.storage import load_ledger, read_chain, write_chain_file

from test_op_table import valid_payloads, world

CNAS = ("cna.redhat", "cna.debian")
IDS = range(1, 5)


def record(seq: int, cna: str, embargo_until: int | None = None) -> dict:
    out = {
        "cveID": f"CVE-2025-{seq:04d}",
        "description": f"flaw {seq}",
        "product": "widget",
        "version": [{"lo": [1, seq, 0], "hi": [2, 0, 0]}],  # nested: partial duplicates of each other
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "submitterCNA": cna,
    }
    if embargo_until is not None:
        out["embargoUntil"] = embargo_until
    return out


def network() -> SimulatedNetwork:
    """Three peers that must all endorse, so every transaction gets three
    dry runs and three applies, and the CNAs onboarded."""
    net = SimulatedNetwork(n_peers=3, policy=EndorsementPolicy(rule="ANY_N", n=3), seed=b"shared", genesis_time=1000)
    for cna in CNAS:
        net.onboard(cna, net.issue_identity(cna), "gov.root")
    net.tick()
    return net


# args that do not decode: a decoder's own LedgerError, BAD_ARGS, an unknown op
BAD = (
    ("SubmitCVE", {"record": {"cveID": "not-an-id"}}),
    ("UpdateCVEStatus", {"cveID": "CVE-2025-0001", "newStatus": "BOGUS"}),
    ("MergeCVEs", {"candidates": "CVE-2025-0001"}),
    ("SplitCVE", {"cveID": "CVE-2025-0001"}),
    ("NoSuchOp", {}),
)

steps = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(IDS), st.sampled_from(CNAS), st.sampled_from([None, 1, 3])),
    st.tuples(st.just("status"), st.sampled_from(IDS), st.sampled_from(["ARCHIVED", "PUBLISHED", "REJECTED"])),
    st.tuples(st.just("reject"), st.sampled_from(IDS)),
    st.tuples(st.just("dispute"), st.sampled_from(IDS)),
    st.tuples(st.just("merge"), st.sampled_from(IDS), st.sampled_from(IDS)),
    st.tuples(st.just("split"), st.sampled_from(IDS)),
    st.tuples(st.just("partialdup"), st.sampled_from(IDS), st.sampled_from(IDS)),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("bad"), st.sampled_from(range(len(BAD)))),
    st.tuples(st.just("tick")),
)


def split_candidate(text: str, order: int) -> dict:
    return {
        "descriptor": text,
        "associationFrequency": 1,
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "versionBreadth": 1,
        "mentionOrder": order,
    }


def perform(net: SimulatedNetwork, step: tuple) -> None:
    """Invoke one step, valid or not, signed by governance unless it is a
    submission; a refusal is an outcome like any other."""
    kind, *rest = step
    cve = lambda seq: f"CVE-2025-{seq:04d}"  # noqa: E731
    if kind == "tick":
        net.tick()
    elif kind == "submit":
        seq, cna, ticks = rest
        embargo_until = None if ticks is None else net.clock + ticks
        net.submit(record(seq, cna, embargo_until), None if ticks is None else f"{seq:032x}")
    elif kind == "status":
        net.invoke("UpdateCVEStatus", {"cveID": cve(rest[0]), "newStatus": rest[1]}, "gov.root")
    elif kind == "reject":
        net.invoke("RejectCVE", {"cveID": cve(rest[0]), "reason": "not a flaw"}, "gov.root")
    elif kind == "dispute":
        net.invoke("DisputeCVE", {"cveID": cve(rest[0]), "note": "contested"}, "gov.root")
    elif kind == "merge":
        candidates = [
            {"cveID": cve(seq), "referenceCount": n, "authority": "VENDOR", "publicizedAt": 1}
            for n, seq in enumerate(rest)
        ]
        net.invoke("MergeCVEs", {"candidates": candidates}, "gov.root")
    elif kind == "split":
        candidates = [split_candidate("a", 1), split_candidate("b", 2)]
        net.invoke("SplitCVE", {"cveID": cve(rest[0]), "candidates": candidates}, "gov.root")
    elif kind == "partialdup":
        net.invoke("ResolvePartialDuplicate", {"keepID": cve(rest[0]), "reviseID": cve(rest[1])}, "gov.root")
    elif kind == "sweep":
        net.invoke("CheckEmbargoReleases", {}, "gov.root")
    else:
        net.invoke(*BAD[rest[0]], "gov.root")


def holds_decode(tx) -> bool:
    return getattr(tx, "_decoded", None) is not None


def assert_peers_match_inline_replay(net: SimulatedNetwork) -> None:
    oracle = replay([parse_line(block_line(block)) for block in net.chain])
    expected = (state_hash(oracle), [e.to_dict() for e in oracle.event_log], oracle.failed_txs)
    for peer in net.peers:
        got = (peer.state_hash(), [e.to_dict() for e in peer.state.event_log], peer.state.failed_txs)
        assert got == expected, peer.peer_id


# every id committed first, one of them embargoed, so that the drawn steps
# act on records that exist
PREFIX = [("submit", seq, CNAS[seq % 2], 2 if seq == 4 else None) for seq in IDS] + [("tick",)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(steps, max_size=24))
def test_peers_reading_the_shared_decode_end_where_inline_replay_ends(sequence):
    net = network()
    for step in PREFIX + sequence:
        perform(net, step)
    net.tick()
    assert_peers_match_inline_replay(net)
    assert not any(holds_decode(tx) for block in net.chain for tx in block.txs)


def test_transactions_that_fail_at_commit_fail_alike():
    """Endorsed against the same state, the second submission of an id and
    the second archive of a record fail when applied, on every peer as in
    replay."""
    net = network()
    for step in [("submit", 1, "cna.redhat", None)] * 2 + [("tick",)] + [("status", 1, "ARCHIVED")] * 2:
        perform(net, step)
    net.tick()
    assert [f["code"] for f in net.peers[0].state.failed_txs] == ["DuplicateCveId", "IllegalTransition"]
    assert_peers_match_inline_replay(net)


def test_one_decode_per_endorsed_transaction(monkeypatch):
    net = network()
    calls = []
    for op, (decode, run) in list(OPS.items()):
        counting = lambda args, op=op, decode=decode: calls.append(op) or decode(args)  # noqa: E731
        monkeypatch.setitem(OPS, op, (counting, run))
    results = [net.submit(record(seq, "cna.redhat")) for seq in IDS]
    net.tick()
    results.append(net.invoke("UpdateCVEStatus", {"cveID": "CVE-2025-0001", "newStatus": "ARCHIVED"}, "gov.root"))
    results.append(net.invoke("RejectCVE", {"cveID": "CVE-2025-0002", "reason": "dup"}, "gov.root"))
    results.append(net.invoke("CheckEmbargoReleases", {}, "gov.root"))
    net.tick()
    assert all(r.accepted for r in results) and len(net.chain[-1].txs) == 3
    assert not net.peers[0].state.failed_txs
    # three dry runs and three applies of each, one decode
    assert calls == ["SubmitCVE"] * 4 + ["UpdateCVEStatus", "RejectCVE", "CheckEmbargoReleases"]


def test_a_transaction_keeps_its_decode_only_until_its_block_commits():
    net = network()
    result = net.submit(record(1, "cna.redhat"))
    [pending] = net.pending
    assert pending is result.tx and holds_decode(pending)
    [block] = net.tick()
    assert block.txs[0] is pending and not holds_decode(pending)
    assert not any(holds_decode(tx) for block in net.chain for tx in block.txs)


def test_with_endorsements_carries_the_decode_and_replace_does_not():
    net = network()
    tx = net.build_tx("SubmitCVE", {"record": record(1, "cna.redhat")}, "cna.redhat")
    decoded = tx.decoded()
    assert tx.decoded() is decoded
    assert tx.with_endorsements([]).decoded() is decoded
    fresh = dataclasses.replace(tx)
    assert fresh == tx and not holds_decode(fresh)
    assert fresh.decoded() is not decoded and fresh.decoded()[1] == decoded[1]


def test_a_chain_read_from_a_ledger_holds_no_decode_after_replay(tmp_path, monkeypatch):
    net = network()
    for step in [("submit", 1, "cna.redhat", 1), ("submit", 2, "cna.debian", None), ("tick",), ("sweep",), ("tick",)]:
        perform(net, step)
    path = tmp_path / "ledger.jsonl"
    write_chain_file(path, net.chain)
    applied = []
    apply_block = ledger.apply_block
    monkeypatch.setattr(ledger, "apply_block", lambda state, block: applied.append(block) or apply_block(state, block))

    chain = read_chain(path)
    assert state_hash(replay(chain)) == net.peers[0].state_hash()
    loaded, state, _ = load_ledger(path, checkpoint=False)
    assert state_hash(state) == net.peers[0].state_hash()
    assert len(applied) == 2 * len(net.chain)
    assert not any(holds_decode(tx) for block in [*chain, *applied] for tx in block.txs)


# -- decoders return nothing that a run could change for the next one --------------


def mutable_parts(value, path="values"):
    """The paths under `value` that hold a list, dict, set or non-frozen
    dataclass, or anything but a frozen dataclass, tuple or JSON scalar."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        own = [] if value.__dataclass_params__.frozen else [path]
        return own + [
            p for f in dataclasses.fields(value) for p in mutable_parts(getattr(value, f.name), f"{path}.{f.name}")
        ]
    if isinstance(value, tuple):
        return [p for i, item in enumerate(value) for p in mutable_parts(item, f"{path}[{i}]")]
    if value is None or isinstance(value, (str, int, float, Enum)):
        return []
    return [path]


@pytest.mark.parametrize("op", sorted(set(OPS) - {"Genesis"}))
def test_a_decoder_returns_only_immutable_values(op):
    ca, state = world()
    args, _ = valid_payloads(ca, state)[op]
    decode, _ = OPS[op]
    assert mutable_parts(decode(args)) == []


def test_the_walk_finds_what_is_mutable():
    @dataclasses.dataclass
    class Loose:
        items: tuple

    assert mutable_parts(([1], {"a": 1}, {2}, Loose(()))) == ["values[0]", "values[1]", "values[2]", "values[3]"]
