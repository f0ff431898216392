"""Opening a network replays its chain once and copies the state per peer.

`SimulatedNetwork._attach` folds the chain into one `WorldState`, checking
every block's link, and gives each peer its own `WorldState.copy()`. These
tests pin that the copies equal a fresh replay (embargo heap included),
that a reopened network goes on to cut the same blocks as one that never
reopened, that no peer shares a mutable container with another, and that
the chain is applied once, not once per peer (and from a state checkpoint,
only the blocks after it). They also pin the errors of
a broken link and of a network that has no key seed.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import network
from cveledger.chaincode import OP_CHECK_EMBARGO, OP_UPDATE_STATUS, WorldState
from cveledger.cli import main
from cveledger.corrections import OP_DISPUTE, OP_REJECT
from cveledger.errors import BadCertificate, LedgerCorrupt
from cveledger.identity import derive_keypair
from cveledger.ledger import replay, state_hash
from cveledger.network import SimulatedNetwork
from cveledger.node import LEDGER_FILE, Node
from cveledger.storage import checkpoint_path

SEED = b"open-once-tests"
GOV = "gov.root"
CNAS = ("cna.alpha", "cna.beta", "cna.gamma")
IDS = range(1, 6)


def seeded_network() -> SimulatedNetwork:
    """Three CNAs issued; alpha and beta onboarded, gamma left to a step."""
    net = SimulatedNetwork(seed=SEED, genesis_time=1000)
    for cna in CNAS:
        cert = net.issue_identity(cna)
        if cna != "cna.gamma":
            net.onboard(cna, cert, GOV)
    net.tick(1001)
    return net


def _record(seq: int, cna: str, embargo: int | None, now: int) -> dict:
    record = {
        "cveID": f"CVE-2025-{seq:04d}",
        "description": f"flaw number {seq}",
        "product": f"widget-{seq % 2}",
        "version": [{"lo": [1, 0, 0], "hi": [2, seq, 0]}],
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "submitterCNA": cna,
    }
    if embargo is not None:
        record["embargoUntil"] = now + embargo
    return record


def perform(net: SimulatedNetwork, step: tuple):
    """Run one step; the outcome (refusal codes or cut block hashes)."""
    kind, *args = step
    if kind == "tick":
        return [b.block_hash for b in net.tick(net.clock + args[0])]
    if kind == "submit":
        seq, cna, embargo = args
        salt = f"{seq:032x}" if embargo is not None else None
        result = net.submit(_record(seq, cna, embargo, net.clock), salt)
    elif kind == "status":
        seq, status, caller = args
        result = net.invoke(OP_UPDATE_STATUS, {"cveID": f"CVE-2025-{seq:04d}", "newStatus": status}, caller)
    elif kind == "reject":
        result = net.invoke(OP_REJECT, {"cveID": f"CVE-2025-{args[0]:04d}", "reason": "duplicate"}, GOV)
    elif kind == "dispute":
        result = net.invoke(OP_DISPUTE, {"cveID": f"CVE-2025-{args[0]:04d}", "note": "contested"}, GOV)
    elif kind == "sweep":
        result = net.invoke(OP_CHECK_EMBARGO, {}, GOV)
    elif kind == "onboard":
        result = net.onboard(args[0], net.certs[args[0]], GOV)
    else:
        result = net.revoke(args[0], GOV)
    return result.accepted, [r.code for r in result.refusals]


# refusals come from unknown ids, illegal transitions, revoked or not yet
# onboarded submitters and repeated onboarding; apply-time failures from
# two submissions of one id endorsed into the same block
steps = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(IDS), st.sampled_from(CNAS), st.none() | st.integers(1, 6)),
    st.tuples(
        st.just("status"), st.sampled_from(IDS),
        st.sampled_from(["PUBLISHED", "ARCHIVED", "DRAFT"]), st.sampled_from([GOV, *CNAS]),
    ),
    st.tuples(st.just("reject"), st.sampled_from(IDS)),
    st.tuples(st.just("dispute"), st.sampled_from(IDS)),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("onboard"), st.sampled_from(CNAS)),
    st.tuples(st.just("revoke"), st.sampled_from(CNAS)),
    st.tuples(st.just("tick"), st.integers(0, 3)),
)


def reopen(net: SimulatedNetwork) -> SimulatedNetwork:
    """`net` rebuilt from its materials, as `Node.open` rebuilds a data dir."""
    keys = dict(net.keys, **{peer.peer_id: peer.key for peer in net.peers})
    return SimulatedNetwork.from_materials(
        ca=net.ca, keys=keys, certs=net.certs, chain=net.chain, orderer=net.orderer,
        governance_id=net.governance_id,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, max_size=25), st.lists(steps, max_size=15))
def test_reopened_network_equals_replay_and_continues_like_the_original(before, after):
    original, source = seeded_network(), seeded_network()
    for step in before:
        assert perform(original, step) == perform(source, step)
    for net in (original, source):
        perform(net, ("tick", 1))

    reopened = reopen(source)
    replayed = replay(source.chain)
    assert [peer.tip_hash for peer in reopened.peers] == [source.chain[-1].block_hash] * 3
    for peer in reopened.peers:
        assert state_hash(peer.state) == state_hash(replayed)
        assert peer.state._embargo_heap == replayed._embargo_heap

    reopened.advance_clock(source.clock)
    for step in after:
        assert perform(reopened, step) == perform(original, step)
    for net in (original, reopened):
        perform(net, ("tick", 1))
    assert [b.block_hash for b in reopened.chain] == [b.block_hash for b in original.chain]
    assert reopened.state_hashes() == original.state_hashes()
    assert reopened.consistent()


CONTAINERS = {
    "cve_registry", "authorized_cnas", "governance_members", "id_counters",
    "event_log", "certificates", "failed_txs", "_embargo_heap",
}


@pytest.mark.parametrize("build", [seeded_network, lambda: reopen(seeded_network())], ids=["new", "reopened"])
def test_no_peer_shares_a_mutable_container(build):
    net = build()
    perform(net, ("submit", 1, "cna.alpha", 3))
    perform(net, ("tick", 1))
    net.peers[0].state.query_index()
    states = [peer.state for peer in net.peers]
    for i, one in enumerate(states):
        mutable = {name for name, value in vars(one).items() if isinstance(value, (dict, list, set))}
        assert CONTAINERS <= mutable
        for other in states[i + 1:]:
            assert one is not other
            for name in mutable:
                assert getattr(one, name) is not getattr(other, name), name
    # the index stays lazy on each copy
    assert [s._index is None for s in states] == [False, True, True]


def test_copy_is_equal_and_independent():
    net = seeded_network()
    perform(net, ("submit", 1, "cna.alpha", 2))
    perform(net, ("tick", 1))
    state = net.peers[0].state
    state.query_index()
    copy = state.copy()
    assert isinstance(copy, WorldState) and copy._index is None
    assert state_hash(copy) == state_hash(state) and copy._embargo_heap == state._embargo_heap
    before = state_hash(state)
    perform(net, ("tick", 5))
    perform(net, ("sweep",))
    perform(net, ("tick", 0))
    assert state_hash(copy) == before != state_hash(state)


def make_data_dir(path, blocks: int) -> None:
    """A data dir of genesis plus `blocks` one-transaction blocks."""
    with Node.init(path, genesis_time=1000, seed=b"open-once-node") as node:
        cert = node.issue("cna.alpha", "CNA")
        cert_file = path / "alpha.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.alpha", cert_file)
        for seq in range(1, blocks):
            node.submit(_record(seq, "cna.alpha", 5 if seq % 3 == 0 else None, node.net.clock))


def _count_applies(monkeypatch) -> list[int]:
    calls = []
    apply_block = network.apply_block

    def counting(state, block):
        calls.append(block.height)
        return apply_block(state, block)

    monkeypatch.setattr("cveledger.ledger.apply_block", counting)
    return calls


def test_open_applies_each_block_once(tmp_path, monkeypatch):
    data_dir = tmp_path / "node"
    make_data_dir(data_dir, 6)
    checkpoint_path(data_dir / LEDGER_FILE).unlink()  # the full path, from genesis
    calls = _count_applies(monkeypatch)
    with Node.open(data_dir) as node:
        assert len(node.net.chain) == 7 and len(node.net.peers) == 3
        assert calls == list(range(7))
        assert node.memory_state_hash() == node.replay_hash()


def test_open_from_a_checkpoint_applies_only_the_tail(tmp_path, monkeypatch):
    data_dir = tmp_path / "node"
    make_data_dir(data_dir, 6)
    checkpoint = checkpoint_path(data_dir / LEDGER_FILE)
    stale = checkpoint.read_bytes()  # left by the write of block 6
    with Node.open(data_dir) as node:
        for seq in (6, 7):
            node.submit(_record(seq, "cna.alpha", None, node.net.clock))
    checkpoint.write_bytes(stale)
    calls = _count_applies(monkeypatch)
    with Node.open(data_dir) as node:
        assert len(node.net.chain) == 9 and len(node.net.peers) == 3
        assert calls == [7, 8]
        assert [node.net.chain[h].height for h in (0, 6, -1)] == [0, 6, 8]
        assert node.memory_state_hash() == node.replay_hash()
        node.tick()  # leaves the checkpoint at the new tip
    del calls[:]
    with Node.open(data_dir) as node:
        assert calls == [] and len(node.net.chain) == 10
        assert node.memory_state_hash() == node.replay_hash()


def _break_link(path, height: int) -> bytes:
    lines = path.read_bytes().split(b"\n")
    block = json.loads(lines[height])
    forged = hashlib.sha256(b"not the previous block").hexdigest()
    lines[height] = lines[height].replace(block["prevHash"].encode(), forged.encode())
    path.write_bytes(b"\n".join(lines))
    return path.read_bytes()


def test_broken_link_refuses_to_open_with_its_height(tmp_path):
    data_dir = tmp_path / "node"
    make_data_dir(data_dir, 4)
    _break_link(data_dir / LEDGER_FILE, 3)
    with pytest.raises(LedgerCorrupt) as err:
        Node.open(data_dir)
    assert err.value.height == 3
    # the lock was released: a later open fails the same way, not as locked
    with pytest.raises(LedgerCorrupt, match="does not link"):
        Node.open(data_dir)


def test_cli_write_on_a_broken_link_is_a_json_error_and_leaves_the_file(tmp_path, capsys):
    data_dir = tmp_path / "node"
    make_data_dir(data_dir, 3)
    ledger = data_dir / LEDGER_FILE
    before = _break_link(ledger, 2)
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), "tick"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and json.loads(err[0])["error"] == "LedgerCorrupt"
    assert ledger.read_bytes() == before


def test_commit_of_an_unlinked_block_raises_and_leaves_the_state():
    net = seeded_network()
    peer = net.peers[0]
    before, tip = peer.state_hash(), peer.tip_hash
    with pytest.raises(LedgerCorrupt) as err:
        peer.commit_block(net.chain[-1])
    assert err.value.height == net.chain[-1].height
    assert (peer.state_hash(), peer.tip_hash) == (before, tip)


def test_issue_identity_refuses_without_a_seed(tmp_path):
    with Node.init(tmp_path / "node", genesis_time=1000) as node:
        with pytest.raises(BadCertificate):
            node.net.issue_identity("cna.x")
        assert "cna.x" not in node.net.keys and "cna.x" not in node.net.certs
    # a seeded network still derives identities from its seed
    assert seeded_network().keys["cna.alpha"].public_hex == derive_keypair(SEED, "cna.alpha").public_hex
