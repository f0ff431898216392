"""The chain is held as its blocks' ledger lines from the moment they are cut.

`SimulatedNetwork.chain` is a `LineChain` however the network was built:
each committed block is its `block_line`, encoded once when it is cut,
and only the tip is decoded. These tests check that it reads as the
decoded list it replaces, that a cut block is encoded once whatever
writes it, that no earlier block stays decoded, and that a write on a
node opened from a checkpoint leaves the covered prefix unsplit.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import ledger, network, storage
from cveledger.ledger import LineChain, block_line, replay, state_hash
from cveledger.network import SimulatedNetwork, drive_scenario
from cveledger.node import LEDGER_FILE, Node
from cveledger.records import CveStatus

GOV = "gov.root"


def _record(seq: int, cna: str) -> dict:
    return {
        "cveID": f"CVE-2025-{seq:04d}",
        "description": f"issue {seq}",
        "product": f"widget-{seq % 2}",
        "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
        "severity": {"label": "LOW", "cvssScore": 2.0},
        "submitterCNA": cna,
    }


@st.composite
def scenario_scripts(draw) -> dict:
    """A script onboarding one or two CNAs at tick 0 and then submitting,
    moving statuses and sweeping embargoes over a few ticks, cut into
    blocks of one to four transactions."""
    cnas = ["cna.a", "cna.b"][: draw(st.integers(1, 2))]
    actions = [{"atTick": 0, "action": "onboard", "args": {"cna": cna}} for cna in cnas]
    for seq in range(1, draw(st.integers(0, 6)) + 1):
        args = {"caller": draw(st.sampled_from(cnas)), "record": _record(seq, cnas[0])}
        if draw(st.booleans()):
            args["embargoTicks"] = draw(st.integers(1, 4))
        actions.append({"atTick": draw(st.integers(1, 3)), "action": "submit", "args": args})
        if draw(st.booleans()):
            status = draw(st.sampled_from([CveStatus.PUBLISHED.value, CveStatus.ARCHIVED.value]))
            change = {"caller": cnas[0], "cveID": f"CVE-2025-{seq:04d}", "newStatus": status}
            actions.append({"atTick": draw(st.integers(2, 4)), "action": "status", "args": change})
    for tick in draw(st.lists(st.integers(1, 5), max_size=3)):
        actions.append({"atTick": tick, "action": "embargo-tick"})
    return {"seed": "6b" * 16, "genesisTime": 1000, "maxBlockTxs": draw(st.integers(1, 4)), "actions": actions}


def decoded_reference(script: dict) -> SimulatedNetwork:
    """The script driven with `chain` a list of decoded blocks, as it was
    before the chain kept lines."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "LineChain", list)
        net, _, _ = drive_scenario(script)
    assert type(net.chain) is list
    return net


@settings(max_examples=25, deadline=None)
@given(scenario_scripts())
def test_the_kept_lines_read_as_the_decoded_chain_of_a_reference_run(script):
    net, _, _ = drive_scenario(script)
    reference = decoded_reference(script)
    assert isinstance(net.chain, LineChain)
    assert len(net.chain) == len(reference.chain)
    for height, block in enumerate(reference.chain):
        assert net.chain[height] == block
    assert net.chain == reference.chain and reference.chain == net.chain
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / LEDGER_FILE
        storage.write_chain_file(path, net.chain)
        written = path.read_bytes()
        assert written == b"".join(block_line(block) for block in reference.chain)
        assert state_hash(replay(storage.read_chain(path))) == reference.peers[0].state_hash()
    assert net.chain[-1].block_hash == reference.chain[-1].block_hash
    assert net.state_hashes() == reference.state_hashes()


def onboarded_network() -> SimulatedNetwork:
    net = SimulatedNetwork(seed=b"kept-lines", genesis_time=1000)
    net.onboard("cna.a", net.issue_identity("cna.a"), GOV)
    net.tick(1001)
    return net


def count_encodes(monkeypatch) -> list:
    encoded = []
    encode = ledger._encode_line

    def counting(block):
        encoded.append(block.height)
        return encode(block)

    monkeypatch.setattr(ledger, "_encode_line", counting)
    return encoded


def test_tick_and_append_block_file_encode_each_cut_block_once(tmp_path, monkeypatch):
    net = SimulatedNetwork(seed=b"kept-lines", genesis_time=1000, orderer=network.OrdererConfig(max_block_txs=2))
    path = tmp_path / LEDGER_FILE
    storage.write_chain_file(path, net.chain)
    net.onboard("cna.a", net.issue_identity("cna.a"), GOV)
    storage.append_block_file(path, *net.tick(1001))
    for seq in range(1, 6):
        assert net.submit(_record(seq, "cna.a")).accepted
    encoded = count_encodes(monkeypatch)
    cut = net.tick(1002)
    for block in cut:
        storage.append_block_file(path, block)
    storage.write_chain_file(tmp_path / "copy.jsonl", net.chain)
    assert [block.height for block in cut] == encoded == [2, 3, 4]
    assert path.read_bytes() == (tmp_path / "copy.jsonl").read_bytes() == b"".join(net.chain.lines())
    assert storage.audit_file(path).valid


def test_a_node_write_encodes_its_block_once(tmp_path, monkeypatch):
    data_dir = tmp_path / "d"
    Node.init(data_dir, genesis_time=1000, seed=b"kept-lines").close()
    with Node.open(data_dir) as node:
        encoded = count_encodes(monkeypatch)
        out = node.tick()
        assert encoded == [out["height"]] == [1]
    assert storage.audit_file(data_dir / LEDGER_FILE).valid


def test_a_block_keeps_its_line_in_a_slot_outside_its_value():
    block = onboarded_network().chain[-1]
    line = block_line(block)
    assert not hasattr(block, "__dict__") and block._line is line and block_line(block) is line
    clones = (dataclasses.replace(block), copy.copy(block), copy.deepcopy(block), pickle.loads(pickle.dumps(block)))
    for clone in clones:
        assert clone == block and getattr(clone, "_line", None) is None
        assert block_line(clone) == line
    assert weakref.ref(block)() is block


def test_no_block_under_the_tip_stays_decoded():
    net = SimulatedNetwork(seed=b"kept-lines", genesis_time=1000)
    assert net.chain[0] is net.chain[-1]  # the tip is kept decoded
    earlier = [weakref.ref(net.chain[0])]
    net.onboard("cna.a", net.issue_identity("cna.a"), GOV)
    earlier += [weakref.ref(block) for block in net.tick(1001)]
    for seq in range(1, 4):
        assert net.submit(_record(seq, "cna.a")).accepted
    earlier += [weakref.ref(block) for block in net.tick(1002)]
    net.invoke("CheckEmbargoReleases", {}, GOV)
    [tip] = net.tick(1003)
    gc.collect()
    assert len(earlier) == 3 and [ref() for ref in earlier] == [None] * 3
    assert net.chain[-1] is tip
    assert net.chain[1] == net.chain[1] and net.chain[1] is not net.chain[1]  # decoded on each read


def test_a_chain_built_on_is_left_as_it_was():
    net = onboarded_network()
    before = net.chain
    lines = list(before.lines())
    net.invoke("CheckEmbargoReleases", {}, GOV)
    net.tick(1002)
    assert len(before) == len(lines) and list(before.lines()) == lines
    forked = before + [net.chain[-1]]  # a second chain on `before` copies only its lines
    assert forked == net.chain and list(forked.lines()) == list(net.chain.lines())
    assert len(before) == len(lines)


def test_a_write_on_a_node_opened_from_a_checkpoint_leaves_the_covered_prefix_unsplit(tmp_path):
    data_dir = tmp_path / "d"
    Node.init(data_dir, genesis_time=1000, seed=b"kept-lines").close()
    for _ in range(4):
        with Node.open(data_dir) as node:
            node.tick()
    with Node.open(data_dir) as node:
        framed = node.net.chain._framed
        assert isinstance(framed, ledger.LedgerLines) and len(framed) == 5
        node.tick()
        node.tick()
        assert framed._prefix is None
        assert len(node.net.chain) == 7 and node.net.chain[-1].height == 6
        assert node.memory_state_hash() == node.replay_hash()
    assert storage.audit_file(data_dir / LEDGER_FILE).valid


def test_a_loaded_chain_is_a_full_sequence_of_blocks(tmp_path):
    data_dir = tmp_path / "d"
    Node.init(data_dir, genesis_time=1000, seed=b"kept-lines").close()
    chain = storage.load_ledger(data_dir / LEDGER_FILE)[0]
    assert chain[0:1] == [chain[0]] and chain == [chain[0]] and [chain[0]] == chain
    with Node.open(data_dir) as node:
        for _ in range(3):
            node.tick()
    chain = storage.load_ledger(data_dir / LEDGER_FILE, checkpoint=False)[0]
    blocks = storage.read_chain(data_dir / LEDGER_FILE)
    assert isinstance(chain, LineChain) and len(chain) == 4
    assert chain == blocks and blocks == chain and list(chain) == blocks
    assert chain != blocks[:-1] and chain != blocks[::-1] and chain != "not blocks"
    for view in (slice(None), slice(1, 3), slice(-2, None), slice(None, None, 2), slice(None, None, -1), slice(5, 9)):
        assert chain[view] == blocks[view], view
    assert chain[-1] == blocks[-1] and chain[-4] == blocks[0]
    for index in (4, -5):
        with pytest.raises(IndexError):
            chain[index]
    assert chain + [] == chain and chain.index(blocks[2]) == 2 and blocks[3] in chain
