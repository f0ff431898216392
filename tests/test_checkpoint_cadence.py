"""The checkpoint cadence: a writer rewrites `ledger.jsonl.state` only once
the ledger bytes appended since the checkpoint it trusts reach 1/256 of
that checkpoint's size (`storage.checkpoint_due`). Past about 256 blocks'
worth of state a trusted checkpoint is then usually a little below the
tip, and every open replays the tail after it.

`deep` grows a data dir past that ratio in-process (records with long
descriptions through `SimulatedNetwork`, written by `write_chain_file`)
and gives it one `Node` write. The tests pin the rule write by write; that
a missing, garbage, torn or stale checkpoint is rewritten on the first
write, and an unwritable one warns and is tried again on the next; that
`replay` applies each block once against a lagging checkpoint and still
refuses a forged one; and that an open plus one write decode each line at
most once. The property runs writes, reads, reopens and torn appends
behind a lagging checkpoint, and after each step needs the node's state
to be the replayed one, the CLI to print what it prints on a copy without
the checkpoint, and the checkpoint to lag by less than the rule allows.
"""

from __future__ import annotations

import collections
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import ledger, storage
from cveledger.node import LEDGER_FILE, Node
from cveledger.storage import CHECKPOINT_TAIL_RATIO, LedgerDigest, checkpoint_due, checkpoint_path, write_chain_file

from conftest import files_under
from test_lazy_state import _forge, _refused, _replayed
from test_open_once import _record
from test_state_checkpoint import checkpoint_warnings, run

GROWN_BLOCKS = 40
# about 14 KB of state per grown block: a 670-byte `tick` then rewrites every 4th time
DESCRIPTION = "x" * 14_000
READS = (["query", "--id", "CVE-2025-0007"], ["query", "--product", "widget-1"])


def _grow(path: Path) -> bytes:
    """Init `path`, onboard one CNA through the node, grow the chain to
    `GROWN_BLOCKS` in memory and write it; the checkpoint the onboarding
    left (now stale: at height 1) is returned and removed."""
    with Node.init(path, genesis_time=1000, seed=b"checkpoint-cadence") as node:
        cert = node.issue("cna.alpha", "CNA")
        cert_file = path.with_name("alpha.cert.json")
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.alpha", cert_file)
        net = node.net
        for seq in range(1, GROWN_BLOCKS - 1):
            record = _record(seq, "cna.alpha", None, net.clock)
            record["description"] = f"flaw number {seq} {DESCRIPTION}"
            assert net.submit(record, None).accepted
            net.tick(net.clock)
    write_chain_file(path / LEDGER_FILE, net.chain)
    mark = checkpoint_path(path / LEDGER_FILE)
    stale = mark.read_bytes()
    mark.unlink()
    return stale


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """(a data dir past the ratio whose one write left the checkpoint at
    the tip, the stale checkpoint the onboarding left)."""
    path = tmp_path_factory.mktemp("cadence") / "node"
    stale = _grow(path)
    with Node.open(path) as node:
        node.tick()
    assert _lag(path) == (0, len(checkpoint_path(path / LEDGER_FILE).read_bytes()))
    return path, stale


def _copy(source: Path, into: Path) -> Path:
    shutil.copytree(source, into)
    return into


def _header(data_dir: Path) -> dict:
    return json.loads(checkpoint_path(data_dir / LEDGER_FILE).read_bytes().split(b"\n", 1)[0])


def _lag(data_dir: Path) -> tuple[int, int]:
    """(the ledger bytes after the checkpoint, the checkpoint's size)."""
    mark = checkpoint_path(data_dir / LEDGER_FILE)
    return (data_dir / LEDGER_FILE).stat().st_size - _header(data_dir)["offset"], mark.stat().st_size


def _due(data_dir: Path) -> bool:
    tail, size = _lag(data_dir)
    return CHECKPOINT_TAIL_RATIO * tail >= size


def test_the_rule_rewrites_without_a_trusted_checkpoint_or_once_the_tail_reaches_a_256th_of_it():
    digest = LedgerDigest(size=1000 + 40)
    assert checkpoint_due(digest)
    digest.checkpoint = (1000, 40 * 256)
    assert checkpoint_due(digest)
    digest.checkpoint = (1000, 40 * 256 + 1)
    assert not checkpoint_due(digest)


def test_a_write_rewrites_the_checkpoint_exactly_when_the_tail_reaches_a_256th_of_it(deep, tmp_path):
    copy = _copy(deep[0], tmp_path / "node")
    mark = checkpoint_path(copy / LEDGER_FILE)
    rewrites = []
    with Node.open(copy) as node:
        for _ in range(12):
            before = mark.read_bytes()
            node.tick()
            rewritten = mark.read_bytes() != before
            if rewritten:
                assert _lag(copy)[0] == 0 and _header(copy)["height"] == node.net.chain[-1].height
            else:
                assert not _due(copy)
            # what the rule says of the old checkpoint and the grown ledger
            offset = json.loads(before.split(b"\n", 1)[0])["offset"]
            tail = (copy / LEDGER_FILE).stat().st_size - offset
            assert rewritten == (CHECKPOINT_TAIL_RATIO * tail >= len(before))
            rewrites.append(rewritten)
    assert rewrites == [False, False, False, True] * 3
    assert run(copy, "replay") == _replayed(copy)


def _garbage(checkpoint: bytes, stale: bytes) -> bytes:
    return b"\x00not a checkpoint\n" * 3


BROKEN = {
    "missing": None,
    "garbage": _garbage,
    "torn": lambda checkpoint, stale: checkpoint[: len(checkpoint) // 2],
    "stale": lambda checkpoint, stale: stale,
}


@pytest.mark.parametrize("kind", sorted(BROKEN))
def test_a_missing_garbage_torn_or_stale_checkpoint_is_rewritten_on_the_first_write(deep, tmp_path, kind):
    copy = _copy(deep[0], tmp_path / "node")
    mark = checkpoint_path(copy / LEDGER_FILE)
    if BROKEN[kind] is None:
        mark.unlink()
    else:
        mark.write_bytes(BROKEN[kind](mark.read_bytes(), deep[1]))
    with Node.open(copy) as node:
        node.tick()
        assert _lag(copy)[0] == 0 and _header(copy)["height"] == node.net.chain[-1].height
    assert run(copy, "replay") == _replayed(copy)


def test_an_unwritable_checkpoint_warns_once_and_is_tried_again_on_the_next_write(deep, tmp_path, monkeypatch):
    copy = _copy(deep[0], tmp_path / "node")
    mark = checkpoint_path(copy / LEDGER_FILE)
    before = mark.read_bytes()

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    with Node.open(copy) as node:
        with monkeypatch.context() as patch:
            patch.setattr(storage.tempfile, "mkstemp", no_space)
            for _ in range(5):
                with checkpoint_warnings() as warnings:
                    node.tick()
                # a write tries only when the rule says so, and then warns once
                assert len(warnings) == _due(copy), warnings
                assert mark.read_bytes() == before
        assert warnings and "could not write state checkpoint" in warnings[0]
        with checkpoint_warnings() as warnings:
            node.tick()
        assert warnings == [] and _lag(copy)[0] == 0
        assert node.memory_state_hash() == node.replay_hash()


def _lagging(deep, tmp_path) -> Path:
    copy = _copy(deep[0], tmp_path / "node")
    with Node.open(copy) as node:
        node.tick()
        node.tick()
    assert 0 < _lag(copy)[0] and _header(copy)["height"] == len(_replayed_chain(copy)) - 3
    return copy


def _replayed_chain(copy: Path):
    return storage.load_ledger(copy / LEDGER_FILE, checkpoint=False)[0]


def test_replay_applies_each_block_once_against_a_lagging_checkpoint(deep, tmp_path, monkeypatch):
    copy = _lagging(deep, tmp_path)
    applied = []
    apply_block = ledger.apply_block

    def counted(state, block):
        applied.append(block.height)
        apply_block(state, block)

    monkeypatch.setattr(ledger, "apply_block", counted)
    with checkpoint_warnings() as warnings:
        result = run(copy, "replay")
    monkeypatch.undo()
    assert result == _replayed(copy) and warnings == []
    assert applied == list(range(len(_replayed_chain(copy))))


def test_replay_refuses_a_checkpoint_forged_below_the_tip(deep, tmp_path):
    copy = _lagging(deep, tmp_path)
    height = _header(copy)["height"]
    mark = checkpoint_path(copy / LEDGER_FILE)
    _forge(mark, lambda summary, entries, events: ({**summary, "clockNow": 1}, entries, events))
    before = files_under(copy)
    result = run(copy, "replay")
    _refused(result, "forged clock")
    assert f"height {height};" in result[2][0]
    assert files_under(copy) == before


@pytest.mark.parametrize("lagging", [False, True], ids=["at the tip", "below the tip"])
def test_an_open_and_one_write_decode_each_line_at_most_once(deep, tmp_path, monkeypatch, lagging):
    copy = _lagging(deep, tmp_path) if lagging else _copy(deep[0], tmp_path / "node")
    lines = (copy / LEDGER_FILE).read_bytes().splitlines()
    parsed = []
    parse_line = ledger.parse_line

    def counted(line):
        parsed.append(bytes(line))
        return parse_line(line)

    for module in (ledger, storage):
        monkeypatch.setattr(module, "parse_line", counted)
    with Node.open(copy) as node:
        node.tick()
    counts = collections.Counter(parsed)
    assert counts[lines[-1]] == 1  # the tip: by the sidecar check or as the last tail line
    assert max(counts.values()) == 1, [(lines.index(line), n) for line, n in counts.items() if n > 1]


# -- the property: writes, reads, reopens and torn appends -----------------------------------


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(st.just("submit"), st.booleans()),
        st.tuples(st.just("read"), st.sampled_from(READS)),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("torn"), st.integers(1, 600)),
    ),
    min_size=1,
    max_size=6,
)


def _check(node: Node, work: Path) -> None:
    """The three things that hold after every step."""
    data_dir = node.data_dir
    assert node.memory_state_hash() == node.replay_hash()
    tail, size = _lag(data_dir)
    assert CHECKPOINT_TAIL_RATIO * tail < size
    shutil.rmtree(work, ignore_errors=True)
    kept, without = _copy(data_dir, work / "kept"), _copy(data_dir, work / "without")
    checkpoint_path(without / LEDGER_FILE).unlink()
    for argv in (*READS, ["tick"]):
        assert run(kept, *argv) == run(without, *argv), argv


@settings(max_examples=10, deadline=None)
@given(steps=_steps)
def test_writes_reads_reopens_and_torn_appends_behind_a_lagging_checkpoint(deep, steps):
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = _copy(deep[0], Path(tmp) / "node")
        path = data_dir / LEDGER_FILE
        node = Node.open(data_dir)
        try:
            for index, step in enumerate(steps):
                kind = step[0]
                if kind == "tick":
                    node.tick()
                elif kind == "submit":
                    record = _record(1000 + index, "cna.alpha", None, node.net.clock)
                    node.submit(record, embargo=node.net.clock + 5 if step[1] else None, salt=f"{index:032x}")
                elif kind == "read":
                    before = files_under(data_dir)
                    assert run(data_dir, *step[1])[0] == 0
                    assert files_under(data_dir) == before  # a read writes nothing
                else:
                    node.close()
                    if kind == "torn":  # a killed append: part of the next line, no newline
                        size = path.stat().st_size
                        with open(path, "ab") as fh:
                            fh.write(path.read_bytes().splitlines()[-1][: step[1]])
                    node = Node.open(data_dir)
                    if kind == "torn":
                        assert path.stat().st_size == size
                _check(node, Path(tmp) / "work")
        finally:
            node.close()
