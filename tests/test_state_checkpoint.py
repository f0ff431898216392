"""The state checkpoint: writers leave `ledger.jsonl.state` after each
committed block, and `Node.open` and `query` start from it, decoding and
replaying only the blocks after it, while it still matches the ledger.

The equivalence property writes a checkpoint at a random height of a random
chain and needs the checkpoint plus the tail to give what a full replay
gives: every peer's state hash, the chain, the query index, the embargo
sweep and the outcome of one more operation. The damage property needs a
truncated, flipped, garbage, stale or foreign checkpoint to change no
output, and a flipped byte in the ledger prefix it covers to be refused at
the height the audit reports. The payload sweep edits every transaction
payload of a 6-block ledger and needs every reader to refuse it, which
closes the gap where an edit that kept the links was served until audited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.cli import main
from cveledger.errors import LedgerCorrupt
from cveledger.ledger import HASH_MISMATCH, ChainAuditor, block_line, replay, state_hash
from cveledger.network import SimulatedNetwork
from cveledger.node import LEDGER_FILE, Node
from cveledger.storage import LedgerDigest, checkpoint_path, load_ledger, write_chain_file, write_checkpoint

from test_open_once import _record, perform, seeded_network, steps

CHECKPOINT_LOG = "cveledger.storage.checkpoint"


@contextlib.contextmanager
def checkpoint_warnings():
    """The messages the checkpoint logger warns with inside the block."""
    records: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: records.append(record.getMessage())
    log = logging.getLogger(CHECKPOINT_LOG)
    log.addHandler(handler)
    try:
        yield records
    finally:
        log.removeHandler(handler)


def write_checkpoint_at(path: Path, chain, height: int) -> None:
    """The checkpoint a writer leaves after the block at `height` of `chain`."""
    prefix = b"".join(block_line(block) for block in chain[: height + 1])
    digest = LedgerDigest()
    digest.update(prefix)
    write_checkpoint(path, digest, chain[height], replay(chain[: height + 1]))


def rebuilt(net: SimulatedNetwork, **loaded) -> SimulatedNetwork:
    keys = dict(net.keys, **{peer.peer_id: peer.key for peer in net.peers})
    return SimulatedNetwork.from_materials(
        ca=net.ca, keys=keys, certs=net.certs, orderer=net.orderer, governance_id=net.governance_id,
        **loaded,
    )


# -- checkpoint plus tail equals a full replay ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, max_size=20), st.data())
def test_checkpoint_plus_tail_equals_a_full_replay(ops, data):
    # two equal sources, since rebuilt networks share their source's CA
    sources = [seeded_network(), seeded_network()]
    for step in ops:
        assert perform(sources[0], step) == perform(sources[1], step)
    for source in sources:
        perform(source, ("tick", 1))
    chain = list(sources[0].chain)
    height = data.draw(st.integers(0, len(chain) - 1), label="checkpoint height")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LEDGER_FILE
        write_checkpoint_at(path, chain, height)
        write_chain_file(path, chain)
        with checkpoint_warnings() as warnings:
            loaded_chain, loaded_state, digest = load_ledger(path)
        assert warnings == []
        assert (digest.size, digest.hexdigest()) == (len(path.read_bytes()), _sha(path))
    full = rebuilt(sources[0], chain=chain)
    fast = rebuilt(sources[1], chain=loaded_chain, state=loaded_state)

    assert state_hash(loaded_state) == state_hash(replay(chain))
    assert fast.state_hashes() == full.state_hashes()
    assert len(fast.chain) == len(chain)
    assert (fast.chain[0], fast.chain[-1]) == (chain[0], chain[-1])
    assert [peer.tip_hash for peer in fast.peers] == [peer.tip_hash for peer in full.peers]
    assert fast.peers[0].state.query_index() == full.peers[0].state.query_index()

    step = data.draw(steps, label="one more op")
    for net in (fast, full):
        net.advance_clock(sources[0].clock)
    assert perform(fast, step) == perform(full, step)
    assert perform(fast, ("tick", 0)) == perform(full, ("tick", 0))
    assert fast.state_hashes() == full.state_hashes()
    # every embargo (at most 6 ticks) is due: the sweep releases the same drafts
    assert perform(fast, ("tick", 7)) == perform(full, ("tick", 7))
    assert perform(fast, ("sweep",)) == perform(full, ("sweep",))
    assert perform(fast, ("tick", 0)) == perform(full, ("tick", 0))
    logs = [[event.to_dict() for event in net.peers[0].state.event_log] for net in (fast, full)]
    assert logs[0] == logs[1]
    assert fast.state_hashes() == full.state_hashes()


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- a data dir with a checkpoint, for the CLI properties ----------------------------------


def _grow(path: Path, seed: bytes, blocks: int) -> list[bytes]:
    """A data dir of genesis, one onboarding and submissions (every third
    embargoed) up to `blocks` blocks; the checkpoint after each write."""
    checkpoints = []
    with Node.init(path, genesis_time=1000, seed=seed) as node:
        cert = node.issue("cna.alpha", "CNA")
        cert_file = path / "alpha.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.alpha", cert_file)
        checkpoints.append(checkpoint_path(path / LEDGER_FILE).read_bytes())
        for seq in range(1, blocks - 1):
            node.submit(_record(seq, "cna.alpha", 5 if seq % 3 == 0 else None, node.net.clock), salt=f"{seq:032x}")
            checkpoints.append(checkpoint_path(path / LEDGER_FILE).read_bytes())
    return checkpoints


@pytest.fixture(scope="module")
def grown(tmp_path_factory):
    """(data dir, the checkpoint after each write, a foreign data dir)."""
    root = tmp_path_factory.mktemp("checkpoint")
    checkpoints = _grow(root / "node", b"state-checkpoint", 6)
    _grow(root / "foreign", b"state-checkpoint-foreign", 6)
    return root / "node", checkpoints, root / "foreign"


def run(data_dir: Path, *argv) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--data-dir", str(data_dir), *argv])
    return code, out.getvalue(), err.getvalue().splitlines()


READS_AND_WRITES = (["query", "--id", "CVE-2025-0003"], ["tick", "--now", "1020"])

_damage = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**7)),
    st.tuples(st.just("flip"), st.integers(0, 10**7), st.integers(1, 255)),
    st.tuples(st.just("garbage"), st.binary(max_size=200)),
    st.tuples(st.just("stale"), st.integers(0, 3)),
    st.just(("foreign",)),
)


def _damaged(checkpoint: bytes, damage, checkpoints, foreign: Path) -> bytes:
    kind = damage[0]
    if kind == "truncate":
        return checkpoint[: damage[1] % len(checkpoint)]
    if kind == "flip":
        at = damage[1] % len(checkpoint)
        return checkpoint[:at] + bytes([checkpoint[at] ^ damage[2]]) + checkpoint[at + 1:]
    if kind == "garbage":
        return damage[1]
    if kind == "stale":
        return checkpoints[damage[1]]
    return checkpoint_path(foreign / LEDGER_FILE).read_bytes()


@settings(max_examples=30, deadline=None)
@given(damage=_damage)
def test_a_damaged_checkpoint_changes_no_output(grown, damage):
    data_dir, checkpoints, foreign = grown
    with tempfile.TemporaryDirectory() as tmp:
        damaged, without = Path(tmp) / "damaged", Path(tmp) / "without"
        shutil.copytree(data_dir, damaged)
        shutil.copytree(data_dir, without)
        mark = checkpoint_path(damaged / LEDGER_FILE)
        mark.write_bytes(_damaged(mark.read_bytes(), damage, checkpoints, foreign))
        checkpoint_path(without / LEDGER_FILE).unlink()
        for argv in READS_AND_WRITES:
            code, out, err = run(damaged, *argv)
            assert (code, out, err) == run(without, *argv) == (0, out, []), (damage, argv)
        # the write left a valid checkpoint behind
        left = [checkpoint_path(copy / LEDGER_FILE).read_bytes() for copy in (damaged, without)]
        assert left[0] == left[1]


def _with_header(checkpoint: bytes, **changes) -> bytes:
    header, body = checkpoint.split(b"\n", 1)
    return json.dumps({**json.loads(header), **changes}, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body


def _flip_hex(value: str) -> str:
    return ("1" if value[0] == "0" else "0") + value[1:]


# one well-typed but wrong part each, of the checkpoint after block 3 (two blocks before the tip)
WRONG_PARTS = {
    "height": lambda cp, h, cps: _with_header(cp, height=h["height"] - 1),
    "offset": lambda cp, h, cps: _with_header(cp, offset=h["offset"] - 1),
    "prefixSha256": lambda cp, h, cps: _with_header(cp, prefixSha256=_flip_hex(h["prefixSha256"])),
    "tipHash": lambda cp, h, cps: _with_header(cp, tipHash=json.loads(cps[0].split(b"\n", 1)[0])["tipHash"]),
    "stateHash": lambda cp, h, cps: _with_header(cp, stateHash=_flip_hex(h["stateHash"])),
    "records": lambda cp, h, cps: _with_header(cp, records=h["records"] - 1),
    "summary": lambda cp, h, cps: _with_header(cp, summary={**h["summary"], "failedTxs": [{"height": 1}]}),
    "record line": lambda cp, h, cps: cp.replace(b"flaw number 2", b"flaw number 9", 1),
    "event line": lambda cp, h, cps: cp.replace(b'"kind":"CVESubmitted"', b'"kind":"CVESubmitteD"', 1),
    "missing line": lambda cp, h, cps: cp[: cp.rindex(b"\n", 0, -1) + 1],
    # the header damage the audit watermark's hostile cases give it
    "offset 1e400": lambda cp, h, cps: cp.replace(b'"offset":%d,' % h["offset"], b'"offset":1e400,', 1),
    "offset a string": lambda cp, h, cps: _with_header(cp, offset=str(h["offset"])),
    "offset a bool": lambda cp, h, cps: _with_header(cp, offset=True),
    "offset 0": lambda cp, h, cps: _with_header(cp, offset=0),
    "offset mid-line": lambda cp, h, cps: _with_header(cp, offset=h["offset"] - 7),
    "offset past EOF": lambda cp, h, cps: _with_header(cp, offset=h["offset"] + 10**9),
    "height a float": lambda cp, h, cps: _with_header(cp, height=h["height"] + 0.0),
    "height negative": lambda cp, h, cps: _with_header(cp, height=-1),
    "tipHash upper-case": lambda cp, h, cps: _with_header(cp, tipHash=h["tipHash"].upper()),
    "no tipHash": lambda cp, h, cps: cp.replace(b',"tipHash":"%s"}\n' % h["tipHash"].encode(), b"}\n", 1),
    "header too deep": lambda cp, h, cps: b"[" * 100000 + b"]" * 100000 + cp[cp.index(b"\n"):],
}


@pytest.mark.parametrize("part", sorted(WRONG_PARTS))
def test_a_checkpoint_with_one_wrong_part_is_ignored(grown, part):
    data_dir, checkpoints, _ = grown
    checkpoint = checkpoints[2]
    header = json.loads(checkpoint.split(b"\n", 1)[0])
    wrong = WRONG_PARTS[part](checkpoint, header, checkpoints)
    assert wrong != checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        damaged, without = Path(tmp) / "damaged", Path(tmp) / "without"
        shutil.copytree(data_dir, damaged)
        shutil.copytree(data_dir, without)
        checkpoint_path(damaged / LEDGER_FILE).write_bytes(wrong)
        checkpoint_path(without / LEDGER_FILE).unlink()
        for argv in READS_AND_WRITES:
            with checkpoint_warnings() as warnings:
                result = run(damaged, *argv)
            assert result == run(without, *argv) and result[0] == 0, (part, argv)
            assert len(warnings) == 1 and "ignoring state checkpoint" in warnings[0], (part, warnings)


@settings(max_examples=60, deadline=None)
@given(covered=st.integers(1, 3), position=st.integers(0, 10**7), bit=st.integers(0, 7))
def test_a_flipped_byte_in_the_covered_prefix_is_refused_where_the_audit_reports_it(grown, covered, position, bit):
    data_dir, checkpoints, _ = grown
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LEDGER_FILE
        data = (data_dir / LEDGER_FILE).read_bytes()
        checkpoint = checkpoints[covered]
        offset = json.loads(checkpoint.split(b"\n", 1)[0])["offset"]
        assert offset < len(data)  # a tail follows, so the prefix's last newline is not the file's
        at = position % offset
        data = data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]
        path.write_bytes(data)
        checkpoint_path(path).write_bytes(checkpoint)
        report = ChainAuditor().audit_bytes(data)
        assert not report.valid
        if report.reason == HASH_MISMATCH:
            with pytest.raises(LedgerCorrupt) as err:
                load_ledger(path)
            assert err.value.height == report.first_bad_height
        else:  # a signature or an endorsement, which only the audit verifies
            load_ledger(path)
        assert path.read_bytes() == data


# -- every payload edit is refused by every reader -----------------------------------------


def _payload_edits(data: bytes):
    """(label, ledger) for each tx payload edited in place: its clock, and
    for a submission its description, with the tx id and hashes kept."""
    lines = data.split(b"\n")
    for height, line in enumerate(lines[:-1]):
        block = json.loads(line)
        for index, tx in enumerate(block["txs"]):
            payload = tx["payload"]
            edits = [("clockNow", lambda p: p.update(clockNow=p["clockNow"] + 1))]
            if "record" in payload["args"]:
                edits.append(("description", lambda p: p["args"]["record"].update(description="forged text")))
            for name, edit in edits:
                edited = json.loads(line)
                edit(edited["txs"][index]["payload"])
                tampered = json.dumps(edited, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()
                yield f"{height}/{index}/{name}", b"\n".join(lines[:height] + [tampered] + lines[height + 1:]), height


def test_every_payload_edit_is_refused_by_every_reader(grown):
    data_dir, checkpoints, _ = grown
    data = (data_dir / LEDGER_FILE).read_bytes()
    assert data.count(b"\n") == 6
    edits = list(_payload_edits(data))
    assert len(edits) == 6 + 4  # every block's one tx, and four submissions
    with tempfile.TemporaryDirectory() as tmp:
        for label, tampered, height in edits:
            copy = Path(tmp) / label.replace("/", "-")
            shutil.copytree(data_dir, copy)
            # a checkpoint after block 2: the edit is in the prefix it covers or in the tail
            checkpoint_path(copy / LEDGER_FILE).write_bytes(checkpoints[1])
            (copy / LEDGER_FILE).write_bytes(tampered)
            code, out, _ = run(copy, "audit")
            assert code == 1 and json.loads(out) == {
                "firstBadHeight": height, "reason": HASH_MISMATCH, "valid": False,
            }, label
            for argv in (["replay"], ["query"], ["query", "--id", "CVE-2025-0001"], ["tick"]):
                code, out, err = run(copy, *argv)
                assert code == 1 and out == "" and len(err) == 1, (label, argv, err)
                line = json.loads(err[0])
                assert line["error"] == "LedgerCorrupt" and f"height {height}" in line["message"], (label, argv, line)
            assert (copy / LEDGER_FILE).read_bytes() == tampered, label


def _respelled(line: bytes) -> list[tuple[str, bytes]]:
    """Edits of a block's line that keep its block, ids and hashes but not
    its canonical spelling, or that canonical JSON cannot write."""
    at = line.index(b'"prevHash":"') + len(b'"prevHash":"')
    return [
        ("extra key", b'{"zzz":"x",' + line[1:]),
        ("whitespace", line.replace(b'"height":', b'"height": ', 1)),
        ("escape", line[:at] + b"\\u%04x" % line[at] + line[at + 1:]),
        ("lone surrogate", line.replace(b'"caller":"', b'"caller":"\\ud800', 1)),
    ]


def test_a_line_that_is_not_its_blocks_encoding_is_refused_by_every_reader(grown):
    data_dir, checkpoints, _ = grown
    lines = (data_dir / LEDGER_FILE).read_bytes().split(b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        for height in (1, 4):  # in the prefix the checkpoint covers, and after it
            for name, edited in _respelled(lines[height]):
                copy = Path(tmp) / f"{height}-{name}"
                shutil.copytree(data_dir, copy)
                checkpoint_path(copy / LEDGER_FILE).write_bytes(checkpoints[1])
                tampered = b"\n".join(lines[:height] + [edited] + lines[height + 1:])
                (copy / LEDGER_FILE).write_bytes(tampered)
                assert json.loads(run(copy, "audit")[1])["firstBadHeight"] == height, name
                for argv in (["replay"], ["query", "--id", "CVE-2025-0001"], ["tick"]):
                    code, _, err = run(copy, *argv)
                    assert code == 1 and len(err) == 1, (name, argv, err)
                    line = json.loads(err[0])
                    assert line["error"] == "LedgerCorrupt" and f"height {height}" in line["message"], (name, argv)
                assert (copy / LEDGER_FILE).read_bytes() == tampered, name


# -- the checkpoint file --------------------------------------------------------------------


def test_writers_leave_a_checkpoint_readers_and_replay_write_none(grown):
    data_dir, _, _ = grown
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "node"
        shutil.copytree(data_dir, copy)
        mark = checkpoint_path(copy / LEDGER_FILE)
        header = json.loads(mark.read_bytes().split(b"\n", 1)[0])
        assert header["offset"] == len((copy / LEDGER_FILE).read_bytes()) and header["height"] == 5
        assert stat.S_IMODE(os.stat(mark).st_mode) == 0o600  # it holds embargoed plaintext
        mark.unlink()
        for argv in (["query", "--id", "CVE-2025-0001"], ["replay"], ["audit"]):
            assert run(copy, *argv)[0] == 0
        assert not mark.exists()
        assert run(copy, "tick")[0] == 0
        assert json.loads(mark.read_bytes().split(b"\n", 1)[0])["height"] == 6
        with Node.open(copy) as node:
            assert node.memory_state_hash() == node.replay_hash()


@pytest.mark.parametrize("torn", ["crash residue", "lost newline"])
def test_a_torn_append_after_the_checkpoint_is_repaired_from_it(grown, torn):
    data_dir, checkpoints, _ = grown
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "node"
        shutil.copytree(data_dir, copy)
        checkpoint_path(copy / LEDGER_FILE).write_bytes(checkpoints[2])
        ledger = copy / LEDGER_FILE
        data = ledger.read_bytes()
        ledger.write_bytes(data + b'{"height": 6, "partial' if torn == "crash residue" else data[:-1])
        with checkpoint_warnings() as warnings:
            code, out, err = run(copy, "tick")
        assert (code, err, warnings) == (0, [], []) and json.loads(out)["height"] == 6
        repaired = ledger.read_bytes()
        assert repaired.startswith(data) and repaired.count(b"\n") == 7
        with Node.open(copy) as node:
            assert node.memory_state_hash() == node.replay_hash()


def test_an_unwritable_checkpoint_is_skipped(grown, monkeypatch):
    data_dir, _, _ = grown
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "node"
        shutil.copytree(data_dir, copy)
        mark = checkpoint_path(copy / LEDGER_FILE)
        before = mark.read_bytes()

        def refuse(*args, **kwargs):
            raise OSError("no space left")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        with checkpoint_warnings() as warnings:
            code, out, err = run(copy, "tick")
        monkeypatch.undo()
        assert code == 0 and err == [] and json.loads(out)["height"] == 6
        assert len(warnings) == 1 and "could not write state checkpoint" in warnings[0]
        assert mark.read_bytes() == before
        with checkpoint_warnings() as warnings, Node.open(copy) as node:  # the stale one still serves
            assert warnings == [] and node.memory_state_hash() == node.replay_hash()
