"""Framing only the ledger's tail: `ledger.LedgerLines` splits the bytes
after a trusted sidecar's `offset` up front and frames the prefix's lines
only when one is indexed (genesis and the tip without splitting it).

The equivalence properties need it to frame exactly what `split_lines`
frames, a load from the checkpoint to give what a load from genesis gives,
and a resumed audit what a full audit gives, at random ledger and sidecar
heights, with and without a newline-less tail. The structure test needs
`Node.open`, `query --id` and a resumed audit never to frame the covered
prefix. The sidecar check decodes the block on the line that ends at
`offset` instead of counting the prefix's newlines, so a header whose
`height` is off by one, with `offset`, `prefixSha256` and `tipHash` kept,
is still refused.
"""

from __future__ import annotations

import json
import logging
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cveledger import ledger as ledger_module
from cveledger import storage
from cveledger.cli import main
from cveledger.ledger import ChainAuditor, LedgerLines, parse_line, split_lines, state_hash
from cveledger.node import LEDGER_FILE, Node
from cveledger.storage import audit_file, checkpoint_path, load_ledger, watermark_path

from test_audit_watermark import LINES, WATERMARK_LOG, _watermark, demo_dir  # noqa: F401  (a fixture)
from test_state_checkpoint import CHECKPOINT_LOG, grown, run, write_checkpoint_at  # noqa: F401  (a fixture)

CHAIN = [parse_line(line) for line in LINES]

# what follows the last newline: nothing, crash residue, or the next line without its newline
_tails = st.sampled_from(["none", "residue", "lost newline"])


def _ledger(height: int, tail: str) -> bytes:
    data = b"".join(LINES[: height + 1])
    if tail == "residue":
        return data + LINES[height + 1][:25]
    if tail == "lost newline":
        return data + LINES[height + 1][:-1]
    return data


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=60).map(lambda b: b.replace(b"a", b"\n")), cut=st.integers(0, 60))
def test_the_lines_after_any_line_end_frame_as_split_lines_does(data, cut):
    ends = [0] + [at + 1 for at, byte in enumerate(data) if byte == ord("\n")]
    count = min(cut, len(ends) - 1)
    # `split_lines` frames a ledger whose only newline is its first byte as
    # holding no line; no sidecar covers that empty line, as it must decode
    assume(count == 0 or data.rfind(b"\n") != 0)
    lines, tail = split_lines(data)
    framed = LedgerLines(data, ends[count], count)
    assert (len(framed), framed.tail) == (len(lines), tail)
    assert [framed[i] for i in range(len(framed))] == lines
    assert list(LedgerLines(data, ends[count], count)) == lines  # the prefix framed first
    assert LedgerLines(data).tail == tail and list(LedgerLines(data)) == lines


@settings(max_examples=40, deadline=None)
@given(height=st.integers(0, len(LINES) - 2), data=st.data(), tail=_tails)
def test_the_lazy_lines_equal_split_lines(height, data, tail):
    covered = data.draw(st.integers(0, height))
    ledger = _ledger(height, tail)
    offset = len(b"".join(LINES[: covered + 1]))
    lines, rest = split_lines(ledger)
    framed = LedgerLines(ledger, offset, covered + 1)
    assert (len(framed), framed.tail) == (len(lines), rest)
    for index in [covered, 0, *range(len(lines)), -1]:  # the tip and genesis before the prefix is split
        assert framed[index] == lines[index]
    with pytest.raises(IndexError):
        framed[len(lines)]


@settings(max_examples=25, deadline=None)
@given(height=st.integers(0, len(LINES) - 2), data=st.data(), tail=_tails)
def test_a_load_from_the_checkpoint_equals_a_load_from_genesis(height, data, tail):
    covered = data.draw(st.integers(0, height))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LEDGER_FILE
        path.write_bytes(_ledger(height, tail))
        write_checkpoint_at(path, CHAIN, covered)
        chain, state, digest = load_ledger(path)
        full_chain, full_state, full_digest = load_ledger(path, checkpoint=False)
    assert state_hash(state) == state_hash(full_state)
    assert (digest.size, digest.hexdigest()) == (full_digest.size, full_digest.hexdigest())
    assert len(chain) == len(full_chain) == height + 1 + (tail == "lost newline")
    for index in (0, len(chain) // 2, covered, len(chain) - 1):
        assert chain[index] == full_chain[index] == CHAIN[index]


@settings(max_examples=25, deadline=None)
@given(height=st.integers(0, len(LINES) - 2), data=st.data(), tail=_tails)
def test_a_resumed_audit_equals_a_full_audit(height, data, tail):
    covered = data.draw(st.integers(0, height))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LEDGER_FILE
        path.write_bytes(b"".join(LINES[: covered + 1]))
        assert audit_file(path).valid  # writes the watermark
        start = json.loads(watermark_path(path).read_bytes())
        ledger = _ledger(height, tail)
        path.write_bytes(ledger)
        assert audit_file(path) == ChainAuditor().audit(ledger)[0]
    assert ChainAuditor().audit(ledger, start) == ChainAuditor().audit(ledger)


# -- the covered prefix is not framed --------------------------------------------------------


@pytest.fixture
def framing(monkeypatch):
    """Every LedgerLines built, with the (bytes, offset, count) it was built
    from, and every whole ledger `split_lines` framed."""
    built, split = [], []
    init = LedgerLines.__init__

    def recording_init(self, data, offset=0, count=0):
        built.append((self, (len(data), offset, count)))
        init(self, data, offset, count)

    def recording_split_lines(data):
        split.append(len(data))
        return split_lines(data)

    monkeypatch.setattr(LedgerLines, "__init__", recording_init)
    monkeypatch.setattr(ledger_module, "split_lines", recording_split_lines)
    monkeypatch.setattr(storage, "split_lines", recording_split_lines)
    return built, split


def _prefix_framed(lines: LedgerLines) -> bool:
    return lines._prefix is not None


def test_open_query_and_a_resumed_audit_frame_only_the_tail(grown, framing, tmp_path, caplog):
    data_dir = tmp_path / "node"
    shutil.copytree(grown[0], data_dir)
    path = data_dir / LEDGER_FILE
    assert audit_file(path).valid
    with Node.open(data_dir) as node:
        node.tick()  # one more block for the next audit, and a checkpoint at it
    size, height = path.stat().st_size, len(path.read_bytes().splitlines()) - 1
    audited = _watermark(data_dir)
    assert audited["height"] == height - 1
    built, split = framing
    built.clear()
    split.clear()
    caplog.set_level(logging.WARNING)

    with Node.open(data_dir) as node:
        assert node.net.chain[-1].height == height and node.net.chain[0].height == 0
    assert run(data_dir, "query", "--id", "CVE-2025-0001")[0] == 0
    assert audit_file(path).valid

    assert split == [] and caplog.records == []
    assert [args for _, args in built] == [(size, size, height + 1)] * 2 + [(size, audited["offset"], height)]
    assert not any(_prefix_framed(lines) for lines, _ in built)

    chain = load_ledger(path)[0]
    lines = built[-1][0]
    assert chain[0].height == 0 and chain[height].height == height and not _prefix_framed(lines)
    assert chain[2].height == 2 and _prefix_framed(lines)  # a middle line frames the prefix


# -- a sidecar whose height is off by one ----------------------------------------------------


@pytest.mark.parametrize("step", [-1, 1])
def test_a_watermark_whose_height_is_off_by_one_is_not_trusted(demo_dir, capsys, caplog, step):
    path = demo_dir / LEDGER_FILE
    mark = _watermark(demo_dir)
    watermark_path(path).write_text(json.dumps({**mark, "height": mark["height"] + step}))
    expected = ChainAuditor().audit_bytes(path.read_bytes())
    caplog.set_level(logging.WARNING, WATERMARK_LOG)
    capsys.readouterr()
    assert main(["--data-dir", str(demo_dir), "audit"]) == 0
    assert json.loads(capsys.readouterr().out) == expected.to_dict()
    warnings = [r.getMessage() for r in caplog.records if r.name == WATERMARK_LOG]
    assert len(warnings) == 1 and "does not end the line of the block at height" in warnings[0], warnings
    assert _watermark(demo_dir)["offset"] == path.stat().st_size  # rewritten by the full audit


@pytest.mark.parametrize("step", [-1, 1])
def test_a_checkpoint_whose_height_is_off_by_one_is_not_trusted(grown, tmp_path, caplog, step):
    data_dir, without = tmp_path / "damaged", tmp_path / "without"
    shutil.copytree(grown[0], data_dir)
    shutil.copytree(grown[0], without)
    mark = checkpoint_path(data_dir / LEDGER_FILE)
    header, body = mark.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    mark.write_bytes(json.dumps({**fields, "height": fields["height"] + step}).encode() + b"\n" + body)
    checkpoint_path(without / LEDGER_FILE).unlink()
    caplog.set_level(logging.WARNING, CHECKPOINT_LOG)
    for argv in (["query", "--id", "CVE-2025-0003"], ["tick", "--now", "1020"]):
        caplog.clear()
        result = run(data_dir, *argv)
        assert result == run(without, *argv) and result[0] == 0, argv
        warnings = [r.getMessage() for r in caplog.records if r.name == CHECKPOINT_LOG]
        assert len(warnings) == 1 and "does not end the line of the block at height" in warnings[0], warnings
