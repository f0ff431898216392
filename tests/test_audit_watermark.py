"""The audit watermark: `audit_file` verifies only what was appended since
its last valid audit, and gives the full audit's verdict whatever the
ledger or the watermark holds.

The equivalence property audits a prefix of a real chain (which writes the
watermark), extends the file, then flips bytes, truncates, or appends valid
or garbage lines anywhere, and needs `audit_file(path)` to return exactly
what a fresh `ChainAuditor` returns on the file's bytes. The hostile cases
put garbage, wrong shapes and types, bad offsets and a foreign tip hash in
the watermark, or refuse its write, and need the full verdict and its CLI
exit code with no traceback.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger import ledger as ledger_module
from cveledger import storage
from cveledger.canonical import sha256_hex
from cveledger.chaincode import WorldState
from cveledger.cli import main
from cveledger.httpapi import serve_in_thread
from cveledger.identity import ROLE_CNA
from cveledger.ledger import ChainAuditor, EndorsementPolicy, block_line
from cveledger.network import SimulatedNetwork
from cveledger.node import LEDGER_FILE, Node
from cveledger.storage import audit_file, watermark_path

from test_verify_oracle import _record

WATERMARK_LOG = "cveledger.storage.watermark"


def _chain_lines(seed: bytes, height: int) -> list[bytes]:
    """The lines of a 3-peer chain of `height + 1` blocks: genesis, two
    onboardings, then one submission per block, every fourth embargoed."""
    net = SimulatedNetwork(seed=seed, genesis_time=1000, policy=EndorsementPolicy("ANY_N", 1))
    for cna in ("cna.alpha", "cna.beta"):
        net.onboard(cna, net.issue_identity(cna), net.governance_id)
        net.tick(net.clock + 1)
    seq = 0
    while len(net.chain) <= height:
        seq += 1
        net.submit(_record(seq, ("cna.alpha", "cna.beta")[seq % 2], 1100 if seq % 4 == 0 else None))
        net.tick(net.clock + 1)
    return [block_line(block) for block in net.chain]


LINES = _chain_lines(b"audit-watermark", 12)
FOREIGN = _chain_lines(b"audit-watermark-foreign", 12)


# -- the equivalence property ---------------------------------------------------------------

_edit = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("valid"), st.integers(1, 3)),
    st.tuples(st.just("garbage"), st.binary(max_size=40), st.booleans()),
)


def _apply(data: bytes, end: int, edit) -> tuple[bytes, int]:
    """`data` (the first `end` lines of LINES) with `edit` applied."""
    kind = edit[0]
    if kind == "flip":
        if not data:
            return data, end
        position = edit[1] % len(data)
        return data[:position] + bytes([data[position] ^ (1 << edit[2])]) + data[position + 1:], end
    if kind == "truncate":
        return data[: edit[1] % (len(data) + 1)], end
    if kind == "valid":
        return data + b"".join(LINES[end:end + edit[1]]), end + edit[1]
    return data + edit[1] + (b"\n" if edit[2] else b""), end


@settings(max_examples=120, deadline=None)
@given(
    audited=st.integers(1, len(LINES) - 4),
    grown=st.integers(0, 3),
    edits=st.lists(_edit, max_size=2),
)
def test_a_watermarked_audit_gives_the_full_verdict(audited, grown, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LEDGER_FILE
        path.write_bytes(b"".join(LINES[:audited]))
        assert audit_file(path).valid  # writes the watermark
        assert json.loads(watermark_path(path).read_bytes())["height"] == audited - 1
        end = audited + grown
        data = b"".join(LINES[:end])
        for edit in edits:
            data, end = _apply(data, end, edit)
        path.write_bytes(data)
        assert audit_file(path) == ChainAuditor().audit_bytes(data)


@pytest.mark.parametrize("audited", [1, 5, len(FOREIGN)])
def test_a_foreign_watermark_falls_back_to_the_full_verdict(tmp_path, caplog, audited):
    foreign = tmp_path / "foreign" / LEDGER_FILE
    foreign.parent.mkdir()
    foreign.write_bytes(b"".join(FOREIGN[:audited]))
    assert audit_file(foreign).valid
    for data in (b"".join(LINES), b"".join(LINES[:3]) + b"garbage\n"):
        path = tmp_path / LEDGER_FILE
        path.write_bytes(data)
        watermark_path(path).write_bytes(watermark_path(foreign).read_bytes())
        with caplog.at_level(logging.WARNING, logger=WATERMARK_LOG):
            caplog.clear()
            assert audit_file(path) == ChainAuditor().audit_bytes(data)
        assert any("ignoring audit watermark" in r.message for r in caplog.records)


# -- the watermark is used, and only when it matches ----------------------------------------


def _count_verifies(monkeypatch) -> list:
    calls = []
    real = ledger_module.verify_payload

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ledger_module, "verify_payload", counting)
    return calls


def test_an_audit_verifies_only_the_lines_after_the_watermark(tmp_path, monkeypatch, caplog):
    path = tmp_path / LEDGER_FILE
    path.write_bytes(b"".join(LINES[:-1]))
    calls = _count_verifies(monkeypatch)
    with caplog.at_level(logging.WARNING, logger=WATERMARK_LOG):
        assert audit_file(path).valid
        full = len(calls)
        mark = watermark_path(path).read_bytes()
        calls.clear()
        assert audit_file(path).valid  # nothing new: nothing verified, nothing rewritten
        assert calls == [] and watermark_path(path).read_bytes() == mark
        with open(path, "ab") as fh:
            fh.write(LINES[-1])
        assert audit_file(path).valid
    # the last block holds one transaction: its caller signature and one endorsement
    assert len(calls) == 2 < full
    assert json.loads(watermark_path(path).read_bytes())["height"] == len(LINES) - 1
    assert caplog.records == []  # a first audit is not warned about


def test_a_watermark_after_a_rewritten_prefix_is_not_trusted(tmp_path, caplog):
    path = tmp_path / LEDGER_FILE
    path.write_bytes(b"".join(LINES[:6]))
    assert audit_file(path).valid
    tampered = bytearray(b"".join(LINES))
    tampered[len(LINES[0]) + 40] ^= 1
    path.write_bytes(bytes(tampered))
    with caplog.at_level(logging.WARNING, logger=WATERMARK_LOG):
        report = audit_file(path)
    assert (report.valid, report.first_bad_height) == (False, 1)
    assert report == ChainAuditor().audit_bytes(bytes(tampered))
    assert any("prefix of the ledger has changed" in r.message for r in caplog.records)
    # an invalid audit leaves the watermark of the last valid one
    assert json.loads(watermark_path(path).read_bytes())["height"] == 5


def test_a_resumed_audit_hashes_each_ledger_byte_once(tmp_path, monkeypatch):
    path = tmp_path / LEDGER_FILE
    path.write_bytes(b"".join(LINES[:6]))
    assert audit_file(path).valid
    path.write_bytes(b"".join(LINES))
    hashed = []
    sha256 = storage.hashlib.sha256

    class Counting:
        def __init__(self, data=b""):
            hashed.append(len(memoryview(data)))
            self._sha = sha256(data)

        def update(self, data):
            hashed.append(len(memoryview(data)))
            self._sha.update(data)

        def hexdigest(self):
            return self._sha.hexdigest()

    monkeypatch.setattr(storage, "hashlib", SimpleNamespace(sha256=Counting))
    assert audit_file(path).valid  # resumes after block 5 and rewrites the watermark
    assert json.loads(watermark_path(path).read_bytes())["height"] == len(LINES) - 1
    assert sum(hashed) == path.stat().st_size


# -- hostile or unwritable watermarks through the CLI ----------------------------------------


@pytest.fixture
def demo_dir(tmp_path):
    """A data dir after `init`, `issue`, `onboard` and an audit that wrote
    the watermark, plus one more block for the next audit to verify."""
    data_dir = tmp_path / "demo"
    cert_file = tmp_path / "alpha.cert.json"
    with Node.init(data_dir, genesis_time=1000, seed=b"audit-watermark-cli") as node:
        cert_file.write_text(json.dumps(node.issue("cna.alpha", ROLE_CNA).to_dict()))
        node.onboard("cna.alpha", cert_file)
    assert audit_file(data_dir / LEDGER_FILE).valid
    with Node.open(data_dir) as node:
        node.tick()
    return data_dir


def _watermark(data_dir) -> dict:
    return json.loads(watermark_path(data_dir / LEDGER_FILE).read_bytes())


def _with(**changes):
    def edit(mark: dict, size: int) -> bytes:
        mark = dict(mark)
        for key, value in changes.items():
            if value is None:
                del mark[key]
            else:
                mark[key] = value(mark, size) if callable(value) else value
        return json.dumps(mark).encode()

    return edit


HOSTILE = {
    "garbage": lambda mark, size: b"\xff\x00{not json",
    "empty": lambda mark, size: b"",
    "a list": lambda mark, size: b"[1, 2, 3]",
    "too deep": lambda mark, size: b"[" * 100000 + b"]" * 100000,
    "offset 1e400": lambda mark, size: json.dumps(mark).replace(f'"offset": {mark["offset"]}', '"offset": 1e400').encode(),
    "offset a string": _with(offset=lambda mark, size: str(mark["offset"])),
    "offset a bool": _with(offset=True),
    "no offset": _with(offset=None),
    "offset past EOF": _with(offset=lambda mark, size: size + 1),
    "offset 0": _with(offset=0),
    "offset negative": _with(offset=-1),
    "offset mid-line": _with(offset=lambda mark, size: mark["offset"] - 7),
    "offset ends another line": _with(offset=lambda mark, size: size),
    "digest not hex": _with(prefixSha256="00" * 31 + "ZZ"),
    "digest of other bytes": _with(prefixSha256="00" * 32),
    "height a float": _with(height=lambda mark, size: mark["height"] + 0.0),
    "height negative": _with(height=-1),
    "no tip hash": _with(tipHash=None),
    "tip hash upper-case": _with(tipHash=lambda mark, size: mark["tipHash"].upper()),
    "tip hash of another block": _with(tipHash="ab" * 32),
    "prevTime a string": _with(prevTime="1000"),
    "prevTime of another block": _with(prevTime=lambda mark, size: mark["prevTime"] + 1),
    "callerKeys a list": _with(callerKeys=[]),
    "callerKeys with a number": _with(callerKeys={"gov.root": 5}),
}


@pytest.mark.parametrize("tamper", [False, True], ids=["intact", "tampered"])
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_a_hostile_watermark_gives_the_full_verdict(demo_dir, capsys, name, tamper):
    path = demo_dir / LEDGER_FILE
    if tamper:
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"cnaID":"cna.alpha"', b'"cnaID":"cna.alphA"')
        path.write_bytes(b"\n".join(lines))
    hostile = HOSTILE[name](_watermark(demo_dir), path.stat().st_size)
    watermark_path(path).write_bytes(hostile)
    expected = ChainAuditor().audit_bytes(path.read_bytes())
    assert expected.valid is not tamper
    capsys.readouterr()
    code = main(["--data-dir", str(demo_dir), "audit"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out), err) == (0 if expected.valid else 1, expected.to_dict(), "")
    if expected.valid:  # the hostile watermark was replaced by a true one
        assert _watermark(demo_dir)["offset"] == path.stat().st_size


def test_a_digest_that_stops_short_of_its_height_is_not_trusted(demo_dir, capsys):
    """A true digest of the genesis line alone, with the context after block
    1: block 1's payload is edited (its blockHash field kept), which only
    the lines the digest covers would reveal."""
    path = demo_dir / LEDGER_FILE
    mark = _watermark(demo_dir)
    assert mark["height"] == 1
    data = path.read_bytes()
    genesis_end = data.index(b"\n") + 1
    tampered = data.replace(b'"cnaID":"cna.alpha"', b'"cnaID":"cna.alphA"', 1)
    assert tampered[:genesis_end] == data[:genesis_end] != tampered
    path.write_bytes(tampered)
    mark.update(offset=genesis_end, prefixSha256=sha256_hex(data[:genesis_end]))
    watermark_path(path).write_text(json.dumps(mark))
    capsys.readouterr()
    assert main(["--data-dir", str(demo_dir), "audit"]) == 1
    assert json.loads(capsys.readouterr().out) == {"firstBadHeight": 1, "reason": "HASH_MISMATCH", "valid": False}


def _temp_files(data_dir) -> list:
    return sorted(p.name for p in Path(data_dir).iterdir() if p.name.endswith(".tmp"))


def test_an_unwritable_watermark_is_skipped(demo_dir, capsys, monkeypatch, caplog):
    before = watermark_path(demo_dir / LEDGER_FILE).read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    with caplog.at_level(logging.WARNING, logger=WATERMARK_LOG):
        code = main(["--data-dir", str(demo_dir), "audit"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["valid"], err) == (0, True, "")
    assert any("could not write audit watermark" in r.message for r in caplog.records)
    assert watermark_path(demo_dir / LEDGER_FILE).read_bytes() == before
    assert _temp_files(demo_dir) == []


def test_concurrent_http_audits_leave_one_whole_watermark(demo_dir):
    path = demo_dir / LEDGER_FILE
    server, port = serve_in_thread(WorldState(), [], ledger_path=path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(4):
            if round_ % 2:
                watermark_path(path).unlink()  # every thread audits from genesis
            else:
                with Node.open(demo_dir) as node:  # every thread audits the new block
                    node.tick()
            barrier = threading.Barrier(4)
            bodies = []

            def get():
                barrier.wait(timeout=60)
                with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/audit", timeout=60) as resp:
                    bodies.append(json.loads(resp.read()))

            threads = [threading.Thread(target=get) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert bodies == [{"firstBadHeight": None, "reason": None, "valid": True}] * 4
            mark = _watermark(demo_dir)
            assert (mark["offset"], mark["height"]) == (path.stat().st_size, len(path.read_bytes().split(b"\n")) - 2)
            assert _temp_files(demo_dir) == []
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
