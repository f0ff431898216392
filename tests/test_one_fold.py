"""Every reader of `ledger.jsonl` folds it through `ledger.replay`, so a
broken `prevHash` link gets one verdict whichever reader meets it:
`LedgerCorrupt` at the broken height, and the file's bytes untouched.
Every height of a small data dir is broken in turn."""

from __future__ import annotations

import hashlib
import json

import pytest

from cveledger import httpapi
from cveledger.cli import main
from cveledger.errors import LedgerCorrupt
from cveledger.ledger import replay
from cveledger.node import LEDGER_FILE, Node
from cveledger.storage import read_chain

HEIGHTS = 6  # genesis, one onboarding, four submissions


def _record(seq: int) -> dict:
    return {
        "cveID": f"CVE-2025-{seq:04d}",
        "description": f"issue number {seq}",
        "product": "widget",
        "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "submitterCNA": "cna.alpha",
    }


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The files of a data dir of `HEIGHTS` blocks, written afresh for each test."""
    data_dir = tmp_path_factory.mktemp("pristine") / "node"
    with Node.init(data_dir, genesis_time=1000, seed=b"one-fold") as node:
        cert = node.issue("cna.alpha", "CNA")
        cert_file = data_dir.parent / "alpha.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.alpha", cert_file)
        for seq in range(1, HEIGHTS - 1):
            node.submit(_record(seq))
        assert len(node.net.chain) == HEIGHTS
    return {p.relative_to(data_dir): p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}


def _materialize(files: dict, data_dir):
    for rel, content in files.items():
        (data_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        (data_dir / rel).write_bytes(content)
    return data_dir


def break_link(ledger, height: int) -> bytes:
    """Rewrite the `prevHash` of the block at `height`; the new file bytes."""
    lines = ledger.read_bytes().split(b"\n")
    old = json.loads(lines[height])["prevHash"].encode()
    lines[height] = lines[height].replace(old, hashlib.sha256(b"not the previous block").hexdigest().encode())
    ledger.write_bytes(b"\n".join(lines))
    return ledger.read_bytes()


class _NoServer:
    """Stands in for the HTTP server, so a `serve` that loads returns."""

    server_address = ("127.0.0.1", 0)

    def serve_forever(self):
        pass

    def server_close(self):
        pass


def _cli_refuses(capsys, data_dir, height: int, *argv) -> None:
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), *argv])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 1, (argv, captured.out)
    assert len(err) == 1, (argv, err)
    line = json.loads(err[0])
    assert line["error"] == "LedgerCorrupt", (argv, line)
    assert line["message"].startswith(f"block {height} "), (argv, line)


@pytest.mark.parametrize("height", range(HEIGHTS))
def test_every_reader_refuses_a_broken_link_at_its_height(pristine, tmp_path, monkeypatch, capsys, height):
    data_dir = _materialize(pristine, tmp_path / "node")
    ledger = data_dir / LEDGER_FILE
    with Node.open(data_dir) as node:  # opened while the chain was whole
        broken = break_link(ledger, height)
        with pytest.raises(LedgerCorrupt) as err:
            node.replay_hash()
        assert err.value.height == height
    with pytest.raises(LedgerCorrupt) as err:
        replay(read_chain(ledger))
    assert err.value.height == height
    with pytest.raises(LedgerCorrupt) as err:
        Node.open(data_dir)
    assert err.value.height == height

    monkeypatch.setattr(httpapi, "serve_queries", lambda *args, **kwargs: _NoServer())
    for argv in (["replay"], ["query"], ["query", "--id", "CVE-2025-0001"], ["serve", "--port", "0"], ["tick"]):
        _cli_refuses(capsys, data_dir, height, *argv)
        assert ledger.read_bytes() == broken, argv

    # the auditor agrees on the height
    capsys.readouterr()
    assert main(["--data-dir", str(data_dir), "audit"]) == 1
    assert json.loads(capsys.readouterr().out)["firstBadHeight"] == height


def test_the_same_readers_accept_the_whole_chain(pristine, tmp_path, monkeypatch, capsys):
    data_dir = _materialize(pristine, tmp_path / "node")
    monkeypatch.setattr(httpapi, "serve_queries", lambda *args, **kwargs: _NoServer())
    for argv in (["replay"], ["query"], ["serve", "--port", "0"], ["audit"], ["tick"]):
        assert main(["--data-dir", str(data_dir), *argv]) == 0, argv
    with Node.open(data_dir) as node:
        assert node.replay_hash() == node.memory_state_hash()
