from __future__ import annotations

import json

import pytest

from cveledger.cli import main
from cveledger.errors import LedgerCorrupt, LedgerError
from cveledger.network import OrdererConfig
from cveledger.node import Node, NodeConfig

RECORD = {
    "cveID": "CVE-2025-0001",
    "description": "off-by-one in widget",
    "product": "widget",
    "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
    "severity": {"label": "LOW", "cvssScore": 3.0},
    "submitterCNA": "cna.redhat",
}


class TestNodeConfig:
    def test_roundtrip_lossless(self):
        config = NodeConfig(
            orderer=OrdererConfig(max_block_txs=50, tick_seconds=2),
            listen_port=9000,
        )
        assert NodeConfig.from_dict(config.to_dict()) == config
        assert NodeConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


class TestNodeLifecycle:
    def test_memory_state_equals_file_replay_after_mutations(self, tmp_path):
        with Node.init(tmp_path / "d", genesis_time=1000, seed=b"node-test") as node:
            cert = node.issue("cna.redhat", "CNA")
            cert_file = tmp_path / "c.json"
            cert_file.write_text(json.dumps(cert.to_dict()))
            node.onboard("cna.redhat", cert_file)
            node.submit(dict(RECORD), embargo=1800)
            node.tick(now=1800)
            node.reject("CVE-2025-0001", "withdrawn")
            assert node.memory_state_hash() == node.replay_hash()

    def test_reopen_resumes_where_init_left_off(self, tmp_path):
        data_dir = tmp_path / "d"
        with Node.init(data_dir, genesis_time=1000, seed=b"node-test") as node:
            cert = node.issue("cna.redhat", "CNA")
            cert_file = tmp_path / "c.json"
            cert_file.write_text(json.dumps(cert.to_dict()))
            node.onboard("cna.redhat", cert_file)
            first_hash = node.memory_state_hash()
            serial = cert.serial
        with Node.open(data_dir) as node:
            assert node.memory_state_hash() == first_hash
            # CA counter restored: the next serial continues the sequence
            cert2 = node.issue("cna.debian", "CNA")
            assert cert2.serial == serial + 1
            node.submit(dict(RECORD))
            assert node.memory_state_hash() == node.replay_hash()

    def test_replay_hash_checks_every_line_as_replay_does(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        with Node.init(data_dir, genesis_time=1000, seed=b"node-test") as node:
            cert = node.issue("cna.alpha", "CNA")
            cert_file = tmp_path / "c.json"
            cert_file.write_text(json.dumps(cert.to_dict()))
            node.onboard("cna.alpha", cert_file)
            assert node.replay_hash() == node.memory_state_hash()
            # the same block, re-spaced: it decodes to the same content, but
            # it is not the exact line a writer writes
            ledger = data_dir / "ledger.jsonl"
            data = ledger.read_bytes()
            assert data.count(b'"cnaID":"cna.alpha"') == 1
            ledger.write_bytes(data.replace(b'"cnaID":"cna.alpha"', b'"cnaID": "cna.alpha"'))
            with pytest.raises(LedgerCorrupt) as err:
                node.replay_hash()
            assert err.value.height == 1
        assert main(["--data-dir", str(data_dir), "replay"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "LedgerCorrupt"

    def test_second_writer_locked_out(self, tmp_path):
        data_dir = tmp_path / "d"
        with Node.init(data_dir, genesis_time=1000):
            with pytest.raises(LedgerCorrupt):
                Node.open(data_dir)

    def test_open_uninitialized_dir_fails(self, tmp_path):
        with pytest.raises(LedgerError):
            Node.open(tmp_path / "missing")

    def test_init_requires_fresh_dir(self, tmp_path):
        with Node.init(tmp_path / "d", genesis_time=1000):
            pass
        with pytest.raises(LedgerError):
            Node.init(tmp_path / "d")
