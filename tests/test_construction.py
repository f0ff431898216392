"""How a consortium is built and how onboard, submit and revoke become
transactions: the Node path's bytes are pinned, and who may sign is checked
for each way a network is built.

The pins below were computed from a separate checkout of the code before
the genesis and transaction builders were shared between `SimulatedNetwork`,
`Node` and the scenario driver.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from cveledger.errors import BadCertificate
from cveledger.identity import ROLE_CNA, derive_keypair
from cveledger.network import SimulatedNetwork, run_scenario
from cveledger.node import Node

SEED = b"node-path-pin"
RECORD = {
    "cveID": "CVE-2025-0001",
    "description": "off-by-one in widget",
    "product": "widget",
    "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
    "severity": {"label": "LOW", "cvssScore": 3.0},
    "submitterCNA": "cna.redhat",
}

GENESIS_HASH = "9e11826208efc6ae328e7bc5aad82175339ad4a39a148c490106d1098e598d56"
STATE_HASH = "f2d0ca4f2c9dc7edf424b1783ace1f6d2ce9d50f93c69efa72f0b1db36ffc296"
LEDGER_SHA256 = "c4b595ef703490a4bccb926510750925b55e500f28d73252dc2099a8fdd36020"
CRL_BYTES = b'{"revokedSerials":[2],"version":1}\n'
OUTPUTS = [
    {
        "blocks": ["23130d86d92af24bd6d3fde23cb058add415ee409a17b6a24ea52f6a57aacd45"],
        "height": 1,
        "txId": "47b7fcdc762573ea96cc4ab8b0079aecb106976b37c315ef53548444cf534eb3",
    },
    {
        "blocks": ["a0fa08b46df1d2cfee7359cf3566989a8f83f8111fa673f0f89a342ef8b2aa47"],
        "cveID": "CVE-2025-0001",
        "height": 2,
        "status": "DRAFT",
        "txId": "3a43d9ecc45fd56ee6caadec311a70de74b562635f25f55ff24b6fa875e86360",
    },
    {
        "blocks": ["ca54c8708911041021a3aad27ed7bb8dd71f20a1af8a169fac33924a1e83a4b0"],
        "clockNow": 1500,
        "height": 3,
        "released": ["CVE-2025-0001"],
        "txId": "a084aa73bb74c681939a87702b7e2d06021177a8863a474807cc97a210ab2bfe",
    },
    {
        "blocks": ["4d2999c63ba08101b297239b4ae3336b0c7ee0d87dd9338c68c8a81bdc9869e1"],
        "crlVersion": 1,
        "height": 4,
        "txId": "3295e4f23c807123718972d6ae9808e25adb03ec7fe54432a4e4e3f4050dcf66",
    },
]


def test_node_path_bytes_unchanged(tmp_path):
    data_dir = tmp_path / "d"
    with Node.init(data_dir, genesis_time=1000, seed=SEED) as node:
        # `Node.issue` draws a random key; a derived one keeps the bytes fixed
        key = derive_keypair(SEED, "cna.redhat")
        cert = node.net.ca.issue_certificate("cna.redhat", ROLE_CNA, key.public_hex, issued_at=1000)
        node.net.keys["cna.redhat"] = key
        cert_file = tmp_path / "redhat.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        outputs = [
            node.onboard("cna.redhat", cert_file),
            node.submit(dict(RECORD), embargo=1500, salt="5a" * 16),
            node.tick(now=1500),
            node.revoke("cna.redhat"),
        ]
        assert node.net.chain[0].block_hash == GENESIS_HASH
        assert node.memory_state_hash() == STATE_HASH
        assert node.replay_hash() == STATE_HASH
    assert outputs == OUTPUTS
    assert (data_dir / "crl.json").read_bytes() == CRL_BYTES
    assert hashlib.sha256((data_dir / "ledger.jsonl").read_bytes()).hexdigest() == LEDGER_SHA256


def test_scenario_peer_caller_has_no_signing_key():
    with pytest.raises(BadCertificate):
        run_scenario([{"atTick": 0, "action": "embargo-tick", "args": {"caller": "peer0.org0"}}])


def test_network_keys_per_construction_path(tmp_path):
    net = SimulatedNetwork(genesis_time=1000)
    assert set(net.keys) == {net.governance_id}
    assert [p.peer_id for p in net.peers] == ["peer0.org0", "peer1.org1", "peer2.org2"]
    with Node.init(tmp_path / "d", genesis_time=1000, seed=SEED) as node:
        assert set(node.net.keys) == {node.net.governance_id, "peer0.org0", "peer1.org1", "peer2.org2"}
    with Node.open(tmp_path / "d") as node:
        assert set(node.net.keys) == {node.net.governance_id, "peer0.org0", "peer1.org1", "peer2.org2"}
