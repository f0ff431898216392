"""`GET /v1/blocks/{h}` serves a submission whose `args.record` is not an
object as it is.

Such a transaction fails at commit, so no record exists and nothing is
withheld; the route used to answer 500 for it.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from cveledger.canonical import to_canonical_bytes
from cveledger.chaincode import OP_SUBMIT
from cveledger.httpapi import serve_in_thread
from cveledger.identity import sign_payload
from cveledger.ledger import Block, replay
from cveledger.network import SimulatedNetwork


@pytest.mark.parametrize("record", [5, None, [], "x"], ids=repr)
def test_a_submission_whose_record_is_not_an_object_is_served_as_is(tmp_path, record):
    net = SimulatedNetwork(seed=b"block-route", genesis_time=1000)
    net.onboard("cna.redhat", net.issue_identity("cna.redhat"), net.governance_id)
    net.tick(1001)
    tx = net.build_tx(OP_SUBMIT, {"record": record}, "cna.redhat")
    peer = net.peers[0]
    tx = tx.with_endorsements([(peer.peer_id, sign_payload(peer.key, tx.payload_bytes()).hex())])
    chain = net.chain + [Block.build(2, net.chain[-1].block_hash, 1002, [tx])]
    state = replay(chain)
    assert [failure["txId"] for failure in state.failed_txs] == [tx.tx_id]
    server, port = serve_in_thread(state, chain, ledger_path=tmp_path / "ledger.jsonl")
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/blocks/2") as resp:
            assert resp.status == 200
            body = resp.read()
    finally:
        server.shutdown()
        server.server_close()
    assert body == to_canonical_bytes(chain[2].to_dict())
    assert json.loads(body)["txs"][0]["payload"]["args"]["record"] == record
