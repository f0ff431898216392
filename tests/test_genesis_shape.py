"""The audit's genesis shape: a height-0 block is the trust anchor only
when it holds exactly the one unsigned genesis transaction. A height-0
block whose hashes recompute but that holds another transaction beside
the genesis one, or only a non-genesis one, is reported SIGNATURE_INVALID
at height 0."""

from __future__ import annotations

import pytest

from cveledger.canonical import ZERO_HASH
from cveledger.ledger import SIGNATURE_INVALID, AuditReport, Block, ChainAuditor, block_line
from cveledger.network import SimulatedNetwork

from test_network import record_args


@pytest.fixture(scope="module")
def parts():
    """The genesis transaction of a network and a signed onboarding of one CNA."""
    net = SimulatedNetwork(genesis_time=1000, seed=b"genesis-shape")
    cert = net.issue_identity("cna.redhat")
    onboard = net.build_tx(
        "OnboardCNA", {"cnaID": "cna.redhat", "certHash": cert.cert_hash(), "certificate": cert.to_dict()}, "gov.root"
    )
    return net.chain[0].txs[0], onboard


def test_the_genesis_transaction_alone_is_a_valid_genesis(parts):
    genesis_tx, _ = parts
    assert ChainAuditor().audit_bytes(block_line(Block.build(0, ZERO_HASH, 1000, [genesis_tx]))).valid


@pytest.mark.parametrize("shape", ["genesis plus another", "another alone"])
def test_a_genesis_of_another_shape_is_signature_invalid(parts, shape):
    genesis_tx, onboard = parts
    txs = [genesis_tx, onboard] if shape == "genesis plus another" else [onboard]
    block = Block.build(0, ZERO_HASH, 1000, txs)
    report = ChainAuditor().audit_bytes(block_line(block))
    assert report == AuditReport(valid=False, first_bad_height=0, reason=SIGNATURE_INVALID)


def test_a_genesis_that_is_a_submission_is_signature_invalid():
    net = SimulatedNetwork(genesis_time=1000, seed=b"genesis-shape")
    submission = net.build_tx("SubmitCVE", record_args(1, submitter="gov.root"), "gov.root")
    report = ChainAuditor().audit_bytes(block_line(Block.build(0, ZERO_HASH, 1000, [submission])))
    assert report == AuditReport(valid=False, first_bad_height=0, reason=SIGNATURE_INVALID)
