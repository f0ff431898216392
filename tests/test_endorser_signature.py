"""The endorser's caller-signature check: a transaction whose caller
signature is missing, all zero bytes, or made with another participant's
key is refused `BadCertificate` by every peer through `submit_tx`. Nothing
is queued, so the next tick commits nothing of it and the chain still
audits valid. This check is the only write-time gate on a caller's
signature: peers do not verify it again when they commit."""

from __future__ import annotations

import dataclasses

import pytest

from cveledger.identity import sign_payload
from cveledger.ledger import verify_chain

from test_network import onboarded_network, record_args


def _missing(net, tx) -> str:
    return ""


def _zero_bytes(net, tx) -> str:
    return bytes(64).hex()


def _another_participants_key(net, tx) -> str:
    return sign_payload(net.keys["gov.root"], tx.payload_bytes()).hex()


@pytest.mark.parametrize("signature", [_missing, _zero_bytes, _another_participants_key])
def test_a_bad_caller_signature_is_refused_by_every_peer(signature):
    net = onboarded_network()
    height = len(net.chain)
    signed = net.build_tx("SubmitCVE", record_args(1), "cna.redhat")
    forged = dataclasses.replace(signed, caller_signature=signature(net, signed))
    assert forged.caller_signature != signed.caller_signature

    result = net.submit_tx(forged)

    assert not result.accepted
    assert [refusal.peer_id for refusal in result.refusals] == [peer.peer_id for peer in net.peers]
    assert all(refusal.code == "BadCertificate" for refusal in result.refusals), result.refusals
    assert all("payload signature invalid" in str(refusal.error) for refusal in result.refusals)
    assert net.pending == []
    net.tick(net.clock + 1)
    assert len(net.chain) == height
    assert verify_chain(list(net.chain)).valid
    # the same transaction with its own signature goes through
    assert net.submit_tx(signed).accepted
    net.tick(net.clock + 1)
    assert len(net.chain) == height + 1 and verify_chain(list(net.chain)).valid
