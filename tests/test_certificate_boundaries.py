"""What a certificate needs before it is signed, and what endorsement may
rely on once one is in the state.

A stamp or serial that the certificate encoding cannot hold is refused with
`MalformedKey` before signing, so no serial is used up and `init` exits with
one error line instead of a traceback. Endorsement does not re-check a CA
signature: genesis and onboarding, the only ways into
`WorldState.certificates`, both check it against the genesis CA key.
"""

from __future__ import annotations

import json

import pytest

from cveledger.cli import main
from cveledger.errors import MalformedKey
from cveledger.identity import CertificateAuthority, derive_keypair
from cveledger.network import drive_scenario

from conftest import TEST_SEED


@pytest.mark.parametrize("issued_at", [-1, 2**64])
def test_a_stamp_outside_u64_is_refused_before_a_serial_is_used(issued_at):
    ca = CertificateAuthority(derive_keypair(TEST_SEED, "ca"))
    key = derive_keypair(TEST_SEED, "cna.redhat").public_hex
    with pytest.raises(MalformedKey):
        ca.issue_certificate("cna.redhat", "CNA", key, issued_at=issued_at)
    assert ca.next_serial == 1
    assert ca.issue_certificate("cna.redhat", "CNA", key, issued_at=0).serial == 1


def test_init_with_a_negative_genesis_time_fails_with_one_line_and_frees_the_dir(tmp_path, capsys):
    data_dir = str(tmp_path / "node")
    capsys.readouterr()
    assert main(["--data-dir", data_dir, "init", "--now", "-5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "MalformedKey", err
    assert main(["--data-dir", data_dir, "init", "--now", "5"]) == 0


def test_every_certificate_in_a_peer_state_is_signed_by_its_ca_key():
    def submit(seq, cna):
        record = {
            "cveID": f"CVE-2025-{seq:04d}",
            "description": f"flaw {seq}",
            "product": "widget",
            "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
            "severity": {"label": "LOW", "cvssScore": 2.0},
            "submitterCNA": cna,
        }
        return {"atTick": 2, "action": "submit", "args": {"record": record}}

    cnas = ["cna.redhat", "cna.debian", "cna.suse"]
    actions = [{"atTick": 1, "action": "onboard", "args": {"cna": cna}} for cna in cnas]
    actions += [submit(seq, cna) for seq, cna in enumerate(cnas, 1)]
    actions += [
        {"atTick": 3, "action": "revoke", "args": {"cna": "cna.debian"}},
        {"atTick": 4, "action": "onboard", "args": {"cna": "cna.debian"}},
    ]
    net, log, _ = drive_scenario({"seed": "33" * 16, "genesisTime": 100, "actions": actions})
    assert all(entry["ok"] for entry in log)
    for peer in net.peers:
        certificates = peer.state.certificates
        assert set(certificates) == {net.governance_id, *cnas}
        assert all(cert.signed_by(peer.state.ca_public_key) for cert in certificates.values())
