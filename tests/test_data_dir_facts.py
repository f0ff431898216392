"""The data dir keeps each fact once.

`config.json` holds only the settings the node reads: the endorsement
policy and the peer set live in the genesis block, and keys of older files
that copied them are ignored. `keys/ca.json` holds the CA key alone; the
next serial is derived on open from `certs/` and the chain. Revocation is
read off the chain alone, so a `crl.json` left by an older data dir is
ignored. Every data-dir file is replaced by an fsynced rename, so a failed
write leaves the previous file whole, and the files under `keys/` are
readable by their owner only.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from cveledger import node as node_module
from cveledger.chaincode import OP_CHECK_EMBARGO
from cveledger.cli import main
from cveledger.errors import LedgerError, PolicyUnsatisfied
from cveledger.identity import ROLE_CNA
from cveledger.ledger import EndorsementPolicy, append_block
from cveledger.node import CERTS_DIR, CONFIG_FILE, KEYS_DIR, LEDGER_FILE, Node

SEED = b"data-dir-facts"
CA_FILE = f"{KEYS_DIR}/ca.json"
OLD_CRL_FILE = "crl.json"  # the revocation list an older data dir kept
MAJORITY = EndorsementPolicy(rule="MAJORITY_OF", orgs=frozenset({"org0", "org1", "org2"}))
RECORD = {
    "cveID": "CVE-2025-0001",
    "description": "Stack smash in widget",
    "product": "widget",
    "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
    "severity": {"label": "HIGH", "cvssScore": 7.5},
    "submitterCNA": "cna.redhat",
}


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _files(data_dir) -> dict:
    return {str(p.relative_to(data_dir)): p.read_bytes() for p in sorted(data_dir.rglob("*")) if p.is_file()}


# -- (a) what init writes --------------------------------------------------------------


def test_init_writes_only_what_the_node_reads(tmp_path):
    data_dir = tmp_path / "d"
    Node.init(data_dir, genesis_time=1000, seed=SEED, policy=MAJORITY, peer_count=4).close()
    assert set(_json(data_dir / CONFIG_FILE)) == {"caKeyPath", "governanceId", "listenPort", "ordererConfig"}
    assert set(_json(data_dir / CA_FILE)) == {"publicKey", "seedHex"}
    assert not (data_dir / OLD_CRL_FILE).exists()


# -- (b) an older config.json still opens, and the genesis policy rules ---------------------


@pytest.mark.parametrize(
    "stale",
    [
        {
            "endorsementPolicy": {"rule": "ANY_N", "n": 1, "orgs": []},
            "peerCount": 1,
            "identityKeyPath": "keys/gov.root.json",
        },
        {"endorsementPolicy": "ANY_N"},
        {"endorsementPolicy": {"rule": "NOPE", "n": True, "orgs": 5}},
        {"peerCount": "3"},
        {"peerCount": [3]},
        {"identityKeyPath": 5},
        {"identityKeyPath": None},
    ],
    ids=["valid", "policy-str", "policy-fields", "count-str", "count-list", "path-int", "path-null"],
)
def test_a_config_with_dropped_keys_opens_and_the_genesis_policy_holds(tmp_path, stale):
    data_dir = tmp_path / "d"
    Node.init(data_dir, genesis_time=1000, seed=SEED, policy=MAJORITY).close()
    config = _json(data_dir / CONFIG_FILE)
    (data_dir / CONFIG_FILE).write_text(json.dumps({**config, **stale}))
    with Node.open(data_dir) as node:
        assert node.net.trust.policy == MAJORITY
        assert len(node.net.peers) == 3
        tx = node.net.build_tx(OP_CHECK_EMBARGO, {}, node.config.governance_id)
        endorsements = [peer.endorse(tx) for peer in node.net.peers]
        with pytest.raises(PolicyUnsatisfied):
            append_block(node.net.chain, [tx.with_endorsements(endorsements[:1])], node.net.clock, node.net.trust)
        append_block(node.net.chain, [tx.with_endorsements(endorsements[:2])], node.net.clock, node.net.trust)
        out = node.tick()
        [committed] = node.net.chain[-1].txs
        assert out["height"] == 1 and len(committed.endorsements) == 2


# -- (c) the next serial is derived --------------------------------------------------------


def test_a_lost_ca_write_does_not_hand_out_a_serial_twice(tmp_path):
    data_dir = tmp_path / "d"
    Node.init(data_dir, genesis_time=1000, seed=SEED).close()
    ca_before = (data_dir / CA_FILE).read_bytes()
    with Node.open(data_dir) as node:
        alpha = node.issue("cna.alpha", ROLE_CNA)
    assert (data_dir / CA_FILE).read_bytes() == ca_before
    # what a lost ca.json write would leave behind
    (data_dir / CA_FILE).write_bytes(ca_before)
    with Node.open(data_dir) as node:
        beta = node.issue("cna.beta", ROLE_CNA)
    assert beta.serial == alpha.serial + 1


def test_serials_keep_increasing_across_revoke_reissue_and_reopen(tmp_path):
    data_dir = tmp_path / "d"
    with Node.init(data_dir, genesis_time=1000, seed=SEED) as node:
        certs = [node.net.certs[node.config.governance_id]]

    def issue(name):
        with Node.open(data_dir) as node:
            cert = node.issue(name, ROLE_CNA)
        certs.append(cert)
        cert_file = tmp_path / f"{name}.{cert.serial}.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        return cert_file

    def onboard_and_revoke(name, cert_file):
        with Node.open(data_dir) as node:
            node.onboard(name, cert_file)
            node.revoke(name)

    onboard_and_revoke("cna.alpha", issue("cna.alpha"))
    issue("cna.beta")
    onboard_and_revoke("cna.alpha", issue("cna.alpha"))
    issue("cna.gamma")
    assert [cert.serial for cert in certs] == [1, 2, 3, 4, 5]
    with Node.open(data_dir) as node:
        assert {cert.serial for cert in certs if node.state.revoked(cert)} == {2, 4}


# -- (d) revocation is read off the chain ------------------------------------------------------


def _cli(capsys, data_dir, *argv) -> tuple[int, list[str]]:
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), *argv])
    return code, capsys.readouterr().err.strip().splitlines()


def test_a_stale_crl_file_does_not_undo_a_committed_revoke(tmp_path, capsys):
    data_dir = tmp_path / "demo"
    record = tmp_path / "record.json"
    record.write_text(json.dumps(RECORD))
    cert_file = tmp_path / "redhat.cert.json"
    for argv in (
        ["init", "--now", "1000"],
        ["issue", "cna.redhat", "--role", "CNA", "--out", str(cert_file)],
        ["onboard", "cna.redhat", str(cert_file)],
        ["submit", str(record), "--embargo", "1500"],
        ["tick", "--now", "1500"],
    ):
        assert _cli(capsys, data_dir, *argv)[0] == 0, argv
    assert _cli(capsys, data_dir, "revoke", "cna.redhat")[0] == 0
    # the revocation list of an older data dir, listing nothing
    (data_dir / OLD_CRL_FILE).write_text('{"revokedSerials":[],"version":0}\n')
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    code, err = _cli(capsys, data_dir, "status", "CVE-2025-0001", "ARCHIVED", "--as", "cna.redhat")
    assert code == 1 and len(err) == 1 and "revoked" in json.loads(err[0])["message"], err
    assert (data_dir / LEDGER_FILE).read_bytes() == ledger


def test_a_revoked_certificate_stays_refused_and_a_stale_crl_file_revokes_nothing(tmp_path):
    data_dir = tmp_path / "d"
    alpha_file, beta_file = tmp_path / "alpha.cert.json", tmp_path / "beta.cert.json"
    with Node.init(data_dir, genesis_time=1000, seed=SEED) as node:
        alpha = node.issue("cna.alpha", ROLE_CNA)
        alpha_file.write_text(json.dumps(alpha.to_dict()))
        node.onboard("cna.alpha", alpha_file)
        node.revoke("cna.alpha")
        beta = node.issue("cna.beta", ROLE_CNA)
        beta_file.write_text(json.dumps(beta.to_dict()))
        node.onboard("cna.beta", beta_file)
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    with Node.open(data_dir) as node:
        assert [node.state.revoked(cert) for cert in (alpha, beta)] == [True, False]
        # a revoked certificate cannot onboard its CNA again
        refused = node.net.onboard("cna.alpha", alpha, node.config.governance_id)
        assert not refused.accepted and {r.code for r in refused.refusals} == {"Revoked"}
        with pytest.raises(LedgerError, match=f"certificate serial {alpha.serial} revoked"):
            node.onboard("cna.alpha", alpha_file)
        assert "cna.alpha" not in node.state.authorized_cnas
    assert (data_dir / LEDGER_FILE).read_bytes() == ledger
    # a crl.json of an older data dir that lists an authorized CNA's serial
    (data_dir / OLD_CRL_FILE).write_text(json.dumps({"version": 2, "revokedSerials": [alpha.serial, beta.serial]}))
    with Node.open(data_dir) as node:
        assert not node.state.revoked(beta)
        node.submit(dict(RECORD, submitterCNA="cna.beta"))
        out = node.revoke("cna.beta")
    assert set(out) == {"blocks", "crlVersion", "height", "txId"} and out["crlVersion"] == 2


def test_a_superseded_revoked_certificate_is_refused_across_a_fresh_open(tmp_path, capsys):
    data_dir = tmp_path / "d"
    assert _cli(capsys, data_dir, "init", "--now", "1000")[0] == 0
    cert_files = [tmp_path / "a.1.cert.json", tmp_path / "a.2.cert.json"]
    for cert_file in cert_files:
        for argv in (
            ["issue", "cna.a", "--out", str(cert_file)],
            ["onboard", "cna.a", str(cert_file)],
            ["revoke", "cna.a"],
        ):
            assert _cli(capsys, data_dir, *argv)[0] == 0, argv
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    refusal = {"error": "Revoked", "message": "certificate serial 2 revoked"}
    for fresh in ("from the checkpoint", "again", "from genesis"):
        if fresh == "from genesis":
            (data_dir / f"{LEDGER_FILE}.state").unlink()
        code, err = _cli(capsys, data_dir, "onboard", "cna.a", str(cert_files[0]))
        assert (code, [json.loads(line) for line in err]) == (1, [refusal]), fresh
        assert (data_dir / LEDGER_FILE).read_bytes() == ledger, fresh


# -- (e) a failed write leaves the previous file -------------------------------------------


@pytest.fixture
def onboarded_dir(tmp_path):
    data_dir = tmp_path / "d"
    with Node.init(data_dir, genesis_time=1000, seed=SEED) as node:
        cert = node.issue("cna.alpha", ROLE_CNA)
        cert_file = tmp_path / "alpha.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.alpha", cert_file)
    return data_dir


def _refuse_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)


def test_revoke_writes_only_the_ledger_and_its_checkpoint(onboarded_dir):
    before = _files(onboarded_dir)
    with Node.open(onboarded_dir) as node:
        assert node.revoke("cna.alpha")["crlVersion"] == 1
    after = _files(onboarded_dir)
    for name in (LEDGER_FILE, f"{LEDGER_FILE}.state"):
        assert after.pop(name) != before.pop(name)
    assert after == before


@pytest.mark.parametrize(
    "name", [CONFIG_FILE, CA_FILE, f"{KEYS_DIR}/gov.root.json", f"{CERTS_DIR}/gov.root.json"]
)
def test_a_failed_write_leaves_every_data_dir_file_whole(onboarded_dir, monkeypatch, name):
    before = _files(onboarded_dir)
    _refuse_replace(monkeypatch)
    with pytest.raises(OSError, match="replace refused"):
        node_module._write_json(onboarded_dir / name, {"replaced": True})
    assert _files(onboarded_dir) == before


def test_key_files_are_owner_only_whatever_the_umask(tmp_path, capsys):
    data_dir = tmp_path / "d"
    old = os.umask(0o022)
    try:
        assert main(["--data-dir", str(data_dir), "init", "--now", "1000"]) == 0
        out = tmp_path / "redhat.cert.json"
        assert main(["--data-dir", str(data_dir), "issue", "cna.redhat", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in (data_dir / KEYS_DIR).iterdir()}
    assert {"ca.json", "gov.root.json", "cna.redhat.json"} <= set(modes)
    assert set(modes.values()) == {0o600}, modes


def test_a_write_replaces_the_file_whole(onboarded_dir):
    before = _files(onboarded_dir)
    node_module._write_json(onboarded_dir / CONFIG_FILE, {"listenPort": 9000})
    after = _files(onboarded_dir)
    assert after.pop(CONFIG_FILE) == b'{"listenPort":9000}\n'
    before.pop(CONFIG_FILE)
    assert after == before
