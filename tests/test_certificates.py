"""A certificate is signable by construction.

`Certificate` refuses, with MalformedKey, every field that `signing_bytes`
or `cert_hash` cannot encode. So a certificate dict one edit away from an
issued one is either refused while decoding or yields a certificate that
hashes, round-trips and goes through the one CA-signature check. Chaincode
and endorsement then meet only `LedgerError`s, and `cveledger onboard`
keeps a certificate file only once its onboarding block commits.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.chaincode import OP_GENESIS, OP_ONBOARD, ChainClock, WorldState, execute_transaction
from cveledger.cli import main
from cveledger.errors import LedgerError, MalformedKey
from cveledger.identity import ROLE_CNA, Certificate, CertificateAuthority, derive_keypair
from cveledger.ledger import state_hash
from cveledger.network import Refusal, SimulatedNetwork
from cveledger.node import CERTS_DIR, Node

from conftest import GOV, TEST_SEED, make_state

CA = CertificateAuthority(derive_keypair(TEST_SEED, "ca"))
ISSUED = CA.issue_certificate("cna.new", ROLE_CNA, derive_keypair(TEST_SEED, "cna.new").public_hex, issued_at=7)
FIELDS = tuple(ISSUED.to_dict())

_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)


def _hex_variants(value: str) -> st.SearchStrategy:
    return st.sampled_from([value.upper(), value[:-1], value[:-2], value + "0", value + "00", "g" + value[1:], ""])


_REPLACEMENTS = {
    "subject": st.sampled_from(["\ud800", "cna.\udfff", "../x", "../../escaped", "cna", "CNA.NEW", "cna.other"]),
    "role": st.sampled_from(["cna", "ADMIN", "", "GOVERNANCE", "READER"]) | _text,
    "publicKey": _hex_variants(ISSUED.public_key),
    "caSignature": _hex_variants(ISSUED.ca_signature),
    "serial": st.sampled_from([-1, 2**64, 2**64 - 1, 0, True, False, 1.0, 2.5]) | st.integers(),
    "issuedAt": st.sampled_from([-1, 2**64, 2**64 - 1, 0, True, 7.0]) | st.integers(),
}


@st.composite
def near_valid(draw) -> dict:
    """An issued certificate's dict with one field replaced or dropped."""
    obj = ISSUED.to_dict()
    field = draw(st.sampled_from(FIELDS))
    if draw(st.integers(0, 9)) == 0:
        del obj[field]
    else:
        obj[field] = draw(_REPLACEMENTS[field] | _json)
    return obj


def _parsed(obj: dict) -> Certificate | None:
    try:
        return Certificate.from_dict(obj)
    except MalformedKey:
        return None


def _codes(state: WorldState, payload: dict) -> tuple[str | None, str | None]:
    """The LedgerError code (None: accepted) of a dry run, then of the apply.
    Any other exception fails the property. A refusal leaves the state hash
    as it was, and a dry run always does."""
    before = state_hash(state)
    codes = []
    for check_only in (True, False):
        try:
            execute_transaction(state, payload, ChainClock(0), check_only=check_only)
            codes.append(None)
        except LedgerError as exc:
            codes.append(exc.code)
        if check_only or codes[-1] is not None:
            assert state_hash(state) == before
    return codes[0], codes[1]


ONBOARD_STATE = make_state(CA, cnas=())
NETWORK = SimulatedNetwork(seed=TEST_SEED, genesis_time=0)  # its CA is `CA`


@settings(max_examples=300, deadline=None)
@given(near_valid())
def test_a_near_valid_certificate_is_refused_or_signable(obj):
    cert = _parsed(obj)
    if cert is not None:
        cert.signing_bytes()
        assert len(cert.cert_hash()) == 64
        assert cert.to_dict() == obj and Certificate.from_dict(cert.to_dict()) == cert
        assert isinstance(cert.signed_by(CA.public_key), bool)

    cert_hash = (cert or ISSUED).cert_hash()
    onboard = {"cnaID": ISSUED.subject, "certHash": cert_hash, "certificate": obj}
    dry, applied = _codes(ONBOARD_STATE.copy(), {"op": OP_ONBOARD, "args": onboard, "caller": GOV, "clockNow": 0})
    assert dry == applied
    if cert is None:
        assert applied == "MalformedKey"

    genesis = {"caPublicKey": CA.public_key, "governance": {ISSUED.subject: obj}}
    dry, applied = _codes(WorldState(), {"op": OP_GENESIS, "args": genesis, "caller": GOV, "clockNow": 0})
    assert dry == applied

    try:
        tx = NETWORK.build_tx(OP_ONBOARD, onboard, NETWORK.governance_id)
    except UnicodeEncodeError:
        return  # text UTF-8 cannot encode cannot be signed, so no transaction carries it
    outcome = NETWORK.peers[0].endorse(tx, NETWORK.crl)
    assert isinstance(outcome, (Refusal, tuple))


@pytest.mark.parametrize(
    "field,value",
    [("serial", -1), ("serial", 2**64), ("issuedAt", True), ("serial", 1.0), ("publicKey", "zz" * 32),
     ("caSignature", ISSUED.ca_signature.upper()), ("subject", "../../escaped"), ("role", "ADMIN")],
)
def test_the_invariant_refuses_what_signing_bytes_cannot_encode(field, value):
    with pytest.raises(MalformedKey):
        Certificate.from_dict(ISSUED.to_dict() | {field: value})


def test_a_valid_certificate_keeps_its_bytes():
    again = Certificate.from_dict(json.loads(json.dumps(ISSUED.to_dict())))
    assert again == ISSUED
    assert (again.signing_bytes(), again.cert_hash()) == (ISSUED.signing_bytes(), ISSUED.cert_hash())
    assert again.signed_by(CA.public_key) and not again.signed_by(derive_keypair(TEST_SEED, "other").public_hex)


def test_a_refused_issue_uses_up_no_serial():
    ca = CertificateAuthority(derive_keypair(TEST_SEED, "serials"))
    key = derive_keypair(TEST_SEED, "cna.one").public_hex
    with pytest.raises(MalformedKey):
        ca.issue_certificate("cna.one", ROLE_CNA, key.upper())
    assert ca.issue_certificate("cna.one", ROLE_CNA, key).serial == 1


# -- cveledger onboard keeps the certificate only once its block commits -------


def _onboard(capsys, data_dir, cna, cert_file) -> tuple[int, list[str]]:
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), "onboard", cna, str(cert_file)])
    return code, capsys.readouterr().err.strip().splitlines()


def _certs(data_dir) -> dict:
    return {p.name: p.read_bytes() for p in (data_dir / CERTS_DIR).iterdir()}


@pytest.fixture
def data_dir(tmp_path):
    """A data dir with `cna.redhat` issued but not onboarded."""
    d = tmp_path / "node"
    with Node.init(d, genesis_time=1000, seed=b"onboard-commit") as node:
        node.issue("cna.redhat", ROLE_CNA)
    return d


def test_a_certificate_of_another_ca_leaves_certs_untouched(tmp_path, data_dir, capsys):
    with Node.init(tmp_path / "other", genesis_time=1000, seed=b"another-ca") as other:
        evil = other.issue("cna.evil", ROLE_CNA)
    cert_file = tmp_path / "evil.cert.json"
    cert_file.write_text(json.dumps(evil.to_dict()))
    before = _certs(data_dir)
    code, err = _onboard(capsys, data_dir, "cna.evil", cert_file)
    assert code == 1 and len(err) == 1 and json.loads(err[0])["error"] == "BadCertificate"
    assert _certs(data_dir) == before
    with Node.open(data_dir) as node:
        assert "cna.evil" not in node.net.certs
    assert main(["--data-dir", str(data_dir), "issue", "cna.evil", "--out", str(tmp_path / "x.json")]) == 0


@pytest.mark.parametrize(
    "edit", [{"publicKey": "zz" * 32}, {"serial": -1}, {"subject": "../../escaped"}, {"issuedAt": 2**64}]
)
def test_a_malformed_certificate_file_is_refused_before_anything_is_written(tmp_path, data_dir, capsys, edit):
    cert = json.loads((data_dir / CERTS_DIR / "cna.redhat.json").read_text())
    cert_file = tmp_path / "bad.cert.json"
    cert_file.write_text(json.dumps(cert | edit))
    before = _certs(data_dir)
    code, err = _onboard(capsys, data_dir, "cna.redhat", cert_file)
    assert code == 1 and len(err) == 1 and "MalformedKey" in json.loads(err[0])["message"]
    assert _certs(data_dir) == before
    assert not (tmp_path / "escaped.json").exists()


def test_a_committed_onboarding_keeps_the_certificate(tmp_path, data_dir, capsys):
    cert_file = tmp_path / "redhat.cert.json"
    cert_file.write_bytes((data_dir / CERTS_DIR / "cna.redhat.json").read_bytes())
    (data_dir / CERTS_DIR / "cna.redhat.json").unlink()
    code, err = _onboard(capsys, data_dir, "cna.redhat", cert_file)
    assert code == 0 and err == []
    assert (data_dir / CERTS_DIR / "cna.redhat.json").read_bytes() == cert_file.read_bytes()
    with Node.open(data_dir) as node:
        assert "cna.redhat" in node.state.authorized_cnas and "cna.redhat" in node.net.certs
