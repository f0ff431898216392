from __future__ import annotations

import dataclasses
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.errors import DuplicateSubject, InvalidParticipantId, MalformedKey
from cveledger.identity import (
    BAD_SIGNATURE,
    Certificate,
    CertificateAuthority,
    KeyPair,
    REVOKED,
    RevocationList,
    ROLE_CNA,
    derive_keypair,
    is_valid_participant_id,
    revoke_certificate,
    sign_payload,
    verify_certificate,
    verify_payload,
)
from cveledger.node import _key_file

from conftest import TEST_SEED


def fresh_ca(label="ca") -> CertificateAuthority:
    return CertificateAuthority(derive_keypair(TEST_SEED, label))


def subject_key(name: str) -> KeyPair:
    return derive_keypair(TEST_SEED, name)


class TestParticipantIds:
    @pytest.mark.parametrize("name", ["cna.redhat", "gov.board1", "a.b-c.d0", "x0.y"])
    def test_valid(self, name):
        assert is_valid_participant_id(name)

    @pytest.mark.parametrize(
        "name", ["", "redhat", "CNA.redhat", ".redhat", "cna.", "cna..x", "cna.Red", "-a.b", 7]
    )
    def test_invalid(self, name):
        assert not is_valid_participant_id(name)


class TestIssuance:
    def test_first_issuance_gets_serial_one(self):
        ca = fresh_ca()
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        assert cert.serial == 1

    def test_serials_increment(self):
        ca = fresh_ca()
        ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        second = ca.issue_certificate("cna.debian", ROLE_CNA, subject_key("cna.debian").public_hex)
        assert second.serial == 2

    def test_duplicate_subject_refused(self):
        ca = fresh_ca()
        key = subject_key("cna.redhat").public_hex
        ca.issue_certificate("cna.redhat", ROLE_CNA, key)
        with pytest.raises(DuplicateSubject):
            ca.issue_certificate("cna.redhat", ROLE_CNA, key)

    def test_reissue_allowed_after_revocation(self):
        ca = fresh_ca()
        key = subject_key("cna.redhat").public_hex
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, key)
        ca.revoke(cert.serial)
        cert2 = ca.issue_certificate("cna.redhat", ROLE_CNA, key)
        assert cert2.serial == cert.serial + 1

    def test_malformed_key_refused(self):
        ca = fresh_ca()
        with pytest.raises(MalformedKey):
            ca.issue_certificate("cna.redhat", ROLE_CNA, "zz" * 32)
        with pytest.raises(MalformedKey):
            ca.issue_certificate("cna.redhat", ROLE_CNA, "ab" * 8)

    def test_bad_subject_refused(self):
        ca = fresh_ca()
        with pytest.raises(InvalidParticipantId):
            ca.issue_certificate("NotValid", ROLE_CNA, subject_key("x.y").public_hex)

    def test_cert_json_roundtrip(self):
        ca = fresh_ca()
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        again = Certificate.from_dict(cert.to_dict())
        assert again == cert
        assert again.cert_hash() == cert.cert_hash()


class TestVerification:
    def test_fresh_cert_empty_crl_verifies(self):
        ca = fresh_ca()
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        assert verify_certificate(cert, RevocationList(), ca.public_key) == (True, None)

    def test_every_issued_cert_verifies_under_its_ca(self):
        ca = fresh_ca()
        subjects = [("cna.one", "CNA"), ("gov.board1", "GOVERNANCE"), ("reader.pub", "READER")]
        for name, role in subjects:
            cert = ca.issue_certificate(name, role, subject_key(name).public_hex)
            assert verify_certificate(cert, RevocationList(), ca.public_key) == (True, None)

    def test_any_signature_byte_flip_fails(self):
        # flip bits in every byte of a valid CA signature; all must fail
        ca = fresh_ca()
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        sig = bytearray(bytes.fromhex(cert.ca_signature))
        for pos in range(len(sig)):
            for mask in (0x01, 0x80, 0xFF):
                mutated = bytearray(sig)
                mutated[pos] ^= mask
                bad = Certificate(
                    subject=cert.subject,
                    role=cert.role,
                    public_key=cert.public_key,
                    serial=cert.serial,
                    issued_at=cert.issued_at,
                    ca_signature=bytes(mutated).hex(),
                )
                ok, reason = verify_certificate(bad, RevocationList(), ca.public_key)
                assert (ok, reason) == (False, BAD_SIGNATURE), f"byte {pos} mask {mask:#x} slipped by"

    def test_revoked_serial_fails_with_reason(self):
        ca = fresh_ca()
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        crl = revoke_certificate(RevocationList(), cert.serial)
        assert verify_certificate(cert, crl, ca.public_key) == (False, REVOKED)

    def test_no_cross_ca_verification(self):
        ca1, ca2 = fresh_ca("ca1"), fresh_ca("ca2")
        cert = ca1.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        ok, reason = verify_certificate(cert, RevocationList(), ca2.public_key)
        assert (ok, reason) == (False, BAD_SIGNATURE)

    def test_revocation_is_monotone(self):
        ca = fresh_ca()
        cert = ca.issue_certificate("cna.redhat", ROLE_CNA, subject_key("cna.redhat").public_hex)
        crl = RevocationList()
        crl = revoke_certificate(crl, cert.serial)
        for serial in (7, 9, 100):
            crl = revoke_certificate(crl, serial)
            ok, reason = verify_certificate(cert, crl, ca.public_key)
            assert (ok, reason) == (False, REVOKED)


class TestRevocationList:
    def test_revoke_adds_and_bumps_version(self):
        crl = revoke_certificate(RevocationList(), 5)
        assert crl.revoked_serials == {5}
        assert crl.version == 1

    def test_re_revocation_is_noop(self):
        crl = revoke_certificate(RevocationList(), 5)
        again = revoke_certificate(crl, 5)
        assert again is crl
        assert again.version == 1

    def test_two_revocations(self):
        crl = revoke_certificate(revoke_certificate(RevocationList(), 5), 9)
        assert crl.revoked_serials == {5, 9}
        assert crl.version == 2

    def test_serialization_roundtrip(self):
        crl = revoke_certificate(revoke_certificate(RevocationList(), 5), 9)
        assert RevocationList.from_dict(crl.to_dict()) == crl


class TestSignatures:
    def test_roundtrip(self):
        key = subject_key("signer.one")
        sig = sign_payload(key, b"hello ledger")
        assert verify_payload(key.public_hex, b"hello ledger", sig)

    def test_wrong_key_fails(self):
        k1, k2 = subject_key("signer.one"), subject_key("signer.two")
        sig = sign_payload(k1, b"hello ledger")
        assert not verify_payload(k2.public_hex, b"hello ledger", sig)

    def test_signatures_are_deterministic(self):
        key = subject_key("signer.one")
        assert sign_payload(key, b"same payload") == sign_payload(key, b"same payload")

    def test_exhaustive_single_byte_mutations_fail(self):
        # every single-byte mutation of a 16-byte payload must break verification
        key = subject_key("signer.one")
        payload = bytes(range(16))
        sig = sign_payload(key, payload)
        for pos in range(16):
            for value in range(256):
                if value == payload[pos]:
                    continue
                mutated = bytearray(payload)
                mutated[pos] = value
                assert not verify_payload(key.public_hex, bytes(mutated), sig)

    def test_thousand_random_payloads_up_to_1mib(self):
        rng = random.Random(0xC0FFEE)
        key = subject_key("signer.bulk")
        sizes = [rng.randrange(0, 4096) for _ in range(900)]
        sizes += [rng.randrange(4096, 2**20) for _ in range(99)]
        sizes.append(2**20)
        assert len(sizes) >= 1000
        for size in sizes:
            payload = rng.randbytes(size)
            assert verify_payload(key.public_hex, payload, sign_payload(key, payload))

    def test_a_kept_signing_key_signs_as_a_fresh_one_and_stays_out_of_the_fields(self):
        key = subject_key("signer.kept")
        twin = KeyPair(seed_hex=key.seed_hex, public_hex=key.public_hex)  # nothing kept yet
        payloads = [b"", b"payload", bytes(range(256)) * 8]
        fresh = [Ed25519PrivateKey.from_private_bytes(bytes.fromhex(key.seed_hex)).sign(p) for p in payloads]
        assert [sign_payload(key, p) for p in payloads] == [sign_payload(twin, p) for p in payloads] == fresh
        assert key.private_key() is key.private_key()
        assert key == twin and hash(key) == hash(twin)
        assert dataclasses.asdict(key) == dataclasses.asdict(twin) == {
            "seed_hex": key.seed_hex, "public_hex": key.public_hex,
        }
        assert _key_file(key) == _key_file(twin) == {"seedHex": key.seed_hex, "publicKey": key.public_hex}

    @settings(max_examples=200, deadline=None)
    @given(payload=st.binary(max_size=8192))
    def test_roundtrip_property(self, payload):
        key = subject_key("signer.prop")
        assert verify_payload(key.public_hex, payload, sign_payload(key, payload))

    @settings(max_examples=100, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=512), flip=st.integers(min_value=1, max_value=255))
    def test_mutated_payload_fails_property(self, payload, flip):
        key = subject_key("signer.prop")
        sig = sign_payload(key, payload)
        mutated = bytearray(payload)
        mutated[0] ^= flip
        assert not verify_payload(key.public_hex, bytes(mutated), sig)
