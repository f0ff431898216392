"""Participant credentials: issuance and verification.

A deterministic signed-certificate scheme stands in for a full PKI stack.
The network CA binds participant id -> verification key -> role; which
certificates are revoked is read off the chain (`WorldState.revoked`), not
kept here. Ed25519 signatures (RFC 8032)
are deterministic, so the same key and payload always produce the same
bytes and ledger replay stays bit-stable.

Certificates are canonically serialized as length-prefixed fields in a
fixed order; no ASN.1 involved.
"""

from __future__ import annotations

import re
import secrets
import struct
import threading
import time
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import U64, bounded, is_hex_digest, kept, kept_slots, sha256_hex
from .canonical import to_canonical_json  # noqa: F401  (perfbench patches it here)
from .errors import InvalidParticipantId, MalformedKey

_PARTICIPANT_RE = re.compile(r"[a-z0-9]+(\.[a-z0-9-]+)+")

ROLE_CNA = "CNA"
ROLE_GOVERNANCE = "GOVERNANCE"
ROLE_READER = "READER"
ROLES = (ROLE_CNA, ROLE_GOVERNANCE, ROLE_READER)

BAD_SIGNATURE = "BadSignature"


def is_valid_participant_id(name: object) -> bool:
    return isinstance(name, str) and _PARTICIPANT_RE.fullmatch(name) is not None


def require_participant_id(name: str) -> str:
    if not is_valid_participant_id(name):
        raise InvalidParticipantId(f"bad participant id: {name!r}")
    return name


@dataclass(frozen=True, slots=True)
class KeyPair(kept_slots("_private_key")):
    """Ed25519 keypair; the seed is the 32-byte private key, hex encoded."""

    seed_hex: str
    public_hex: str

    @classmethod
    def generate(cls, seed: bytes | None = None) -> "KeyPair":
        seed = secrets.token_bytes(32) if seed is None else seed
        if len(seed) != 32:
            raise MalformedKey("seed must be exactly 32 bytes")
        priv = Ed25519PrivateKey.from_private_bytes(seed)
        pub = priv.public_key().public_bytes_raw()
        return cls(seed_hex=seed.hex(), public_hex=pub.hex())

    @classmethod
    def from_seed_hex(cls, seed_hex: str) -> "KeyPair":
        return cls.generate(bytes.fromhex(seed_hex))

    def private_key(self) -> Ed25519PrivateKey:
        """The signing key, built once per key pair (a build costs about a
        signature) and kept as a non-field attribute, which equality ignores."""
        return kept(self, "_private_key", lambda k: Ed25519PrivateKey.from_private_bytes(bytes.fromhex(k.seed_hex)))


def derive_keypair(seed: bytes, label: str) -> KeyPair:
    """Deterministic per-label keypair for scripted networks and benchmarks."""
    import hashlib

    return KeyPair.generate(hashlib.sha256(seed + b"/" + label.encode("utf-8")).digest())


def sign_payload(key: KeyPair, payload: bytes) -> bytes:
    return key.private_key().sign(payload)


def verify_payload(public_hex: str, payload: bytes, sig: bytes) -> bool:
    if not is_hex_digest(public_hex, 64):
        return False
    try:
        Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_hex)).verify(sig, payload)
        return True
    except (InvalidSignature, ValueError):
        return False


def _lp(chunk: bytes) -> bytes:
    return struct.pack(">I", len(chunk)) + chunk


def _u64(value: int) -> bytes:
    """MalformedKey unless `value` is a `U64`, so a certificate that could
    not be encoded is refused before it is signed."""
    return struct.pack(">Q", bounded(value, U64, lambda n: MalformedKey(f"{n!r} is not an integer in [0, 2**64)")))


def _signing_bytes(subject: str, role: str, public_key: str, serial: int, issued_at: int) -> bytes:
    """Length-prefixed (subject, role, publicKey, serial, issuedAt)."""
    return b"".join(
        (
            _lp(subject.encode("utf-8")),
            _lp(role.encode("utf-8")),
            _lp(bytes.fromhex(public_key)),
            _lp(_u64(serial)),
            _lp(_u64(issued_at)),
        )
    )


@dataclass(frozen=True)
class Certificate:
    """Construction raises MalformedKey for any field that `signing_bytes`
    or `cert_hash` could not encode, so every certificate is signable."""

    subject: str  # a valid participant id
    role: str  # one of ROLES
    public_key: str  # 64 lowercase hex chars (32-byte Ed25519 key)
    serial: int  # in [0, 2**64)
    issued_at: int  # in [0, 2**64)
    ca_signature: str  # 128 lowercase hex chars, over signing_bytes()

    def __post_init__(self) -> None:
        if not is_valid_participant_id(self.subject):
            raise MalformedKey(f"bad certificate subject: {self.subject!r}")
        if self.role not in ROLES:
            raise MalformedKey(f"unknown role: {self.role!r}")
        if not is_hex_digest(self.public_key, 64) or not is_hex_digest(self.ca_signature, 128):
            raise MalformedKey("publicKey and caSignature must be 64 and 128 lowercase hex chars")
        for n in (self.serial, self.issued_at):
            bounded(n, U64, lambda n: MalformedKey("serial and issuedAt must be integers in [0, 2**64)"))

    def signing_bytes(self) -> bytes:
        return _signing_bytes(self.subject, self.role, self.public_key, self.serial, self.issued_at)

    def signed_by(self, ca_public_key: str) -> bool:
        """Whether the CA key signed `signing_bytes()`: the one CA-signature check."""
        return verify_payload(ca_public_key, self.signing_bytes(), bytes.fromhex(self.ca_signature))

    def cert_hash(self) -> str:
        """Fingerprint over the full certificate, signature included."""
        return sha256_hex(self.signing_bytes() + _lp(bytes.fromhex(self.ca_signature)))

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "role": self.role,
            "publicKey": self.public_key,
            "serial": self.serial,
            "issuedAt": self.issued_at,
            "caSignature": self.ca_signature,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Certificate":
        try:
            return cls(
                subject=obj["subject"],
                role=obj["role"],
                public_key=obj["publicKey"],
                serial=obj["serial"],
                issued_at=obj["issuedAt"],
                ca_signature=obj["caSignature"],
            )
        except (KeyError, TypeError) as exc:
            raise MalformedKey(f"bad certificate object: {exc!r}") from None


def verify_certificate(cert: Certificate, ca_public_key: str) -> tuple[bool, str | None]:
    """(True, None) iff the CA signature holds, else (False, BadSignature).
    Never raises."""
    if not cert.signed_by(ca_public_key):
        return False, BAD_SIGNATURE
    return True, None


class CertificateAuthority:
    """Single trust root for one network.

    The issuance counter is its only state and is guarded by a lock; it
    keeps no certificate. Which subjects may be issued a certificate again
    is the network's rule (`SimulatedNetwork.issue`), read off the chain.
    """

    def __init__(self, key: KeyPair, *, next_serial: int = 1):
        self.key = key
        self._lock = threading.Lock()
        self._next_serial = next_serial

    @property
    def next_serial(self) -> int:
        return self._next_serial

    @property
    def public_key(self) -> str:
        return self.key.public_hex

    def issue_certificate(
        self, subject: str, role: str, public_key: str, issued_at: int | None = None
    ) -> Certificate:
        require_participant_id(subject)
        if role not in ROLES:
            raise MalformedKey(f"unknown role: {role!r}")
        try:
            Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_key))
        except (TypeError, ValueError) as exc:
            raise MalformedKey(f"bad public key: {exc}")
        with self._lock:
            # the serial is used up only once the certificate invariant holds
            stamp = int(time.time()) if issued_at is None else int(issued_at)
            fields = (subject, role, public_key, self._next_serial, stamp)
            cert = Certificate(*fields, ca_signature=sign_payload(self.key, _signing_bytes(*fields)).hex())
            self._next_serial += 1
            return cert
