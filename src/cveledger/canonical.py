"""Canonical JSON serialization and hashing.

Every byte that feeds a hash (transaction payloads, block headers, state
snapshots) is produced here, so digests are reproducible across replays,
peers, and process restarts.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Callable

ZERO_HASH = "0" * 64

# explicit ASCII class: `\d` would also match non-ASCII digits
_HEX_FULLMATCH = re.compile(r"[0-9a-f]*").fullmatch


# built once: `json.dumps` with these options builds an encoder per call,
# which costs more than encoding a small object
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def to_canonical_json(obj: Any) -> str:
    """Serialize with lexicographically sorted keys and no whitespace. What
    JSON cannot write (a NaN, an infinity, nesting too deep) raises ValueError."""
    try:
        return _ENCODER.encode(obj)
    except RecursionError:
        raise ValueError("JSON nesting too deep") from None


def to_canonical_bytes(obj: Any) -> bytes:
    return to_canonical_json(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_obj(obj: Any) -> str:
    """SHA-256 of the canonical serialization, lowercase hex."""
    return sha256_hex(to_canonical_bytes(obj))


def kept(obj, key: str, compute: Callable):
    """`compute(obj)`, computed on the first call and kept as the attribute
    `key` (a name no field has) of the frozen `obj`, set the way a frozen
    dataclass's own `__init__` sets its fields. Records, events,
    transactions and key pairs are frozen, every change builds a new object,
    and nothing mutates a transaction's payload dict, so a kept value never
    goes stale. Handler threads may race on a first call: each computes the
    same value, and either write wins."""
    value = getattr(obj, key, None)
    if value is None:
        value = compute(obj)
        object.__setattr__(obj, key, value)
    return value


def typed(value: Any, kind, name: str) -> Any:
    """`value` if it is an instance of `kind` (a type or tuple of types) and
    not a bool, else a ValueError naming the field. Decoders read every JSON
    int, str, list and dict field through this, so nothing decoded is
    coerced; each decode boundary turns a ValueError into its refusal."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} may not be a {type(value).__name__}")
    return value


def is_hex_digest(value: Any, length: int = 64) -> bool:
    """True only for lowercase hex of exactly the given length.

    Case matters: "AB" and "ab" decode to the same bytes, so accepting
    mixed case would let single-bit mutations of on-ledger hex slip past
    byte-level integrity checks.
    """
    return (
        isinstance(value, str)
        and len(value) == length
        and _HEX_FULLMATCH(value) is not None
    )
