"""Canonical JSON serialization, decoding and hashing.

Every byte that feeds a hash (transaction payloads, block headers, state
snapshots) is produced here, so digests are reproducible across replays,
peers, and process restarts; every JSON byte read from outside is decoded
here too, by one rule (`parse_json`).

Every integer from outside (a CLI option, an HTTP path or query string, a
`config.json` or scenario field, a decoded block or certificate) is read
here by one rule: `number` is its one spelling, and `bounded` checks it
against one row of the range table (`U64`, `COUNT`, `PORT`, `NON_NEGATIVE`).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Any, Callable

ZERO_HASH = "0" * 64

# explicit ASCII classes: `\d` would also match non-ASCII digits
_HEX_FULLMATCH = re.compile(r"[0-9a-f]*").fullmatch
# `int()` would also take "+4", " 3 ", "1_0" and non-ASCII digits
_INT_FULLMATCH = re.compile(r"-?[0-9]+").fullmatch

# The range table, (least, greatest) with None for no bound: every integer
# from outside lies in one of these rows.
U64 = (0, 2**64 - 1)  # a clock, a certificate serial or a certificate time
COUNT = (1, None)  # peers, transactions, a block's size, a tick's step
PORT = (0, 65535)
NON_NEGATIVE = (0, None)


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


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):  # NaN, an infinity, or a literal too large for a float, like 1e400
        raise ValueError(f"non-finite number {literal}")
    return value


# the encoder's mirror: canonical JSON never carries NaN or an infinity
# (`allow_nan=False`), so a value that holds one is refused as it is decoded
_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_finite_float)


def parse_json(data: bytes) -> Any:
    """The value the JSON `data` spells, read as strict UTF-8. ValueError
    for bytes that are not UTF-8 or not JSON, for a NaN, an infinity or a
    literal too large for a float, and for nesting too deep to decode. A
    lone surrogate escape decodes; only the encoder refuses it."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nesting too deep") from None


# How deep a writer lets lists and objects nest in what it commits or reads
# from a file, far below what the interpreter's recursion limit lets a
# reader decode (about 980 levels), so a verdict never depends on a stack.
MAX_DEPTH = 64
_NESTS = (dict, list, tuple)


def nesting(value: Any) -> int:
    """How deep lists and objects nest in `value`: 0 for a scalar, 1 for
    `[]` or `{}`, one more per level, counted up to `MAX_DEPTH + 1`. It
    walks one level at a time, keeping only lists and objects, so no depth
    can exhaust the stack."""
    depth, level = 0, [value] if isinstance(value, _NESTS) else []
    while level and depth <= MAX_DEPTH:
        depth += 1
        level = [
            item
            for node in level
            for item in (node.values() if isinstance(node, dict) else node)
            if isinstance(item, _NESTS)
        ]
    return depth


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_obj(obj: Any) -> str:
    """SHA-256 of the canonical serialization, lowercase hex."""
    return sha256_hex(to_canonical_bytes(obj))


def kept_slots(*keys: str) -> type:
    """A base class declaring `keys` as slots, for a `slots=True` frozen
    dataclass that keeps them. Its equality, hash, ordering, `replace`,
    `copy` and pickling see only its fields, so no kept value enters them."""
    return type("Kept", (), {"__slots__": keys})


def kept(obj, key: str, compute: Callable):
    """`compute(obj)`, computed on the first call and kept as the attribute
    `key` of the frozen `obj`, set the way a frozen dataclass's own
    `__init__` sets its fields. `key` must be a slot declared by `obj`'s
    `kept_slots` base: the object has no `__dict__`. Records, events,
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


def number(text: str) -> int:
    """The integer `text` spells as ASCII digits after an optional minus, or
    the ValueError `int()` raises for text it refuses."""
    if _INT_FULLMATCH(text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def bounded(value: int, row: tuple, error: Callable[[Any], Exception]) -> int:
    """`value` if it is an int, not a bool, within `row` of the range table;
    else `error(value)`, the caller's own refusal."""
    least, greatest = row
    if type(value) is not int or value < least or (greatest is not None and value > greatest):
        raise error(value)
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
