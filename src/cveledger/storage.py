"""Durable ledger storage: one canonical-JSON block per line.

The file is the single source of truth; world state is always rebuilt by
replay. Two read modes exist on purpose:

* recovery (node start): a trailing line without its newline is crash
  residue from a killed append — drop it with a warning and repair the
  file. Anything else unreadable is corruption and refuses to load.
* audit: strict. Every byte must decode and verify; a partial tail counts
  as corruption, otherwise a mutation that eats the final newline could
  masquerade as a crash.
"""

from __future__ import annotations

import fcntl
import json
import logging
import math
import os
from pathlib import Path

from .canonical import sha256_hex, to_canonical_bytes
from .errors import LedgerCorrupt
from .ledger import (
    AuditReport,
    Block,
    HASH_MISMATCH,
    TrustAnchors,
    _VerifyContext,
    _verify_block,
)

logger = logging.getLogger(__name__)


def block_line(block: Block) -> bytes:
    return to_canonical_bytes(block.to_dict()) + b"\n"


def append_block_file(path: Path, block: Block) -> None:
    """Single write + fsync per block: a crash can truncate at most the
    trailing line."""
    with open(path, "ab") as fh:
        fh.write(block_line(block))
        fh.flush()
        os.fsync(fh.fileno())


def write_chain_file(path: Path, chain: list[Block]) -> None:
    data = b"".join(block_line(b) for b in chain)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _refuse_non_finite(literal: str):
    raise ValueError(f"non-finite number {literal}")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):  # a literal too large for a float, like 1e400
        _refuse_non_finite(literal)
    return value


# Canonical JSON never carries NaN or an infinity (`allow_nan=False`): a
# line that decodes to one cannot be re-encoded, so it is refused here,
# where every reader and the auditor turn a ValueError into their verdict.
_LINE_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_refuse_non_finite)


def _parse_line(line: bytes) -> Block:
    """The block on `line`. Bytes that are not a block raise KeyError or
    ValueError (a UnicodeDecodeError is one, and so is a NaN, an infinity
    or a number literal too large for a float)."""
    obj = _LINE_DECODER.decode(line.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("block line must be a JSON object")
    return Block.from_dict(obj)


def _split_lines(data: bytes) -> tuple[list[bytes], bytes]:
    """The newline-terminated lines of `data`, and the bytes after the last
    newline (the whole of `data` when it has none)."""
    complete, sep, tail = data.rpartition(b"\n")
    if not sep:
        return [], data
    return (complete.split(b"\n") if complete else []), tail


def read_chain(path: Path, *, recover: bool = False, repair: bool | None = None) -> list[Block]:
    """Load and structurally decode the chain. Decoding is all it checks:
    links are checked by `ledger.replay`, hashes and signatures only by the
    auditor.

    With recover=True a newline-less tail that fails to decode is dropped;
    otherwise any undecodable content raises LedgerCorrupt with the
    offending height. `repair` (defaults to `recover`) controls whether the
    file itself is fixed up: read-only consumers pass repair=False.
    """
    if repair is None:
        repair = recover
    data = Path(path).read_bytes()
    lines, tail = _split_lines(data)
    blocks: list[Block] = []
    for index, line in enumerate(lines):
        try:
            blocks.append(_parse_line(line))
        except (KeyError, ValueError) as exc:
            raise LedgerCorrupt(f"undecodable block at height {index}: {exc}", height=index)
    if tail:
        index = len(lines)
        try:
            block = _parse_line(tail)
        except (KeyError, ValueError) as exc:
            if not recover:
                raise LedgerCorrupt(
                    f"partial trailing line at height {index}: {exc}", height=index
                )
            logger.warning(
                "dropping truncated trailing line at height %d (%d bytes of crash residue)",
                index,
                len(tail),
            )
            if repair:
                with open(path, "r+b") as fh:
                    fh.truncate(len(data) - len(tail))
                    fh.flush()
                    os.fsync(fh.fileno())
            return blocks
        # decodable but missing its newline: the write protocol always ends
        # lines with one, so treat it the same way
        if not recover:
            raise LedgerCorrupt(f"missing newline after height {index}", height=index)
        logger.warning("restoring missing newline after height %d", index)
        blocks.append(block)
        if repair:
            with open(path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
    return blocks


class ChainAuditor:
    """Strict file auditor with per-line memoization.

    A block's verdict is a pure function of its line bytes, the previous
    block's hash/time, and the caller keys accumulated so far, so verdicts
    are cached on exactly that key. Re-auditing a file that differs in one
    line only re-verifies from the changed line on, which keeps exhaustive
    bit-flip sweeps tractable without weakening any check.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, tuple] = {}

    def audit_bytes(self, data: bytes) -> AuditReport:
        lines, tail = _split_lines(data)
        if tail:
            return AuditReport(valid=False, first_bad_height=len(lines), reason=HASH_MISMATCH)
        if not lines:
            return AuditReport(valid=False, first_bad_height=0, reason=HASH_MISMATCH)

        ctx = _VerifyContext()
        trust = None  # read from the genesis line
        for index, line in enumerate(lines):
            key = (
                index,
                sha256_hex(line),
                ctx.prev_hash,
                ctx.prev_time,
                ctx.keyring_fingerprint(),
            )
            hit = self._memo.get(key)
            if hit is None:
                hit = self._verify_line(index, line, ctx, trust)
                self._memo[key] = hit
            reason, exported, block_hash, block_time, line_trust = hit
            if reason is not None:
                return AuditReport(valid=False, first_bad_height=index, reason=reason)
            if index == 0:
                trust = line_trust
                ctx.ca_public_key = trust.ca_public_key
            ctx.caller_keys.update(exported)
            ctx.prev_hash = block_hash
            ctx.prev_time = block_time
        return AuditReport(valid=True)

    def _verify_line(self, index, line, ctx, trust):
        try:
            block = _parse_line(line)
        except (KeyError, ValueError):
            return HASH_MISMATCH, {}, None, None, None
        if block.height != index:
            return HASH_MISMATCH, {}, None, None, None
        if index == 0:
            try:
                trust = TrustAnchors.from_genesis(block)
            except LedgerCorrupt:
                return HASH_MISMATCH, {}, None, None, None
        reason, exported = _verify_block(block, ctx, trust)
        return reason, exported, block.block_hash, block.block_time, trust

    def audit_file(self, path: Path) -> AuditReport:
        return self.audit_bytes(Path(path).read_bytes())


def audit_file(path: Path) -> AuditReport:
    """One-shot strict audit of a ledger file."""
    return ChainAuditor().audit_file(path)


class DataDirLock:
    """Advisory single-writer lock on a data directory (flock)."""

    def __init__(self, data_dir: Path):
        self._path = Path(data_dir) / ".lock"
        self._fh = None

    def acquire(self) -> "DataDirLock":
        self._fh = open(self._path, "a+")
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._fh.close()
            self._fh = None
            raise LedgerCorrupt(f"data dir already locked by another writer: {self._path.parent}")
        return self

    def release(self) -> None:
        if self._fh is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DataDirLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
