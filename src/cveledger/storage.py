"""Durable ledger storage: the `ledger.jsonl` file, one block line each.

The file is the single source of truth; world state is always rebuilt by
replay. What a line is (`block_line`, `parse_line`) and what the audit
accepts (`ChainAuditor`) belong to `ledger`; this module owns the file:
appends, crash recovery, the audit entry point with its watermark, and the
writer lock. Readers and the auditor treat the file differently on
purpose:

* readers (`read_chain`) only decode. At node start a trailing line
  without its newline is crash residue from a killed append: it is
  dropped with a warning and the file repaired. Anything else unreadable
  is corruption and refuses to load.
* the audit (`audit_file`) is strict. Every line must decode, re-encode
  and verify; a partial tail counts as corruption, otherwise a mutation
  that eats the final newline could masquerade as a crash. Lines it has
  verified before are skipped only while the watermark's digest proves
  they are byte for byte the same.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import tempfile
from pathlib import Path

from .canonical import is_hex_digest, sha256_hex, to_canonical_bytes, typed
from .errors import LedgerCorrupt
from .ledger import AuditReport, Block, ChainAuditor, block_line, parse_line, split_lines

logger = logging.getLogger(__name__)
# A stale or unwritable watermark costs only a full audit. Its warnings go
# to the application's logging setup, never to the CLI's stderr, which
# carries at most one JSON error line.
_watermark_log = logging.getLogger(f"{__name__}.watermark")
_watermark_log.addHandler(logging.NullHandler())


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


def read_chain(path: Path, *, recover: bool = False, repair: bool | None = None) -> list[Block]:
    """Load and structurally decode the chain. Decoding is all it checks:
    links are checked by `ledger.replay`; hashes, signatures and whether a
    line is its block's exact encoding only by the auditor.

    With recover=True a newline-less tail that fails to decode is dropped;
    otherwise any undecodable content raises LedgerCorrupt with the
    offending height. `repair` (defaults to `recover`) controls whether the
    file itself is fixed up: read-only consumers pass repair=False.
    """
    if repair is None:
        repair = recover
    data = Path(path).read_bytes()
    lines, tail = split_lines(data)
    blocks: list[Block] = []
    for index, line in enumerate(lines):
        try:
            blocks.append(parse_line(line))
        except (KeyError, ValueError) as exc:
            raise LedgerCorrupt(f"undecodable block at height {index}: {exc}", height=index)
    if tail:
        index = len(lines)
        try:
            block = parse_line(tail)
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


def watermark_path(path: Path) -> Path:
    """Where `audit_file` keeps the watermark of the ledger at `path`."""
    path = Path(path)
    return path.with_name(path.name + ".audit")


def audit_file(path: Path) -> AuditReport:
    """Strict audit of a ledger file that verifies only the lines appended
    since its last valid audit.

    After a valid audit the watermark file (`watermark_path`) records the
    `offset` of the end of the audited bytes, their `prefixSha256`, and the
    context the auditor ended with: `height`, `tipHash`, `prevTime` and
    `callerKeys`. The next audit trusts it only if it decodes with every
    field well-typed, `offset` ends a line of the file and that line is the
    block at `height`, and the sha256 of the first `offset` bytes is still
    `prefixSha256`; it then resumes after `height` and runs every check on
    every later line. Otherwise it audits from genesis and logs a warning
    (a missing watermark is a first audit, and is not warned about). A
    watermark that cannot be written is logged and skipped.

    Threat model: the watermark only caches the auditor's own work. An edit
    of the ledger file alone is still caught, with the full audit's first
    bad height and reason. Getting an edit past the audit also means
    rewriting the watermark, which needs write access to the data dir, and
    that already gives the CA key and every local signing key in `keys/`.
    Deleting the watermark forces a full audit.
    """
    path = Path(path)
    data = path.read_bytes()
    mark = watermark_path(path)
    start = _read_watermark(mark, data)
    auditor = ChainAuditor()
    try:
        report, end = auditor.audit(data, start)
    except ValueError as exc:
        _watermark_log.warning("ignoring audit watermark %s: %s", mark, exc)
        start = None
        report, end = auditor.audit(data)
    if end is not None and (start is None or end["height"] != start["height"]):
        _write_watermark(mark, data, end)
    return report


def _read_watermark(mark: Path, data: bytes) -> dict | None:
    """The watermark at `mark` if it still describes a prefix of `data`,
    else None. Whether its context matches the block at its height is
    `ChainAuditor.audit`'s to check."""
    try:
        obj = typed(json.loads(mark.read_bytes()), dict, "watermark")
        offset = typed(obj["offset"], int, "offset")
        digest = obj["prefixSha256"]
        if not is_hex_digest(digest, 64):
            raise ValueError("prefixSha256 must be 64 lowercase hex chars")
        if not 0 < offset <= len(data) or data[offset - 1] != ord("\n"):
            raise ValueError(f"offset {offset} does not end a line of the ledger")
        if data.count(b"\n", 0, offset) != typed(obj["height"], int, "height") + 1:
            raise ValueError(f"offset {offset} does not end the line of its height")
        if sha256_hex(memoryview(data)[:offset]) != digest:
            raise ValueError("the audited prefix of the ledger has changed")
    except FileNotFoundError:
        return None
    except (KeyError, OSError, RecursionError, ValueError) as exc:
        _watermark_log.warning("ignoring audit watermark %s: %s", mark, exc)
        return None
    return obj


def _write_watermark(mark: Path, data: bytes, context: dict) -> None:
    """Replace `mark` with the watermark of an audit that found all of
    `data` valid and ended with `context`. A unique temp file is renamed
    over it, so concurrent audits each leave a whole watermark; it is not
    fsynced, since a lost or torn one only costs a full audit."""
    body = to_canonical_bytes({"offset": len(data), "prefixSha256": sha256_hex(data), **context})
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{mark.name}.", suffix=".tmp", dir=mark.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
            os.replace(tmp, mark)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        _watermark_log.warning("could not write audit watermark %s: %s", mark, exc)


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
