"""Durable ledger storage: the `ledger.jsonl` file, one block line each.

The file is the single source of truth; world state is always rebuilt from
it. What a line is (`block_line`, `parse_line`, `checked_block`) and what
the audit accepts (`ChainAuditor`) belong to `ledger`; this module owns the
file: appends, crash recovery, the loader with its state checkpoint, the
audit entry point with its watermark, and the writer lock. Three kinds of
reader treat the file differently on purpose:

* the loader (`load_ledger`), behind `Node.open` and the CLI's readers,
  runs `checked_block` on every line it decodes and refuses a broken link.
  Lines that a valid state checkpoint covers are neither decoded nor
  replayed, while its digest proves they are byte for byte the ones the
  writer left, and the checkpoint's own lines are decoded only as their
  records and events are read. At node start a trailing line without its
  newline is crash residue from a killed append: it is dropped with a
  warning and the file repaired.
* the library reader (`read_chain`) only decodes, with the same crash
  residue rule.
* the audit (`audit_file`) is strict. Every line must pass every check,
  signatures included; a partial tail counts as corruption, otherwise a
  mutation that eats the final newline could masquerade as a crash. Lines
  it has verified before are skipped only while the watermark's digest
  proves they are byte for byte the same.

The checkpoint and the watermark are sidecars, caches beside the ledger
that share one header line: `offset` and `prefixSha256`, the length and
sha256 of the ledger prefix they cover, and `height` and `tipHash`, its
last block. `_read_sidecar` trusts one only while `offset` ends the line
at `height`, that block hashes to `tipHash`, and the first `offset` bytes
still hash to `prefixSha256`. Neither is fsynced: a stale, torn or foreign
one only costs the full path, and deleting one forces it.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import tempfile
from collections.abc import Callable, Sequence
from pathlib import Path

from .canonical import ZERO_HASH, to_canonical_bytes, typed
from .chaincode import WorldState
from .errors import LedgerCorrupt
from .ledger import (
    DECODE_ERRORS,
    AuditReport,
    Block,
    ChainAuditor,
    LineChain,
    block_line,
    checked_block,
    commit_block,
    parse_line,
    replay,
    snapshot_hash,
    snapshot_lines,
    split_lines,
    state_from_snapshot,
    state_hash,
)

logger = logging.getLogger(__name__)
# A stale or unwritable watermark or checkpoint costs only the full path.
# Their warnings go to the application's logging setup, never to the CLI's
# stderr, which carries at most one JSON error line.
_watermark_log = logging.getLogger(f"{__name__}.watermark")
_watermark_log.addHandler(logging.NullHandler())
_checkpoint_log = logging.getLogger(f"{__name__}.checkpoint")
_checkpoint_log.addHandler(logging.NullHandler())


def append_block_file(path: Path, block: Block) -> bytes:
    """Single write + fsync per block: a crash can truncate at most the
    trailing line. Returns the line written."""
    line = block_line(block)
    with open(path, "ab") as fh:
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
    return line


def write_chain_file(path: Path, chain: Sequence[Block]) -> None:
    data = b"".join(block_line(b) for b in chain)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def read_chain(path: Path, *, recover: bool = False, repair: bool | None = None) -> list[Block]:
    """Load and structurally decode the chain. Decoding is all it checks:
    links are checked by `ledger.replay`; hashes, signatures and whether a
    line is its block's exact encoding by `load_ledger` and the auditor.

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
    block = _tail_block(len(lines), tail, recover=recover)
    if block is not None:
        blocks.append(block)
    if repair:
        _repair_tail(path, len(data), tail, block)
    return blocks


def _tail_block(index: int, tail: bytes, *, recover: bool) -> Block | None:
    """The block on `tail`, the bytes after the last newline of a ledger,
    which would be at height `index`; None when there are none. Without
    `recover` any such bytes raise LedgerCorrupt. With it, bytes that do
    not decode are crash residue from a killed append, dropped with a
    warning, and bytes that do decode are a line that lost its newline,
    kept with a warning, since the write protocol always ends lines with
    one."""
    if not tail:
        return None
    try:
        block = parse_line(tail)
    except (KeyError, ValueError) as exc:
        if not recover:
            raise LedgerCorrupt(f"partial trailing line at height {index}: {exc}", height=index)
        logger.warning(
            "dropping truncated trailing line at height %d (%d bytes of crash residue)", index, len(tail)
        )
        return None
    if not recover:
        raise LedgerCorrupt(f"missing newline after height {index}", height=index)
    logger.warning("restoring missing newline after height %d", index)
    return block


def _repair_tail(path: Path, size: int, tail: bytes, block: Block | None) -> None:
    """Make the `size`-byte file at `path` what `_tail_block` read it as:
    cut crash residue `tail` off, or give the line `tail` of `block` its
    newline back."""
    if not tail:
        return
    with open(path, "r+b") as fh:
        if block is None:
            fh.truncate(size - len(tail))
        else:
            fh.seek(size)
            fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


class LedgerDigest:
    """The length and sha256 of a ledger file's bytes, kept current by its
    one writer as it appends: what a sidecar header records of the prefix
    it covers."""

    def __init__(self, sha=None, size: int = 0):
        self._sha = hashlib.sha256() if sha is None else sha
        self.size = size

    def update(self, data: bytes) -> None:
        self._sha.update(data)
        self.size += len(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def checkpoint_path(path: Path) -> Path:
    """Where writers keep the state checkpoint of the ledger at `path`."""
    path = Path(path)
    return path.with_name(path.name + ".state")


def load_ledger(
    path: Path, *, repair: bool = False, checkpoint: bool = True
) -> tuple[Sequence[Block], WorldState, LedgerDigest]:
    """The chain in the ledger file at `path`, the state after it, and the
    digest of the file as the writer leaves it.

    Every line it decodes must pass `checked_block` and link to the block
    before it, or it raises LedgerCorrupt at that line's height. With
    `checkpoint` it first reads the state checkpoint (`checkpoint_path`,
    written by `write_checkpoint`) and trusts it only if its header passes
    `_read_sidecar` and its snapshot lines, spliced undecoded, hash to
    `stateHash`. Otherwise it logs a warning (a missing checkpoint is not
    warned about) and decodes and replays every line. A trusted checkpoint
    is loaded by `ledger.state_from_snapshot`, which decodes its summary
    and its drafts and leaves every other record and event a line until it
    is read; the lines after `offset` are then decoded and replayed onto
    that state. Either way the chain is a `LineChain` that keeps the lines
    and decodes a block only when it is indexed. A trailing line without
    its newline is treated as `read_chain` with `recover` treats it, and
    `repair` fixes the file the same way once everything else has loaded.

    Threat model: as for the audit watermark, an edit of the ledger file
    alone is refused at the height the audit reports HASH_MISMATCH at.
    Getting one past the loader also means rewriting the checkpoint, which
    needs write access to the data dir. A trusted checkpoint line that does
    not decode is refused with LedgerCorrupt naming the checkpoint, when it
    is read (the summary and the drafts on load); deleting the checkpoint
    loads the ledger from genesis.
    """
    path = Path(path)
    data = path.read_bytes()
    size = len(data)
    lines, tail = split_lines(data)
    found = _read_checkpoint(path, data) if checkpoint else None
    height, tip, state, digest = found or (-1, ZERO_HASH, WorldState(), LedgerDigest())
    digest.update(memoryview(data)[digest.size : size - len(tail)])
    del data  # the lines hold the same bytes, and the chain keeps them
    for index in range(height + 1, len(lines)):
        tip = commit_block(state, tip, checked_block(index, lines[index], tip))
    block = _tail_block(len(lines), tail, recover=True)
    if block is not None:
        commit_block(state, tip, checked_block(len(lines), tail, tip))
        lines.append(tail)
        digest.update(tail + b"\n")
    if repair:
        _repair_tail(path, size, tail, block)
    return LineChain(lines), state, digest


def _read_checkpoint(path: Path, data: bytes) -> tuple[int, str, WorldState, LedgerDigest] | None:
    """(height, tip hash, state, digest of the prefix) of the checkpoint of
    the ledger `data` at `path` if `load_ledger` may trust it, else None;
    LedgerCorrupt if it is trusted but its summary or a draft's line does
    not decode."""
    mark = checkpoint_path(path)
    found = _read_sidecar(mark, data, _checkpoint_log, "state checkpoint", _snapshot)
    if found is None:
        return None
    (height, _, tip, *snapshot), digest = found
    # trusted from here on: lines that do not decode are refused, not ignored
    return height, tip, state_from_snapshot(*snapshot, height, str(mark)), digest


def check_checkpoint(path: Path, chain: Sequence[Block], tip_hash: str) -> None:
    """LedgerCorrupt if `load_ledger` would trust the checkpoint of the
    ledger at `path` but `chain`, that ledger from genesis, hashes otherwise
    at its height (`tip_hash` at the tip; one past the tip is newer: skipped)."""
    mark = checkpoint_path(path)
    found = _read_sidecar(mark, Path(path).read_bytes(), _checkpoint_log, "state checkpoint", _snapshot)
    if found and found[0][0] < len(chain):
        (height, claimed, *_), _ = found
        if height < len(chain) - 1:
            tip_hash = state_hash(replay(chain[i] for i in range(height + 1)))
        if claimed != tip_hash:
            raise LedgerCorrupt(f"state checkpoint {mark} is not the ledger's state at height {height}; delete it")


def _snapshot(header: dict, body: list[bytes]) -> tuple:
    """(height, stateHash, tip hash, summary, entries, events) of a
    checkpoint whose `body` lines are the snapshot its header counts and
    hashes; otherwise ValueError."""
    *snapshot, rest = body
    records = typed(header["records"], int, "records")
    if rest or not 0 <= records <= len(snapshot):
        raise ValueError("the snapshot is cut short")
    summary = typed(header["summary"], dict, "summary")
    entries, events = snapshot[:records], snapshot[records:]
    if snapshot_hash(summary, entries, events) != header["stateHash"]:
        raise ValueError("the snapshot does not hash to stateHash")
    return header["height"], header["stateHash"], header["tipHash"], summary, entries, events


def write_checkpoint(path: Path, digest: LedgerDigest, tip: Block, state: WorldState) -> None:
    """Replace the state checkpoint of the ledger at `path` with `state`,
    the state after `tip`, the last block of the `digest.size` bytes that
    `digest` covers. After the sidecar header come its `stateHash`, the
    state's `summary` and the count of `records`; one line per registry
    entry and then one per event follow, each the bytes
    `ledger.snapshot_lines` keeps, so writing one encodes only what is new
    since the last."""
    summary, entries, events = snapshot_lines(state)
    fields = {
        "height": tip.height,
        "records": len(entries),
        "stateHash": snapshot_hash(summary, entries, events),
        "summary": summary,
        "tipHash": tip.block_hash,
    }
    _write_sidecar(checkpoint_path(path), digest, fields, entries + events, _checkpoint_log, "state checkpoint")


def watermark_path(path: Path) -> Path:
    """Where `audit_file` keeps the watermark of the ledger at `path`."""
    path = Path(path)
    return path.with_name(path.name + ".audit")


def audit_file(path: Path) -> AuditReport:
    """Strict audit of a ledger file that verifies only the lines appended
    since its last valid audit.

    After a valid audit the watermark file (`watermark_path`) is the
    sidecar header of the audited bytes plus the rest of the context the
    auditor ended with, `prevTime` and `callerKeys`. The next audit trusts
    it only if `_read_sidecar` does and `ChainAuditor.audit` accepts that
    context; it then resumes after `height`, runs every check on every
    later line, and extends the digest of the covered prefix that the
    header check computed, so each ledger byte is hashed once. Otherwise it
    audits from genesis and logs a warning (a missing watermark is a first
    audit, and is not warned about). A watermark that cannot be written is
    logged and skipped.

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
    found = _read_sidecar(mark, data, _watermark_log, "audit watermark", lambda header, body: header)
    start, digest = found or (None, LedgerDigest())
    auditor = ChainAuditor()
    try:
        report, end = auditor.audit(data, start)
    except ValueError as exc:
        _watermark_log.warning("ignoring audit watermark %s: %s", mark, exc)
        start = None  # the digest still covers its prefix
        report, end = auditor.audit(data)
    if end is not None and (start is None or end["height"] != start["height"]):
        digest.update(memoryview(data)[digest.size :])
        _write_sidecar(mark, digest, end, [], _watermark_log, "audit watermark")
    return report


def _read_sidecar(mark: Path, data: bytes, log: logging.Logger, what: str, check: Callable):
    """(`check(header, body)`, the digest of the covered prefix) if the
    sidecar `mark` still describes a prefix of the ledger `data`: its
    header's `offset` ends the line at `height`, whose block hashes to
    `tipHash`, and the first `offset` bytes hash to `prefixSha256`. Else
    None, with a warning on `log` unless there is no sidecar. `body` is the
    lines after the header, the last being what follows the final newline;
    `check` refuses the sidecar by raising what this catches."""
    try:
        header_line, *body = mark.read_bytes().split(b"\n")
        header = typed(json.loads(header_line), dict, what)
        offset, height = typed(header["offset"], int, "offset"), typed(header["height"], int, "height")
        if not 0 < offset <= len(data) or data[offset - 1] != ord("\n"):
            raise ValueError(f"offset {offset} does not end a line of the ledger")
        if data.count(b"\n", 0, offset) != height + 1:
            raise ValueError(f"offset {offset} does not end the line of its height")
        if parse_line(data[data.rfind(b"\n", 0, offset - 1) + 1 : offset - 1]).block_hash != header["tipHash"]:
            raise ValueError(f"tipHash is not the hash of the block at height {height}")
        sha = hashlib.sha256(memoryview(data)[:offset])
        if sha.hexdigest() != header["prefixSha256"]:
            raise ValueError("the covered prefix of the ledger has changed")
        found = check(header, body)
    except FileNotFoundError:
        return None
    except (OSError, *DECODE_ERRORS) as exc:
        log.warning("ignoring %s %s: %s", what, mark, exc)
        return None
    return found, LedgerDigest(sha, offset)


def _write_sidecar(mark: Path, digest: LedgerDigest, fields: dict, lines: list, log: logging.Logger, what: str) -> None:
    """Replace the sidecar `mark` with the header of the `digest.size`
    bytes `digest` covers, holding `fields` too, and then `lines`, each
    line ended by a newline. A unique temp file (mode 0600) is renamed over
    it, so concurrent writers each leave a whole file. It is not fsynced,
    since a lost or torn one only costs the full path; a write that fails
    is logged on `log` and skipped."""
    header = to_canonical_bytes({"offset": digest.size, "prefixSha256": digest.hexdigest(), **fields})
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{mark.name}.", suffix=".tmp", dir=mark.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"\n".join([header, *lines]) + b"\n")
            os.replace(tmp, mark)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        log.warning("could not write %s %s: %s", what, mark, exc)


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
