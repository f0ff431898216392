"""Durable ledger storage: the `ledger.jsonl` file, one block line each.

The file is the single source of truth; world state is always rebuilt by
replay. What a line is (`block_line`, `parse_line`) and what the audit
accepts (`ChainAuditor`) belong to `ledger`; this module owns the file:
appends, crash recovery, the audit entry point and the writer lock. Two
read modes exist on purpose:

* recovery (node start): a trailing line without its newline is crash
  residue from a killed append — drop it with a warning and repair the
  file. Anything else unreadable is corruption and refuses to load.
* audit: strict. Every byte must decode, re-encode and verify; a partial
  tail counts as corruption, otherwise a mutation that eats the final
  newline could masquerade as a crash.
"""

from __future__ import annotations

import fcntl
import logging
import os
from pathlib import Path

from .errors import LedgerCorrupt
from .ledger import AuditReport, Block, ChainAuditor, block_line, parse_line, split_lines

logger = logging.getLogger(__name__)


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


def audit_file(path: Path) -> AuditReport:
    """One-shot strict audit of a ledger file."""
    return ChainAuditor().audit_bytes(Path(path).read_bytes())


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
