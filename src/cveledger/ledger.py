"""Hash-chained blocks and their ledger lines: build, encode, audit, replay, query;
and the state snapshot a checkpoint holds, whose lines a loaded state decodes
as they are read.

Blocks chain by SHA-256; transaction ids hash the canonical payload bytes;
caller and endorsement signatures cover those same bytes. A block's line
in `ledger.jsonl` is its canonical JSON and a newline (`block_line`). The
file auditor (`ChainAuditor`) accepts a line only if the block it decodes
to encodes back to exactly that line, so every byte of a line is covered
by at least one check and any post-commit mutation is detectable by audit.
The loader behind `Node.open` and the CLI's readers runs every one of
those checks but the signatures on each line it decodes (`checked_block`)
and checks links as it replays; the library readers `storage.read_chain`
and `replay` only decode lines (`parse_line`) and check links.

Verification is chain-self-contained: the trust root (CA key, bootstrap
governance certificates, peer keys, endorsement policy) lives in the
genesis block, and CNA verification keys enter via the certificates
embedded in onboarding transactions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Callable

from .canonical import ZERO_HASH, is_hex_digest, kept, sha256_hex, to_canonical_bytes, to_canonical_json, typed
from .chaincode import (
    ChainClock,
    Event,
    ID_ORDER,
    OP_GENESIS,
    OP_ONBOARD,
    WorldState,
    content_commitment,
    execute_transaction,
    is_content_withheld,
)
from .errors import ClockRegression, LedgerCorrupt, LedgerError, PolicyUnsatisfied
from .identity import Certificate, KeyPair, sign_payload, verify_payload
from .records import CveId, CveRecord, CveStatus, parse_cve_id, record_from_dict, record_to_dict
from . import corrections  # noqa: F401  (adds the correction ops to chaincode.OPS)

HASH_MISMATCH = "HASH_MISMATCH"
SIGNATURE_INVALID = "SIGNATURE_INVALID"
ENDORSEMENT_INSUFFICIENT = "ENDORSEMENT_INSUFFICIENT"
CLOCK_REGRESSION = "CLOCK_REGRESSION"


@dataclass(frozen=True)
class EndorsementPolicy:
    """ANY_N(n) | MAJORITY_OF(orgs) | ALL_OF(orgs)."""

    rule: str = "ANY_N"
    n: int = 1
    orgs: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.rule == "ANY_N":
            if self.n < 1:
                raise ValueError("ANY_N requires n >= 1")
        elif self.rule in ("MAJORITY_OF", "ALL_OF"):
            if not self.orgs:
                raise ValueError(f"{self.rule} requires a non-empty org set")
        else:
            raise ValueError(f"unknown endorsement rule {self.rule!r}")

    def satisfied(self, endorsing_orgs: set[str], endorsement_count: int) -> bool:
        if self.rule == "ANY_N":
            return endorsement_count >= self.n
        if self.rule == "MAJORITY_OF":
            return len(endorsing_orgs & self.orgs) * 2 > len(self.orgs)
        return self.orgs <= endorsing_orgs

    def to_dict(self) -> dict:
        return {"rule": self.rule, "n": self.n, "orgs": sorted(self.orgs)}

    @classmethod
    def from_dict(cls, obj: dict) -> "EndorsementPolicy":
        return cls(
            rule=obj.get("rule", "ANY_N"),
            n=typed(obj.get("n", 1), int, "n"),
            orgs=frozenset(typed(org, str, "orgs") for org in typed(obj.get("orgs", []), list, "orgs")),
        )


@dataclass(frozen=True)
class Transaction:
    payload: dict  # {op, args, caller, clockNow} — canonical JSON is the signed bytes
    tx_id: str
    caller_signature: str  # hex, empty only on the genesis transaction
    endorsements: tuple[tuple[str, str], ...] = ()

    @classmethod
    def build(
        cls,
        op: str,
        args: dict,
        caller: str,
        clock_now: int,
        key: KeyPair | None = None,
    ) -> "Transaction":
        payload = {"args": args, "caller": caller, "clockNow": int(clock_now), "op": op}
        payload_bytes = to_canonical_bytes(payload)
        sig = sign_payload(key, payload_bytes).hex() if key is not None else ""
        tx = cls(payload=payload, tx_id=sha256_hex(payload_bytes), caller_signature=sig)
        kept(tx, "_payload_bytes", lambda _: payload_bytes)
        return tx

    def payload_bytes(self) -> bytes:
        """`to_canonical_bytes(self.payload)`: the bytes the tx id hashes and
        every signature covers, encoded once per transaction. They are kept
        as an attribute, not a field, so `dataclasses.replace` builds a
        transaction that encodes its own payload."""
        return kept(self, "_payload_bytes", lambda tx: to_canonical_bytes(tx.payload))

    def with_endorsements(self, endorsements) -> "Transaction":
        tx = Transaction(
            payload=self.payload,
            tx_id=self.tx_id,
            caller_signature=self.caller_signature,
            endorsements=tuple((str(p), str(s)) for p, s in endorsements),
        )
        kept(tx, "_payload_bytes", lambda _: self.payload_bytes())
        return tx

    def to_dict(self) -> dict:
        return {
            "txId": self.tx_id,
            "payload": self.payload,
            "callerSignature": self.caller_signature,
            "endorsements": [[p, s] for p, s in self.endorsements],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Transaction":
        typed(obj, dict, "transaction")
        payload = typed(obj["payload"], dict, "payload")
        if set(payload) != {"args", "caller", "clockNow", "op"}:
            raise ValueError("payload must carry exactly {args, caller, clockNow, op}")
        for name, kind in (("args", dict), ("caller", str), ("clockNow", int), ("op", str)):
            typed(payload[name], kind, name)
        tx_id = obj["txId"]
        if not is_hex_digest(tx_id, 64):
            raise ValueError("txId must be 64 lowercase hex chars")
        sig = typed(obj["callerSignature"], str, "callerSignature")
        if sig != "" and not is_hex_digest(sig, 128):
            raise ValueError("callerSignature must be empty or 128 lowercase hex chars")
        endorsements = []
        for item in typed(obj["endorsements"], list, "endorsements"):
            if len(typed(item, list, "endorsement")) != 2:
                raise ValueError("endorsement entries are [peerId, signature] pairs")
            peer, esig = item
            if not is_hex_digest(esig, 128):
                raise ValueError("bad endorsement signature")
            endorsements.append((typed(peer, str, "peerId"), esig))
        return cls(
            payload=payload,
            tx_id=tx_id,
            caller_signature=sig,
            endorsements=tuple(endorsements),
        )


def compute_block_hash(height: int, prev_hash: str, block_time: int, tx_ids) -> str:
    header = {
        "blockTime": block_time,
        "height": height,
        "prevHash": prev_hash,
        "txIds": "".join(tx_ids),
    }
    return sha256_hex(to_canonical_bytes(header))


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    block_time: int
    txs: tuple[Transaction, ...]
    block_hash: str

    @classmethod
    def build(cls, height: int, prev_hash: str, block_time: int, txs) -> "Block":
        txs = tuple(txs)
        return cls(
            height=height,
            prev_hash=prev_hash,
            block_time=int(block_time),
            txs=txs,
            block_hash=compute_block_hash(height, prev_hash, int(block_time), [t.tx_id for t in txs]),
        )

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prevHash": self.prev_hash,
            "blockTime": self.block_time,
            "txs": [t.to_dict() for t in self.txs],
            "blockHash": self.block_hash,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Block":
        height = typed(obj["height"], int, "height")
        if height < 0:
            raise ValueError("height must be non-negative")
        if not is_hex_digest(obj["prevHash"], 64) or not is_hex_digest(obj["blockHash"], 64):
            raise ValueError("prevHash/blockHash must be 64 lowercase hex chars")
        return cls(
            height=height,
            prev_hash=obj["prevHash"],
            block_time=typed(obj["blockTime"], int, "blockTime"),
            txs=tuple(Transaction.from_dict(t) for t in typed(obj["txs"], list, "txs")),
            block_hash=obj["blockHash"],
        )


def block_line(block: Block) -> bytes:
    """The block's line in `ledger.jsonl`: its canonical JSON and a newline,
    `to_canonical_bytes(block.to_dict()) + b"\\n"`. Each transaction's
    payload is spliced from its kept `payload_bytes()`, which its tx id
    hashes too, so a payload is encoded once whatever reads it. A block
    holding what canonical JSON cannot write (a NaN, an infinity, a lone
    surrogate, nesting too deep) raises ValueError."""
    txs = b",".join(
        _open_object({"callerSignature": tx.caller_signature, "endorsements": [[p, s] for p, s in tx.endorsements]})
        + b',"payload":%s,"txId":%s}' % (tx.payload_bytes(), to_canonical_bytes(tx.tx_id))
        for tx in block.txs
    )
    head = {
        "blockHash": block.block_hash,
        "blockTime": block.block_time,
        "height": block.height,
        "prevHash": block.prev_hash,
    }
    return _open_object(head) + b',"txs":[%s]}\n' % txs


def _open_object(obj: dict) -> bytes:
    """The canonical bytes of the non-empty `obj` without its closing brace,
    for keys that sort after all of its own to be spliced after it."""
    return to_canonical_bytes(obj)[:-1]


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


def parse_line(line: bytes) -> Block:
    """The block on `line`. Bytes that are not a block raise KeyError or
    ValueError (a UnicodeDecodeError is one, and so is a NaN, an infinity,
    a number literal too large for a float or nesting too deep). Decoding
    is all it checks: only the auditor asks whether the block encodes back
    to `line`."""
    try:
        obj = _LINE_DECODER.decode(line.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nesting too deep") from None
    if not isinstance(obj, dict):
        raise ValueError("block line must be a JSON object")
    return Block.from_dict(obj)


def checked_block(index: int, line: bytes, prev_hash: str) -> Block:
    """The block on the line at `index` (newline excluded), once it passes
    every check the auditor runs on a line but the clock and the
    signatures: the line decodes to the block at height `index`, it is
    exactly that block's line, the block links to `prev_hash`, the hash of
    the block before it, and its tx ids and hash recompute. Otherwise
    LedgerCorrupt at `index`, the height at which the audit reports
    HASH_MISMATCH."""
    try:
        block = parse_line(line)
        exact = block.height == index and block_line(block) == line + b"\n"
        hashes = _hashes_recompute(block)
    except (KeyError, ValueError) as exc:
        raise LedgerCorrupt(f"undecodable block at height {index}: {exc}", height=index) from None
    if not exact:
        raise LedgerCorrupt(f"the line at height {index} is not its block's exact encoding", height=index)
    if block.prev_hash != prev_hash:
        raise LedgerCorrupt(f"block {index} does not link to its predecessor", height=index)
    if not hashes:
        raise LedgerCorrupt(f"a transaction id or the block hash does not recompute at height {index}", height=index)
    return block


def split_lines(data: bytes) -> tuple[list[bytes], bytes]:
    """The newline-terminated lines of `data`, and the bytes after the last
    newline (the whole of `data` when it has none)."""
    complete, sep, tail = data.rpartition(b"\n")
    if not sep:
        return [], data
    return (complete.split(b"\n") if complete else []), tail


class LineChain(Sequence):
    """A chain whose first blocks are kept as their ledger lines, each
    decoded only when it is indexed: what `storage.load_ledger` returns,
    which holds the lines' bytes instead of every decoded block.
    `chain + blocks` is a new LineChain that shares those lines, so
    `append_block` copies only the blocks after them."""

    def __init__(self, lines: list[bytes], blocks: list[Block] | None = None):
        self._lines = lines
        self._blocks = blocks or []

    def __len__(self) -> int:
        return len(self._lines) + len(self._blocks)

    def __getitem__(self, index: int) -> Block:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("chain index out of range")
        if index < len(self._lines):
            return parse_line(self._lines[index])
        return self._blocks[index - len(self._lines)]

    def __add__(self, blocks) -> "LineChain":
        return LineChain(self._lines, self._blocks + list(blocks))


@dataclass(frozen=True)
class AuditReport:
    valid: bool
    first_bad_height: int | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"valid": self.valid, "firstBadHeight": self.first_bad_height, "reason": self.reason}


@dataclass(frozen=True)
class TrustAnchors:
    ca_public_key: str
    governance_certs: dict
    peer_keys: dict  # peerId -> verification key hex
    peer_orgs: dict  # peerId -> org id
    policy: EndorsementPolicy

    @classmethod
    def from_genesis(cls, genesis: Block) -> "TrustAnchors":
        """The anchors in the genesis transaction's args. Anchors of the wrong
        shape (peers, governance or policy not an object, a peer without a
        string org and publicKey, a malformed certificate or policy) raise
        LedgerCorrupt at height 0."""
        try:
            args = genesis.txs[0].payload["args"]
            peers = typed(args.get("peers", {}), dict, "peers")
            return cls(
                ca_public_key=args.get("caPublicKey", ""),
                governance_certs={
                    name: Certificate.from_dict(cert)
                    for name, cert in typed(args.get("governance", {}), dict, "governance").items()
                },
                peer_keys={pid: typed(p["publicKey"], str, "publicKey") for pid, p in peers.items()},
                peer_orgs={pid: typed(p["org"], str, "org") for pid, p in peers.items()},
                policy=EndorsementPolicy.from_dict(typed(args.get("policy", {}), dict, "policy")),
            )
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, LedgerError) as exc:
            raise LedgerCorrupt(f"malformed trust anchors at height 0: {exc!r}", height=0) from None


def make_genesis_block(
    ca_public_key: str,
    governance_certs: dict,
    peers: dict,
    policy: EndorsementPolicy,
    genesis_time: int,
) -> Block:
    """Height-0 block carrying the bootstrap trust material. Its single
    transaction is unsigned: it *is* the trust anchor."""
    args = {
        "caPublicKey": ca_public_key,
        "governance": {name: cert.to_dict() for name, cert in governance_certs.items()},
        "peers": peers,
        "policy": policy.to_dict(),
    }
    tx = Transaction.build(OP_GENESIS, args, "network.genesis", genesis_time, key=None)
    return Block.build(0, ZERO_HASH, genesis_time, [tx])


def check_endorsements(tx: Transaction, trust: TrustAnchors) -> bool:
    """Whether the distinct endorsing peers satisfy the policy. Any listed
    endorsement that fails to verify fails the check: committed blocks
    never carry invalid endorsements, so one means tampering."""
    payload_bytes = tx.payload_bytes()
    peers: set[str] = set()
    for peer_id, sig_hex in tx.endorsements:
        key = trust.peer_keys.get(peer_id)
        if key is None or not verify_payload(key, payload_bytes, bytes.fromhex(sig_hex)):
            return False
        peers.add(peer_id)
    return trust.policy.satisfied({trust.peer_orgs.get(p, p) for p in peers}, len(peers))


def append_block(chain: Sequence[Block], txs, clock_now: int, trust: TrustAnchors) -> Sequence[Block]:
    """`chain` extended with one block, `chain` itself left as it was. Every
    transaction must already satisfy the endorsement policy; the clock may
    not run backwards."""
    if not chain:
        raise ValueError("append_block needs a genesis block in place")
    tip = chain[-1]
    if clock_now < tip.block_time:
        raise ClockRegression(f"block time {clock_now} precedes tip {tip.block_time}")
    txs = list(txs)
    for tx in txs:
        if not check_endorsements(tx, trust):
            raise PolicyUnsatisfied(f"tx {tx.tx_id[:12]} does not satisfy the endorsement policy")
    block = Block.build(tip.height + 1, tip.block_hash, clock_now, txs)
    return chain + [block]


class _VerifyContext:
    """Rolling verification state after the block at `height`: its hash
    and time, plus the caller verification keys learned so far (governance
    from genesis, CNAs from the certificates embedded in onboarding
    transactions). A fresh context stands before genesis. `to_dict` and
    `from_dict` carry it from one audit to the next."""

    def __init__(self) -> None:
        self.height = -1
        self.prev_hash = ZERO_HASH
        self.prev_time: int | None = None
        self.caller_keys: dict[str, str] = {}

    def to_dict(self) -> dict:
        return {
            "callerKeys": dict(self.caller_keys),
            "height": self.height,
            "prevTime": self.prev_time,
            "tipHash": self.prev_hash,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "_VerifyContext":
        """The context `to_dict` wrote, after at least the genesis block;
        ValueError or KeyError unless every field has its type."""
        ctx = cls()
        ctx.height = typed(obj["height"], int, "height")
        ctx.prev_hash = obj["tipHash"]
        ctx.prev_time = typed(obj["prevTime"], int, "prevTime")
        ctx.caller_keys = {
            name: typed(key, str, "callerKeys") for name, key in typed(obj["callerKeys"], dict, "callerKeys").items()
        }
        if ctx.height < 0 or not is_hex_digest(ctx.prev_hash, 64):
            raise ValueError("height must be non-negative and tipHash 64 lowercase hex chars")
        return ctx


def _onboarded_key(tx: Transaction, ca_public_key: str) -> tuple[str, str] | None:
    """(subject, key) from a CA-valid certificate embedded in an onboarding
    transaction. Whether the onboarding ultimately passed its governance
    guards is replay's business, not the signature verifier's: a CA-signed
    certificate authenticates its subject either way."""
    try:
        cert = Certificate.from_dict(tx.payload["args"].get("certificate"))
    except LedgerError:
        return None
    return (cert.subject, cert.public_key) if cert.signed_by(ca_public_key) else None


def _hashes_recompute(block: Block) -> bool:
    """Whether the block's tx ids hash their payloads and its hash its
    header. Encoding a payload nested too deep raises ValueError."""
    tx_ids = [sha256_hex(tx.payload_bytes()) for tx in block.txs]
    return tx_ids == [tx.tx_id for tx in block.txs] and block.block_hash == compute_block_hash(
        block.height, block.prev_hash, block.block_time, tx_ids
    )


def _verify_block(
    block: Block, ctx: _VerifyContext, trust: TrustAnchors
) -> tuple[str | None, dict[str, str]]:
    """Returns (reason or None, caller keys exported by this block). The
    caller has checked that the block's height is its index, so only the
    genesis block sees the context's first `prev_hash`, ZERO_HASH."""
    if block.prev_hash != ctx.prev_hash or not _hashes_recompute(block):
        return HASH_MISMATCH, {}
    return _verify_signed(block, ctx, trust)


def _verify_signed(
    block: Block, ctx: _VerifyContext, trust: TrustAnchors
) -> tuple[str | None, dict[str, str]]:
    """`_verify_block` of a block that has passed `checked_block` after the
    context's tip: the clock, the signatures and the endorsements."""
    if ctx.prev_time is not None and block.block_time < ctx.prev_time:
        return CLOCK_REGRESSION, {}

    if block.height == 0:
        # the genesis transaction is the trust anchor and carries no signature
        if len(block.txs) != 1 or block.txs[0].payload["op"] != OP_GENESIS:
            return SIGNATURE_INVALID, {}
        return None, {name: cert.public_key for name, cert in trust.governance_certs.items()}

    exported: dict[str, str] = {}
    for tx in block.txs:
        payload_bytes = tx.payload_bytes()
        caller = tx.payload["caller"]
        key = ctx.caller_keys.get(caller) or exported.get(caller)
        if (
            key is None
            or not is_hex_digest(tx.caller_signature, 128)
            or not verify_payload(key, payload_bytes, bytes.fromhex(tx.caller_signature))
        ):
            return SIGNATURE_INVALID, {}
        if not check_endorsements(tx, trust):
            return ENDORSEMENT_INSUFFICIENT, {}
        if tx.payload["op"] == OP_ONBOARD:
            entry = _onboarded_key(tx, trust.ca_public_key)
            if entry is not None:
                exported[entry[0]] = entry[1]
    return None, exported


class ChainAuditor:
    """Strict file auditor with per-line memoization.

    A line is accepted only if it passes `checked_block` (it decodes to a
    block at its own height that encodes back to exactly the line, with no
    added key, whitespace, escape or other spelling, and whose hashes
    recompute), and that block passes `_verify_signed`. A partial tail
    counts as corruption.

    An audit may resume where an earlier one of the same first lines
    ended: `start` is the context dict that audit returned. The trust
    anchors are then read from the genesis line, and every later line runs
    through the same loop and checks as in a full audit, which is that loop
    started before genesis. Whether those first lines are still the ones
    verified is the caller's to know (`storage.audit_file` digests them).

    Verdicts are cached on `(prev_hash, sha256(line))`: the hash that
    commits the line's context, and the line. The cache is only consulted
    once every earlier line has verified, and then the previous block's
    hash commits, through block hashes, tx ids and payloads, everything the
    context holds: the heights, the block times, the genesis anchors and
    every onboarded certificate. Signatures and endorsements are covered by
    no hash, but they never change the context. Re-auditing a file that
    differs in one line only re-verifies from the changed line on, which
    keeps exhaustive bit-flip sweeps tractable without weakening any check.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], tuple] = {}

    def audit_bytes(self, data: bytes) -> AuditReport:
        return self.audit(data)[0]

    def audit(self, data: bytes, start: dict | None = None) -> tuple[AuditReport, dict | None]:
        """The report on `data`, and for a valid one the context dict to
        resume from once more lines are appended. A `start` that is not the
        context after the block on its height's line, or names no line of
        `data`, raises ValueError."""
        lines, tail = split_lines(data)
        if tail:
            return AuditReport(valid=False, first_bad_height=len(lines), reason=HASH_MISMATCH), None
        if not lines:
            return AuditReport(valid=False, first_bad_height=0, reason=HASH_MISMATCH), None

        if start is None:
            ctx, trust = _VerifyContext(), None  # trust is read from the genesis line
        else:
            ctx, trust = _resume(lines, start)
        for index in range(ctx.height + 1, len(lines)):
            line = lines[index]
            key = (ctx.prev_hash, sha256_hex(line))
            hit = self._memo.get(key)
            if hit is None:
                hit = self._memo[key] = self._verify_line(index, line, ctx, trust)
            reason, exported, ctx.prev_hash, ctx.prev_time, trust = hit
            if reason is not None:
                return AuditReport(valid=False, first_bad_height=index, reason=reason), None
            ctx.caller_keys.update(exported)
            ctx.height = index
        return AuditReport(valid=True), ctx.to_dict()

    def _verify_line(self, index, line, ctx, trust):
        try:
            block = checked_block(index, line, ctx.prev_hash)
            if index == 0:
                trust = TrustAnchors.from_genesis(block)
        except LedgerCorrupt:
            return HASH_MISMATCH, {}, None, None, None
        reason, exported = _verify_signed(block, ctx, trust)
        return reason, exported, block.block_hash, block.block_time, trust


def _resume(lines: list[bytes], start: dict) -> tuple[_VerifyContext, TrustAnchors]:
    """The context and trust anchors to audit the lines after `start`'s
    height with. ValueError unless that height's line is the block whose
    hash and time `start` holds, and the genesis line holds the anchors."""
    try:
        ctx = _VerifyContext.from_dict(start)
        tip = parse_line(lines[ctx.height])
        trust = TrustAnchors.from_genesis(parse_line(lines[0]))
    except (IndexError, KeyError, LedgerCorrupt) as exc:
        raise ValueError(f"no block to resume after: {exc!r}") from None
    if (tip.height, tip.block_hash, tip.block_time) != (ctx.height, ctx.prev_hash, ctx.prev_time):
        raise ValueError(f"the block at height {ctx.height} is not the one the audit ended on")
    return ctx, trust


def verify_chain(chain: list[Block]) -> AuditReport:
    """The strict file audit of `chain` written out as block lines: every
    hash, link, signature, endorsement and the clock's monotonicity are
    recomputed, and the first violation is reported by height."""
    return ChainAuditor().audit_bytes(b"".join(block_line(b) for b in chain))


def apply_block(state: WorldState, block: Block) -> list:
    """Execute one committed block against the state. Guard failures are
    recorded, never fatal: the audit trail keeps the attempt."""
    state.begin_block(block.height, block.block_time)
    clock = ChainClock(block.block_time)
    events = []
    for tx_index, tx in enumerate(block.txs):
        try:
            events.extend(execute_transaction(state, tx.payload, clock))
        except LedgerCorrupt:
            raise  # a checkpoint line that does not decode: no verdict on the transaction
        except LedgerError as exc:
            state.record_failure(block.height, tx_index, tx.tx_id, exc.code)
    return events


def commit_block(state: WorldState, tip_hash: str, block: Block) -> str:
    """Apply `block` if it links to the tip hash `tip_hash`; the new tip hash.
    A block that does not link raises LedgerCorrupt with its height and
    leaves the state as it was."""
    if block.prev_hash != tip_hash:
        raise LedgerCorrupt(f"block {block.height} does not link to its predecessor", height=block.height)
    apply_block(state, block)
    return block.block_hash


def replay(chain: list[Block]) -> WorldState:
    """Fold `commit_block` over the chain from the zero hash: the one path
    from blocks to state, so every reader refuses a broken link at its
    height. Links are all it checks: `storage.load_ledger` also runs
    `checked_block` on each line it folds, and only `verify_chain` and the
    file auditor verify signatures."""
    state, tip = WorldState(), ZERO_HASH
    for block in chain:
        tip = commit_block(state, tip, block)
    return state


def record_commitment(record: CveRecord) -> str:
    """`content_commitment(record)`, computed once per record object."""
    return kept(record, "_commitment", content_commitment)


def _registry_entry_bytes(record: CveRecord) -> bytes:
    # `"<id>":<internal record>`, the record's entry in the snapshot's
    # registry; an id is ASCII letters, digits and dashes, which JSON quotes as is
    return kept(
        record, "_registry_entry",
        lambda r: b'"%s":%s' % (str(r.cve_id).encode(), to_canonical_bytes(record_to_dict(r, internal=True))),
    )


def _event_bytes(event: Event) -> bytes:
    return kept(event, "_canonical", lambda e: to_canonical_bytes(e.to_dict()))


def snapshot_lines(state: WorldState) -> tuple[dict, list[bytes], list[bytes]]:
    """`state.to_dict()` in the pieces a state checkpoint holds: the summary
    dict, the registry entries `"<id>":{...}` in key order, and the events
    in log order. Entries and events are the canonical bytes kept on each
    record and event, so only what is new since the last call is encoded;
    those a checkpoint-loaded state still holds as lines are spliced as they
    are, undecoded. Registry keys sort as strings (CVE-2025-10000 before
    CVE-2025-9999), and so do the entries as bytes, since `"` sorts before
    every character of an id. An entry is keyed by its record's id, which
    is the key `WorldState.store` files it under."""
    registry, log = state.cve_registry, state.event_log
    if isinstance(registry, SnapshotRegistry):
        entries = registry.entry_lines()
    else:
        entries = list(map(_registry_entry_bytes, registry.values()))
    events = log.event_lines() if isinstance(log, SnapshotLog) else list(map(_event_bytes, log))
    return state.summary_dict(), sorted(entries), events


# What decoding a sidecar line raises on bytes that hold no header, record or event.
DECODE_ERRORS = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError, LedgerError)

# Every draft's entry holds this, and no other entry the writer spells does:
# canonical JSON escapes each quote inside a string, so only a key spells it,
# and no object nested in a record has a `status` key.
_DRAFT_MARK = b'"status":"DRAFT"'


def _corrupt(source: str, what: str, why) -> LedgerCorrupt:
    return LedgerCorrupt(
        f"{what} in the state checkpoint {source} does not decode ({why}); "
        f"delete {source} to load the ledger from genesis"
    )


# a writer spells every checkpoint line canonically, as it does a block line;
# a NaN, an infinity or `1e400` decodes, but canonical JSON cannot re-encode it
_NOT_EXACT = "it is not the exact encoding of what it decodes to"


class _CheckpointLines:
    """The registry entries (by id text) and the event lines of a trusted
    state checkpoint, and what has been decoded of them: what every copy of
    a state loaded from it shares. A line decodes to an equal record or
    event whenever it is decoded, so the first decode serves every copy;
    threads racing on one line each decode an equal value, and either write
    wins."""

    def __init__(self, source: str, entries: dict[str, bytes], events: list[bytes]):
        self.source = source
        self.entries = entries
        self.events = events
        self.records: dict[str, CveRecord] = {}
        self.decoded_events: list[Event | None] = [None] * len(events)

    def cve_id(self, text: str) -> CveId:
        """The id an entry is keyed by, spelled canonically."""
        try:
            cid = parse_cve_id(text)
        except LedgerError as exc:
            raise _corrupt(self.source, f"the entry key {text!r}", exc) from None
        if str(cid) != text:
            raise _corrupt(self.source, f"the entry key {text!r}", "not a canonical id")
        return cid

    def record(self, text: str) -> CveRecord:
        """The record of the entry keyed `text`, whose line must be exactly
        its registry entry bytes, id included, and is kept as them; KeyError
        if the checkpoint holds no such entry."""
        record = self.records.get(text)
        if record is None:
            line = self.entries[text]
            try:
                [obj] = json.loads((b"{%s}" % line).decode("utf-8")).values()
                record = record_from_dict(typed(obj, dict, "record"))
                exact = _registry_entry_bytes(record) == line
            except DECODE_ERRORS as exc:
                raise _corrupt(self.source, f"the entry of {text}", repr(exc)) from None
            if not exact:
                raise _corrupt(self.source, f"the entry of {text}", _NOT_EXACT)
            object.__setattr__(record, "_registry_entry", line)
            self.records[text] = record
        return record

    def event(self, index: int) -> Event:
        """The event on the line at `index`, which must be its exact bytes and is kept as them."""
        event = self.decoded_events[index]
        if event is None:
            line = self.events[index]
            try:
                event = Event.from_dict(typed(json.loads(line.decode("utf-8")), dict, "event"))
                exact = _event_bytes(event) == line
            except DECODE_ERRORS as exc:
                raise _corrupt(self.source, f"event {index}", repr(exc)) from None
            if not exact:
                raise _corrupt(self.source, f"event {index}", _NOT_EXACT)
            object.__setattr__(event, "_canonical", line)
            self.decoded_events[index] = event
        return event


class SnapshotRegistry(Mapping):
    """The registry of a state loaded from a checkpoint: a mapping of
    `CveId` to record, like the `dict` a replay builds, in which each record
    the checkpoint holds stays its entry line until it is first read.
    Records stored since the load are kept apart and shadow their id's
    line. Records are never removed from a registry, so there is no `del`.
    A filtered query decodes only the lines `scan` finds; building the
    query index decodes every record."""

    def __init__(self, lines: _CheckpointLines, own: dict | None = None, added: int = 0):
        self._lines = lines
        self._own: dict[CveId, CveRecord] = {} if own is None else own
        self._added = added  # ids in `_own` that the checkpoint holds no entry for

    def __getitem__(self, cid) -> CveRecord:
        record = self._own.get(cid)
        if record is not None:
            return record
        if not isinstance(cid, CveId):
            raise KeyError(cid)
        return self._lines.record(str(cid))

    def __contains__(self, cid) -> bool:
        return cid in self._own or (isinstance(cid, CveId) and str(cid) in self._lines.entries)

    def __setitem__(self, cid: CveId, record: CveRecord) -> None:
        if cid not in self:
            self._added += 1
        self._own[cid] = record

    def __len__(self) -> int:
        return len(self._lines.entries) + self._added

    def __iter__(self):
        entries = self._lines.entries
        yield from map(self._lines.cve_id, entries)
        yield from (cid for cid in self._own if str(cid) not in entries)

    def copy(self) -> "SnapshotRegistry":
        """An equal registry sharing the checkpoint's lines and decodes."""
        return SnapshotRegistry(self._lines, dict(self._own), self._added)

    def _held(self):
        """(id text, line) of each entry no record stored since shadows."""
        shadowed = {str(cid) for cid in self._own}
        return ((text, line) for text, line in self._lines.entries.items() if text not in shadowed)

    def entry_lines(self) -> list[bytes]:
        """The registry entries of `snapshot_lines`, unsorted."""
        return [line for _, line in self._held()] + list(map(_registry_entry_bytes, self._own.values()))

    def scan(self, keys) -> list[CveId]:
        """The ids of the records a `query_public` filter on every
        `(field, value)` of `keys` may match, decoding no line: each filter
        keeps the lines the one before kept that may spell its value, and
        every record stored since the load is taken; the predicate decides."""
        held = list(self._held())
        for field, value in keys:
            if field == "year":
                prefix = f"CVE-{value}-"
                held = [(text, line) for text, line in held if text.startswith(prefix)]
            else:
                name = {"status": b"status", "submitter": b"submitterCNA", "product": b"product"}[field]
                # a CveStatus is a str; surrogatepass: a value no line can spell still makes a needle
                needle = b'"%s":%s' % (name, to_canonical_json(value).encode("utf-8", "surrogatepass"))
                key = b'"%s":"' % name
                held = [(text, line) for text, line in held if _may_spell(line, key, needle)]
        return [*(self._lines.cve_id(text) for text, _ in held), *self._own]


def _may_spell(line: bytes, key: bytes, needle: bytes) -> bool:
    """Whether an entry `line` may hold a record whose field is the value a
    writer spells `needle` (`"<name>":<canonical JSON>`): it holds the
    needle, lacks `key` (`"<name>":"`), or holds an escape in the value
    after its first `key`. A writer nests no such key, so an escaped,
    re-spaced or missing value is decoded and refused, but a forged value
    behind a nested key of its name is left unread."""
    if needle in line:
        return True
    start = line.find(key)
    end = line.find(b'"', start + len(key))
    return start < 0 or end < 0 or b"\\" in line[start:end]


class SnapshotLog(Sequence):
    """The event log of a state loaded from a checkpoint: a sequence of
    events, like the `list` a replay builds, in which each event the
    checkpoint holds stays its line until it is first indexed. Events
    appended since the load are kept apart."""

    def __init__(self, lines: _CheckpointLines, own: list[Event] | None = None):
        self._lines = lines
        self._own: list[Event] = [] if own is None else own

    def __len__(self) -> int:
        return len(self._lines.events) + len(self._own)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("event log index out of range")
        held = len(self._lines.events)
        return self._lines.event(index) if index < held else self._own[index - held]

    def append(self, event: Event) -> None:
        self._own.append(event)

    def copy(self) -> "SnapshotLog":
        """An equal log sharing the checkpoint's lines and decodes."""
        return SnapshotLog(self._lines, list(self._own))

    def event_lines(self) -> list[bytes]:
        """The events of `snapshot_lines`."""
        return [*self._lines.events, *map(_event_bytes, self._own)]


def state_from_snapshot(
    summary: dict, entries: list[bytes], events: list[bytes], height: int, source: str
) -> WorldState:
    """The inverse of `snapshot_lines`: the state after the block at
    `height` whose snapshot is these lines of the trusted state checkpoint
    `source`. Only the summary and the drafts (for the embargo heap) are
    decoded now. The registry and the event log are a `SnapshotRegistry`
    and a `SnapshotLog` over the lines, which decode a record or an event
    when it is first read, once for every copy of the state, and keep its
    line as its canonical bytes; `state_hash` splices the lines undecoded.
    Lines that hold no snapshot raise LedgerCorrupt naming `source`, here
    or when they are read: a summary of the wrong shape, entries out of id
    order, an entry whose record does not decode or has another id, or an
    event that does not decode."""
    try:
        by_id = {line[1 : line.index(b'"', 1)].decode("utf-8"): line for line in entries}
    except ValueError as exc:  # a line without a quoted key
        raise _corrupt(source, "the registry", repr(exc)) from None
    if len(by_id) != len(entries) or entries != sorted(entries):
        raise _corrupt(source, "the registry", "its entries are not one per id in id order")
    lines = _CheckpointLines(source, by_id, events)
    drafts = []
    for text, line in by_id.items():
        if _DRAFT_MARK in line:
            record = lines.record(text)
            if record.status is CveStatus.DRAFT:
                drafts.append(record)
    try:
        return WorldState.from_summary(summary, height, SnapshotRegistry(lines), SnapshotLog(lines), drafts)
    except DECODE_ERRORS as exc:
        raise _corrupt(source, "the summary", repr(exc)) from None


def state_hash(state: WorldState) -> str:
    """SHA-256 of the canonical state snapshot; equal states, equal hashes.

    The digest is that of `to_canonical_bytes(state.to_dict())`, which the
    tests keep as the oracle, but that snapshot is never built: its registry
    and event log, nearly all of its bytes, are spliced from the kept bytes
    of `snapshot_lines`, in the key order and separators of
    `to_canonical_json`; only the summary is encoded per call.
    """
    return snapshot_hash(*snapshot_lines(state))


def snapshot_hash(summary: dict, entries: list[bytes], events: list[bytes]) -> str:
    """`state_hash` of the state whose `snapshot_lines` are these."""
    parts = {key: to_canonical_bytes(value) for key, value in summary.items()}
    parts["cveRegistry"] = b"{" + b",".join(entries) + b"}"
    parts["eventLog"] = b"[" + b",".join(events) + b"]"
    digest = hashlib.sha256()
    for index, key in enumerate(sorted(parts)):
        digest.update(b'%s"%s":' % (b"," if index else b"{", key.encode()))
        digest.update(parts[key])
    digest.update(b"}")
    return digest.hexdigest()


def record_view(record: CveRecord, clock_now: int) -> dict:
    """Public projection of one record. While content is withheld the view
    carries a commitment hash instead of description/product/version."""
    view = {
        "annotations": [a.to_dict() for a in record.annotations],
        "createdAt": record.created_at,
        "cveID": str(record.cve_id),
        "embargoUntil": record.embargo_until,
        "references": list(record.references),
        "severity": record.severity.to_dict(),
        "status": record.status.value,
        "submitterCNA": record.submitter,
        "updatedAt": record.updated_at,
    }
    if is_content_withheld(record, clock_now):
        view["contentCommitment"] = record_commitment(record)
    else:
        view["description"] = record.description
        view["product"] = record.product
        view["version"] = [r.to_dict() for r in record.version]
    return view


def record_view_bytes(record: CveRecord, clock_now: int) -> bytes:
    """`to_canonical_bytes(record_view(record, clock_now))`, kept on the
    record. The clock enters a view only through `is_content_withheld`, so
    a record has at most two views, withheld and public, and each is
    computed once per record object whatever the clock."""
    key = "_view_withheld" if is_content_withheld(record, clock_now) else "_view_public"
    return kept(record, key, lambda r: to_canonical_bytes(record_view(r, clock_now)))


def query_public(
    state: WorldState,
    *,
    cve_id=None,
    status: CveStatus | None = None,
    product: str | None = None,
    year: int | None = None,
    submitter: str | None = None,
    view: Callable | None = None,
) -> list:
    """Filtered public views, ascending id order: `view(record, clock)` of
    each match, `record_view` when `view` is None. The HTTP list route
    passes `record_view_bytes` and joins the rows. Content filters (product)
    never match records whose content is still withheld: matching would
    leak the hidden field through the filter.

    The candidates narrow, the predicate decides: an id lookup, or else
    the smallest bucket of `state.query_index()` among the filters (the
    year buckets in ascending year when none is given), picks the
    candidate records, already in id order, and the per-record checks
    below decide every one, withheld content included. On a
    checkpoint-loaded state, as in a one-shot `cveledger query`,
    `SnapshotRegistry.scan` of all the filters picks them instead, so only
    the lines it takes are decoded and no index is built."""
    if view is None:
        view = record_view
    now = state.clock_now
    registry = state.cve_registry
    keys = [
        (f, v)
        for f, v in (("status", status), ("submitter", submitter), ("product", product), ("year", year))
        if v is not None
    ]
    if cve_id is not None:
        candidates = [registry[cve_id]] if cve_id in registry else []
    elif isinstance(registry, SnapshotRegistry):
        candidates = sorted(map(registry.__getitem__, registry.scan(keys)), key=ID_ORDER)
    elif keys:
        index = state.query_index()
        candidates = min((index.get(key, ()) for key in keys), key=len)
    else:
        index = state.query_index()
        years = sorted(key for key in index if key[0] == "year")
        candidates = itertools.chain.from_iterable(map(index.__getitem__, years))
    out = []
    for record in candidates:
        cid = record.cve_id
        if cve_id is not None and cid != cve_id:
            continue
        if status is not None and record.status is not status:
            continue
        if year is not None and cid.year != year:
            continue
        if submitter is not None and record.submitter != submitter:
            continue
        if product is not None and (is_content_withheld(record, now) or record.product != product):
            continue
        out.append(view(record, now))
    return out
