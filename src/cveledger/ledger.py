"""Hash-chained block store: build, verify, replay, query.

Blocks chain by SHA-256; transaction ids hash the canonical payload bytes;
caller and endorsement signatures cover those same bytes. Together every
byte of a serialized block is covered by at least one check, so any
post-commit mutation is detectable.

Verification is chain-self-contained: the trust root (CA key, bootstrap
governance certificates, peer keys, endorsement policy) lives in the
genesis block, and CNA verification keys enter via the certificates
embedded in onboarding transactions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .canonical import ZERO_HASH, is_hex_digest, sha256_hex, to_canonical_bytes, typed
from .chaincode import (
    ChainClock,
    Event,
    OP_GENESIS,
    OP_ONBOARD,
    WorldState,
    content_commitment,
    execute_transaction,
    is_content_withheld,
)
from .errors import ClockRegression, LedgerCorrupt, LedgerError, PolicyUnsatisfied
from .identity import Certificate, KeyPair, sign_payload, verify_payload
from .records import CveRecord, CveStatus, record_to_dict
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
        return cls(payload=payload, tx_id=sha256_hex(payload_bytes), caller_signature=sig)

    def payload_bytes(self) -> bytes:
        return to_canonical_bytes(self.payload)

    def with_endorsements(self, endorsements) -> "Transaction":
        return Transaction(
            payload=self.payload,
            tx_id=self.tx_id,
            caller_signature=self.caller_signature,
            endorsements=tuple((str(p), str(s)) for p, s in endorsements),
        )

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


def _valid_endorsers(tx: Transaction, trust: TrustAnchors) -> tuple[set[str], int] | None:
    """(orgs, count) of the endorsements, or None when any listed
    endorsement fails to verify — committed blocks never carry invalid
    endorsements, so one means tampering."""
    payload_bytes = tx.payload_bytes()
    orgs: set[str] = set()
    seen: set[str] = set()
    for peer_id, sig_hex in tx.endorsements:
        key = trust.peer_keys.get(peer_id)
        if key is None or not verify_payload(key, payload_bytes, bytes.fromhex(sig_hex)):
            return None
        if peer_id not in seen:
            seen.add(peer_id)
            orgs.add(trust.peer_orgs.get(peer_id, peer_id))
    return orgs, len(seen)


def check_endorsements(tx: Transaction, trust: TrustAnchors) -> bool:
    result = _valid_endorsers(tx, trust)
    if result is None:
        return False
    orgs, count = result
    return trust.policy.satisfied(orgs, count)


def append_block(chain: list[Block], txs, clock_now: int, trust: TrustAnchors) -> list[Block]:
    """Extend the chain with one block. Every transaction must already
    satisfy the endorsement policy; the clock may not run backwards."""
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
    """Rolling verification state: previous block linkage plus the caller
    verification keys learned so far (governance from genesis, CNAs from
    the certificates embedded in onboarding transactions)."""

    def __init__(self) -> None:
        self.prev_hash = ZERO_HASH
        self.prev_time: int | None = None
        self.caller_keys: dict[str, str] = {}
        self.ca_public_key = ""

    def keyring_fingerprint(self) -> str:
        return sha256_hex(
            to_canonical_bytes([self.ca_public_key, sorted(self.caller_keys.items())])
        )


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


def _verify_block(
    block: Block, ctx: _VerifyContext, trust: TrustAnchors
) -> tuple[str | None, dict[str, str]]:
    """Returns (reason or None, caller keys exported by this block)."""
    if block.height == 0:
        if block.prev_hash != ZERO_HASH:
            return HASH_MISMATCH, {}
    elif block.prev_hash != ctx.prev_hash:
        return HASH_MISMATCH, {}

    for tx in block.txs:
        if sha256_hex(tx.payload_bytes()) != tx.tx_id:
            return HASH_MISMATCH, {}
    recomputed = compute_block_hash(
        block.height, block.prev_hash, block.block_time, [t.tx_id for t in block.txs]
    )
    if recomputed != block.block_hash:
        return HASH_MISMATCH, {}
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
            entry = _onboarded_key(tx, ctx.ca_public_key)
            if entry is not None:
                exported[entry[0]] = entry[1]
    return None, exported


def verify_chain(chain: list[Block]) -> AuditReport:
    """The strict file audit of `chain` written out as block lines: every
    hash, link, signature, endorsement and the clock's monotonicity are
    recomputed, and the first violation is reported by height."""
    from .storage import ChainAuditor, block_line  # storage imports this module

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
    height. Links are all it checks; hashes and signatures are recomputed
    only by `verify_chain` and the file auditor."""
    state, tip = WorldState(), ZERO_HASH
    for block in chain:
        tip = commit_block(state, tip, block)
    return state


def _kept(obj, key: str, compute: Callable):
    """`compute(obj)`, computed on the first call and kept as the attribute
    `key` (a name no field has) of the frozen `obj`, set the way a frozen
    dataclass's own `__init__` sets its fields. Records and events are
    frozen and every change builds a new object, so a kept value never goes
    stale. Handler threads may race on a first call: each computes the same
    value, and either write wins."""
    value = getattr(obj, key, None)
    if value is None:
        value = compute(obj)
        object.__setattr__(obj, key, value)
    return value


def record_commitment(record: CveRecord) -> str:
    """`content_commitment(record)`, computed once per record object."""
    return _kept(record, "_commitment", content_commitment)


def _registry_entry_bytes(record: CveRecord) -> bytes:
    # `"<id>":<internal record>`, the record's entry in the snapshot's
    # registry; an id is ASCII letters, digits and dashes, which JSON quotes as is
    return _kept(
        record, "_registry_entry",
        lambda r: b'"%s":%s' % (str(r.cve_id).encode(), to_canonical_bytes(record_to_dict(r, internal=True))),
    )


def _event_bytes(event: Event) -> bytes:
    return _kept(event, "_canonical", lambda e: to_canonical_bytes(e.to_dict()))


def state_hash(state: WorldState) -> str:
    """SHA-256 of the canonical state snapshot; equal states, equal hashes.

    The digest is that of `to_canonical_bytes(state.to_dict())`, which the
    tests keep as the oracle, but that snapshot is never built. Its registry
    and event log, nearly all of its bytes, are spliced from canonical bytes
    kept on each record and event, in the key order and separators of
    `to_canonical_json`; only `state.summary_dict()` is encoded per call.
    Registry keys sort as strings (CVE-2025-10000 before CVE-2025-9999), and
    so do the entries `"<id>":{...}` as bytes, since `"` sorts before every
    character of an id. An entry is keyed by its record's id, which is the
    key `WorldState.store` files it under.
    """
    parts = {key: to_canonical_bytes(value) for key, value in state.summary_dict().items()}
    entries = sorted(map(_registry_entry_bytes, state.cve_registry.values()))
    parts["cveRegistry"] = b"{" + b",".join(entries) + b"}"
    parts["eventLog"] = b"[" + b",".join(map(_event_bytes, state.event_log)) + b"]"
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
    return _kept(record, key, lambda r: to_canonical_bytes(record_view(r, clock_now)))


# the order of CveId as a C-level sort key: the dataclass's own comparison
# runs Python code on every compare
_ID_ORDER = attrgetter("year", "sequence")


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

    The index narrows, the predicate decides: an id lookup, or else the
    smallest bucket of `state.query_index()` among the status, submitter,
    product and year filters, picks the candidates (the whole registry when
    none of those is given), and the per-record checks below decide every
    candidate, withheld content included. That is exact as long as every
    match is in its bucket, which `store` keeps true once the index is
    built."""
    if view is None:
        view = record_view
    now = state.clock_now
    registry = state.cve_registry
    if cve_id is not None:
        candidates = [cve_id] if cve_id in registry else []
    else:
        keys = [
            (f, v)
            for f, v in (("status", status), ("submitter", submitter), ("product", product), ("year", year))
            if v is not None
        ]
        if keys:
            index = state.query_index()
            candidates = sorted(min((index.get(key, ()) for key in keys), key=len), key=_ID_ORDER)
        else:
            candidates = sorted(registry, key=_ID_ORDER)
    out = []
    for cid in candidates:
        record = registry[cid]
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
