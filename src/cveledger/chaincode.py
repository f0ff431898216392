"""Deterministic transaction execution against the world state.

Handlers validate every guard before the first mutation, so a raised
`LedgerError` always leaves the state untouched; `check_only=True` runs the
guards and stops at the guard/mutation boundary (endorsement-time
simulation). Execution never reads the wall clock: `ChainClock` carries the
ordering service's per-block timestamp.

Embargoed submissions keep their description/product/version out of every
public view until release. The plaintext (plus a salt) rides in the
transaction as an envelope; handlers store it in the registry and the query
layer withholds it, exposing only a salted commitment hash that binds the
submitter to the content revealed later.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .canonical import hash_obj, is_hex_digest
from .errors import (
    AlreadyAuthorized,
    BadCertificate,
    ClockViolation,
    DuplicateCveId,
    IllegalTransition,
    LedgerError,
    NotAuthorizedCna,
    NotGovernance,
    NotSubmitter,
    SchemaViolation,
    UnauthorizedCaller,
    UnknownCveId,
    UnknownOperation,
    YearOutOfRange,
)
from .identity import Certificate, ROLE_CNA, is_valid_participant_id, verify_payload
from .records import (
    DISPUTED_PREFIX,
    CveId,
    CveRecord,
    CveStatus,
    MIN_YEAR,
    Violation,
    parse_cve_id,
    record_from_dict,
    record_to_dict,
    status_transition_valid,
    validate_schema,
)

# Hidden drafts cannot linger forever: embargoes may reach at most this far
# past the block clock.
EMBARGO_HORIZON_SECONDS = 400 * 86400

OP_GENESIS = "Genesis"
OP_SUBMIT = "SubmitCVE"
OP_UPDATE_STATUS = "UpdateCVEStatus"
OP_CHECK_EMBARGO = "CheckEmbargoReleases"
OP_ONBOARD = "OnboardCNA"
OP_REVOKE = "RevokeCNA"


@dataclass(frozen=True)
class ChainClock:
    """Block timestamp from the ordering service; identical for every
    transaction in one block and non-decreasing across blocks."""

    now: int


@dataclass(frozen=True)
class Event:
    kind: str
    subject: str
    block_height: int
    tx_index: int
    payload: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "blockHeight": self.block_height,
            "txIndex": self.tx_index,
            "payload": self.payload,
        }


class WorldState:
    """Materialized view obtained by replaying the ledger.

    Mutable, but only op handlers touch it, and only after their guards
    pass. Holds the CVE registry, the authorized-CNA set, governance
    membership, id counters, and the append-only event log.

    `_embargo_heap` is a derived index, not part of `to_dict()`: a min-heap
    of `(embargo_until, year, sequence)`, one entry per draft ever stored.
    `submit_cve` is the only place a DRAFT comes into being (no entry of
    `LEGAL_TRANSITIONS` leads into DRAFT and split creates only PUBLISHED
    records), so pushing there covers every draft. Entries go stale when
    a draft is rejected or released early; the sweep drops them lazily.
    """

    def __init__(self) -> None:
        self.cve_registry: dict[CveId, CveRecord] = {}
        self.authorized_cnas: dict[str, str] = {}
        self.governance_members: set[str] = set()
        self.id_counters: dict[int, int] = {}
        self.event_log: list[Event] = []
        # full certificates accumulated from genesis + onboarding txs, so
        # signature checks need nothing outside the chain
        self.certificates: dict[str, Certificate] = {}
        self.ca_public_key: str = ""
        self.failed_txs: list[dict] = []
        self.clock_now: int = 0
        self._height: int = 0
        self._event_seq: int = 0
        self._embargo_heap: list[tuple[int, int, int]] = []

    def begin_block(self, height: int, block_time: int) -> None:
        self._height = height
        self._event_seq = 0
        self.clock_now = block_time

    def _emit(self, kind: str, subject: str, payload: dict) -> Event:
        event = Event(
            kind=kind,
            subject=subject,
            block_height=self._height,
            # per-block event ordinal: strictly increasing even when one
            # transaction emits several events
            tx_index=self._event_seq,
            payload=payload,
        )
        self._event_seq += 1
        self.event_log.append(event)
        return event

    def record_failure(self, height: int, tx_index: int, tx_id: str, code: str) -> None:
        self.failed_txs.append(
            {"height": height, "txIndex": tx_index, "txId": tx_id, "code": code}
        )

    def to_dict(self) -> dict:
        """Canonical snapshot (internal form: committed drafts keep their
        plaintext and salt here; public views are derived elsewhere)."""
        return {
            "authorizedCNAs": dict(sorted(self.authorized_cnas.items())),
            "caPublicKey": self.ca_public_key,
            "certificates": {s: c.to_dict() for s, c in sorted(self.certificates.items())},
            "clockNow": self.clock_now,
            "cveRegistry": {
                str(cid): record_to_dict(rec, internal=True)
                for cid, rec in sorted(self.cve_registry.items())
            },
            "eventLog": [e.to_dict() for e in self.event_log],
            "failedTxs": list(self.failed_txs),
            "governanceMembers": sorted(self.governance_members),
            "idCounters": {str(y): n for y, n in sorted(self.id_counters.items())},
        }


def content_commitment(record: CveRecord) -> str:
    """Salted binding of the withheld fields of an embargoed record."""
    return hash_obj(
        {
            "description": record.description,
            "product": record.product,
            "salt": record.embargo_salt or "",
            "version": [r.to_dict() for r in record.version],
        }
    )


def is_content_withheld(record: CveRecord, clock_now: int) -> bool:
    """Content stays hidden while the record is a draft or its embargo
    still lies in the future (covers drafts rejected before release)."""
    if record.status is CveStatus.DRAFT:
        return True
    return record.embargo_until is not None and record.embargo_until > clock_now


def _require_record(state: WorldState, cve_id: CveId) -> CveRecord:
    record = state.cve_registry.get(cve_id)
    if record is None:
        raise UnknownCveId(f"no record for {cve_id}")
    return record


def _require_governance(state: WorldState, caller: str) -> None:
    if caller not in state.governance_members:
        raise NotGovernance(f"{caller} is not a governance member")


def submit_cve(
    state: WorldState,
    record: CveRecord,
    caller: str,
    clock: ChainClock,
    *,
    salt: str | None = None,
    check_only: bool = False,
) -> tuple[WorldState, Event | None]:
    """Register a new CVE. Embargoed submissions land as DRAFT, everything
    else publishes immediately (embargoUntil > now decides)."""
    if caller not in state.authorized_cnas:
        raise UnauthorizedCaller(f"{caller} is not an authorized CNA")
    if record.cve_id in state.cve_registry:
        raise DuplicateCveId(f"{record.cve_id} already registered")

    embargoed = record.embargo_until is not None and record.embargo_until > clock.now
    if record.embargo_until is not None and record.embargo_until > clock.now + EMBARGO_HORIZON_SECONDS:
        raise ClockViolation(
            f"embargo {record.embargo_until} exceeds the {EMBARGO_HORIZON_SECONDS}s horizon"
        )
    stored = record.with_(
        status=CveStatus.DRAFT if embargoed else CveStatus.PUBLISHED,
        submitter=caller,
        created_at=clock.now,
        updated_at=clock.now,
        embargo_salt=(salt or "") if embargoed else None,
    )
    violations = validate_schema(stored)
    if violations:
        raise SchemaViolation(violations)

    if check_only:
        return state, None
    state.cve_registry[stored.cve_id] = stored
    year = stored.cve_id.year
    state.id_counters[year] = max(state.id_counters.get(year, 0), stored.cve_id.sequence)
    if embargoed:
        heapq.heappush(state._embargo_heap, (stored.embargo_until, year, stored.cve_id.sequence))
    event = state._emit(
        "CVESubmitted", str(stored.cve_id), {"cveID": str(stored.cve_id), "status": stored.status.value}
    )
    return state, event


def update_cve_status(
    state: WorldState,
    cve_id: CveId,
    new_status: CveStatus,
    caller: str,
    clock: ChainClock,
    *,
    check_only: bool = False,
) -> tuple[WorldState, Event | None]:
    """Move a record along the lifecycle. The submitter may do this per the
    contract; governance may override (third-party corrections)."""
    record = _require_record(state, cve_id)
    if caller != record.submitter and caller not in state.governance_members:
        raise NotSubmitter(f"{caller} is neither submitter nor governance")
    if not status_transition_valid(record.status, new_status):
        raise IllegalTransition(f"{record.status.value} -> {new_status.value}")
    if new_status in (CveStatus.REJECTED, CveStatus.DISPUTED):
        # these states require annotations; only RejectCVE / DisputeCVE
        # carry the reason or note needed to keep the record well-formed
        raise IllegalTransition(
            f"transition into {new_status.value} must go through the dedicated correction op"
        )

    changes: dict = {"status": new_status, "updated_at": clock.now}
    if record.status is CveStatus.DISPUTED and new_status is CveStatus.PUBLISHED:
        changes["description"] = record.description.removeprefix(DISPUTED_PREFIX)
    if record.status is CveStatus.DRAFT and new_status is CveStatus.PUBLISHED:
        # voluntary early release: the embargo ends now, making the content
        # public from this block on
        changes["embargo_until"] = clock.now

    if check_only:
        return state, None
    old = record.status
    state.cve_registry[cve_id] = record.with_(**changes)
    event = state._emit(
        "CVEStatusChanged",
        str(cve_id),
        {"cveID": str(cve_id), "from": old.value, "to": new_status.value},
    )
    return state, event


def check_embargo_releases(
    state: WorldState, clock: ChainClock, *, check_only: bool = False
) -> tuple[WorldState, list[Event]]:
    """Publish every draft whose embargo has passed (boundary inclusive:
    embargoUntil == now releases). Ascending id order; idempotent.

    Pops the due entries of `state._embargo_heap` instead of scanning the
    registry. A popped entry counts only while the registry still holds
    that id as a DRAFT with the same embargo; entries of drafts rejected
    or released early are dropped here. Correct only because no status
    transition leads back into DRAFT. The dry run has no guard to check,
    so `check_only=True` returns before touching the heap.
    """
    if check_only:
        return state, []
    heap = state._embargo_heap
    due = []
    while heap and heap[0][0] <= clock.now:
        until, year, sequence = heapq.heappop(heap)
        cid = CveId(year=year, sequence=sequence)
        record = state.cve_registry.get(cid)
        if record is not None and record.status is CveStatus.DRAFT and record.embargo_until == until:
            due.append(cid)
    events = []
    for cid in sorted(due):
        record = state.cve_registry[cid]
        state.cve_registry[cid] = record.with_(status=CveStatus.PUBLISHED, updated_at=clock.now)
        events.append(state._emit("EmbargoReleased", str(cid), {"cveID": str(cid)}))
    return state, events


def onboard_cna(
    state: WorldState,
    cna_id: str,
    cert_hash: str,
    caller: str,
    *,
    certificate: Certificate | None = None,
    check_only: bool = False,
) -> tuple[WorldState, Event | None]:
    """Governance admits a CNA by pinning its certificate fingerprint.

    The full certificate travels in the transaction so replay and audit can
    re-verify the CA signature from chain bytes alone.
    """
    _require_governance(state, caller)
    if not is_valid_participant_id(cna_id):
        raise BadCertificate(f"bad CNA id: {cna_id!r}")
    if cna_id in state.authorized_cnas:
        raise AlreadyAuthorized(f"{cna_id} already authorized")
    if certificate is None or not is_hex_digest(cert_hash, 64):
        raise BadCertificate("onboarding requires the certificate and its hash")
    if certificate.subject != cna_id:
        raise BadCertificate(f"certificate subject {certificate.subject!r} is not {cna_id!r}")
    if certificate.role != ROLE_CNA:
        raise BadCertificate(f"certificate role {certificate.role!r} is not {ROLE_CNA}")
    if certificate.cert_hash() != cert_hash:
        raise BadCertificate("certificate hash mismatch")
    if not is_hex_digest(certificate.ca_signature, 128) or not verify_payload(
        state.ca_public_key,
        certificate.signing_bytes(),
        bytes.fromhex(certificate.ca_signature),
    ):
        raise BadCertificate("CA signature does not verify")

    if check_only:
        return state, None
    state.authorized_cnas[cna_id] = cert_hash
    state.certificates[cna_id] = certificate
    event = state._emit("CNAOnboarded", cna_id, {"cnaID": cna_id, "certHash": cert_hash})
    return state, event


def revoke_cna(
    state: WorldState, cna_id: str, caller: str, *, check_only: bool = False
) -> tuple[WorldState, Event | None]:
    """Remove a CNA from the authorized set. Records it already submitted
    stay in the registry untouched."""
    _require_governance(state, caller)
    if cna_id not in state.authorized_cnas:
        raise NotAuthorizedCna(f"{cna_id} is not an authorized CNA")
    if check_only:
        return state, None
    del state.authorized_cnas[cna_id]
    event = state._emit("CNARevoked", cna_id, {"cnaID": cna_id})
    return state, event


def allocate_cve_id(state: WorldState, year: int) -> tuple[WorldState, CveId]:
    """Hand out the next sequence for a year. Allocated ids are never
    reused, even when the record is later rejected."""
    if year < MIN_YEAR:
        raise YearOutOfRange(f"year {year} predates {MIN_YEAR}")
    nxt = state.id_counters.get(year, 0) + 1
    state.id_counters[year] = nxt
    return state, CveId(year=year, sequence=nxt)


# --- transaction dispatch ---------------------------------------------------

Handler = Callable[[WorldState, dict, str, ChainClock, bool], list[Event]]

HANDLERS: dict[str, Handler] = {}


def register_op(name: str):
    def wrap(fn: Handler) -> Handler:
        HANDLERS[name] = fn
        return fn

    return wrap


def _bad_args(message: str) -> SchemaViolation:
    return SchemaViolation([Violation("BAD_ARGS", "args", message)])


@register_op(OP_GENESIS)
def _handle_genesis(state, args, caller, clock, check_only):
    if state.ca_public_key or state.governance_members:
        raise _bad_args("genesis may only appear at height 0")
    ca_key = args.get("caPublicKey", "")
    if not is_hex_digest(ca_key, 64):
        raise _bad_args("genesis missing caPublicKey")
    gov = {name: Certificate.from_dict(cert) for name, cert in args.get("governance", {}).items()}
    if not gov:
        raise _bad_args("genesis must name at least one governance member")
    for name, cert in gov.items():
        if cert.subject != name or not verify_payload(
            ca_key, cert.signing_bytes(), bytes.fromhex(cert.ca_signature)
        ):
            raise BadCertificate(f"bootstrap certificate for {name} does not verify")
    if check_only:
        return []
    state.ca_public_key = ca_key
    state.governance_members = set(gov)
    state.certificates.update(gov)
    return []


@register_op(OP_SUBMIT)
def _handle_submit(state, args, caller, clock, check_only):
    try:
        record = record_from_dict(args["record"])
    except LedgerError:
        raise
    except Exception as exc:
        raise _bad_args(f"bad record: {exc}")
    _, event = submit_cve(
        state, record, caller, clock, salt=args.get("salt"), check_only=check_only
    )
    return [] if event is None else [event]


@register_op(OP_UPDATE_STATUS)
def _handle_update_status(state, args, caller, clock, check_only):
    try:
        cve_id = parse_cve_id(args["cveID"])
        new_status = CveStatus(args["newStatus"])
    except LedgerError:
        raise
    except Exception as exc:
        raise _bad_args(f"bad status update args: {exc}")
    _, event = update_cve_status(state, cve_id, new_status, caller, clock, check_only=check_only)
    return [] if event is None else [event]


@register_op(OP_CHECK_EMBARGO)
def _handle_check_embargo(state, args, caller, clock, check_only):
    _, events = check_embargo_releases(state, clock, check_only=check_only)
    return events


@register_op(OP_ONBOARD)
def _handle_onboard(state, args, caller, clock, check_only):
    try:
        cna_id = args["cnaID"]
        cert_hash = args["certHash"]
        certificate = Certificate.from_dict(args["certificate"])
    except LedgerError:
        raise
    except Exception as exc:
        raise _bad_args(f"bad onboarding args: {exc}")
    _, event = onboard_cna(
        state, cna_id, cert_hash, caller, certificate=certificate, check_only=check_only
    )
    return [] if event is None else [event]


@register_op(OP_REVOKE)
def _handle_revoke(state, args, caller, clock, check_only):
    try:
        cna_id = args["cnaID"]
    except Exception as exc:
        raise _bad_args(f"bad revocation args: {exc}")
    if not isinstance(cna_id, str):
        raise _bad_args(f"cnaID must be a string, not {type(cna_id).__name__}")
    _, event = revoke_cna(state, cna_id, caller, check_only=check_only)
    return [] if event is None else [event]


def execute_transaction(
    state: WorldState, payload: dict, clock: ChainClock, *, check_only: bool = False
) -> list[Event]:
    """Dispatch one transaction payload {op, args, caller, clockNow}.

    Raises a LedgerError (state untouched) on any guard failure.
    """
    op = payload.get("op")
    handler = HANDLERS.get(op)
    if handler is None:
        raise UnknownOperation(f"unknown op {op!r}")
    args = payload.get("args")
    if not isinstance(args, dict):
        raise _bad_args("args must be an object")
    caller = payload.get("caller", "")
    return handler(state, args, caller, clock, check_only)
