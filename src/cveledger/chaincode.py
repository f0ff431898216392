"""Deterministic transaction execution against the world state.

`WorldState` is the only code that writes world state: op functions check
every guard, then change the state through its write methods, so a raised
`LedgerError` leaves the state untouched. A dry run (the endorsement-time
simulation that `execute_transaction` runs for a peer) runs the same op
function and ends at its first write method, which raises before it
changes anything: reaching a write means every guard passed. Execution
never reads the wall clock: `ChainClock` carries the ordering service's
per-block timestamp.

Embargoed submissions keep their description/product/version out of every
public view until release. The plaintext (plus a salt) rides in the
transaction as an envelope; op functions store it in the registry and the query
layer withholds it, exposing only a salted commitment hash that binds the
submitter to the content revealed later.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .canonical import hash_obj, is_hex_digest, typed
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
# verify_payload is looked up here by the benchmark's span tracer
from .identity import Certificate, ROLE_CNA, is_valid_participant_id, verify_payload  # noqa: F401
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

    @classmethod
    def from_dict(cls, obj: dict) -> "Event":
        return cls(
            kind=typed(obj["kind"], str, "kind"),
            subject=typed(obj["subject"], str, "subject"),
            block_height=typed(obj["blockHeight"], int, "blockHeight"),
            tx_index=typed(obj["txIndex"], int, "txIndex"),
            payload=typed(obj["payload"], dict, "payload"),
        )


class _DryRunStop(Exception):
    """Raised by the first write of a dry run: every guard has passed."""


class WorldState:
    """Materialized view obtained by replaying the ledger.

    Holds the CVE registry, the authorized-CNA set, governance membership,
    id counters, and the append-only event log. Only its own methods write
    it, and each write method first checks the dry-run mode that
    `execute_transaction` sets for endorsement: in a dry run it
    raises `_DryRunStop` before changing anything, so a dry run cannot
    mutate the state whatever the op function does.

    `_embargo_heap` is a derived index, not part of `to_dict()`: a min-heap
    of `(embargo_until, year, sequence)`, one entry per draft ever stored.
    A record is stored as a DRAFT only when it is submitted (no entry of
    `LEGAL_TRANSITIONS` leads into DRAFT and split creates only PUBLISHED
    records), so `store` pushes exactly once per draft. Entries go stale
    when a draft is rejected or released early; the sweep drops them
    lazily.

    `_index` is the other derived index, also outside `to_dict()`:
    `(field, value) -> records` for the `status`, `submitter`, `product`
    and id `year` of every record, withheld ones included, each bucket a
    list in `(year, sequence)` order, so a query reads its rows in id order
    with no sort and no registry lookup. It only narrows the records a
    query looks at; the query's per-record predicate still decides, so
    withheld content stays unmatchable. It is built lazily by
    `query_index`, so replay and ingest never pay for it, and once built
    `store` keeps it current by bisecting each record out of its old
    buckets and into its new ones. The served state is never written while
    it is served, so these edits in place race no reader.
    `ledger.query_public` scans the lines of a checkpoint-loaded state
    instead, where building it decodes every record.

    A state built by replay holds a plain `dict` registry and `list` event
    log. A state loaded from a checkpoint (`ledger.state_from_snapshot`)
    holds a `ledger.SnapshotRegistry` and `ledger.SnapshotLog` instead,
    which keep each checkpoint line undecoded until its record or event is
    first read; `copy` and `ledger.snapshot_lines` read neither container
    whole.
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
        self._index: dict[tuple[str, object], list[CveRecord]] | None = None
        self._dry_run = False

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

    # -- write methods: the first one a dry run reaches ends it ---------------

    def _write(self) -> None:
        if self._dry_run:
            raise _DryRunStop

    def store(self, records: list[CveRecord], kind: str, subject: str, payload: dict) -> Event:
        """Put records into the registry under their ids and emit one event.
        Keeps each year's id counter at least at its highest stored
        sequence, pushes every stored DRAFT onto the embargo heap and, once
        built, moves each record between the buckets of the query index."""
        self._write()
        index = self._index
        for record in records:
            cid = record.cve_id
            if index is not None:
                old = self.cve_registry.get(cid)
                if old is not None:
                    for key in index_keys(old):
                        # a registry written around `store` may lack the bucket or the record
                        bucket = index.get(key, [])
                        at = bisect_left(bucket, (cid.year, cid.sequence), key=ID_ORDER)
                        if at < len(bucket) and bucket[at].cve_id == cid:
                            del bucket[at]
                for key in index_keys(record):
                    insort(index.setdefault(key, []), record, key=ID_ORDER)
            self.cve_registry[cid] = record
            self.id_counters[cid.year] = max(self.id_counters.get(cid.year, 0), cid.sequence)
            if record.status is CveStatus.DRAFT:
                heapq.heappush(self._embargo_heap, (record.embargo_until, cid.year, cid.sequence))
        return self._emit(kind, subject, payload)

    def update(self, record: CveRecord, kind: str, payload: dict, **changes) -> Event:
        """`store` of `record` with `changes` applied; the event's subject
        is the record's id."""
        self._write()
        return self.store([record.with_(**changes)], kind, str(record.cve_id), payload)

    def allocate_id(self, year: int) -> CveId:
        """The next sequence of `year`. Allocated ids are never reused,
        even when the record is later rejected."""
        self._write()
        self.id_counters[year] = self.id_counters.get(year, 0) + 1
        return CveId(year=year, sequence=self.id_counters[year])

    def pop_due_embargoes(self, now: int) -> list[tuple[int, int, int]]:
        """Pop every embargo heap entry due at `now` (embargo_until <= now)."""
        self._write()
        heap = self._embargo_heap
        due = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap))
        return due

    def authorize_cna(self, cna_id: str, cert_hash: str, certificate: Certificate) -> Event:
        self._write()
        self.authorized_cnas[cna_id] = cert_hash
        self.certificates[cna_id] = certificate
        return self._emit("CNAOnboarded", cna_id, {"cnaID": cna_id, "certHash": cert_hash})

    def remove_cna(self, cna_id: str) -> Event:
        self._write()
        del self.authorized_cnas[cna_id]
        return self._emit("CNARevoked", cna_id, {"cnaID": cna_id})

    def bootstrap(self, ca_public_key: str, governance: dict[str, Certificate]) -> None:
        """Genesis: the CA key and the bootstrap governance members."""
        self._write()
        self.ca_public_key = ca_public_key
        self.governance_members = set(governance)
        self.certificates.update(governance)

    def copy(self) -> "WorldState":
        """An equal state sharing no mutable container with this one, only the frozen
        records, certificates, events and failure entries, and a loaded state's
        checkpoint lines with what has been decoded of them; its query index stays lazy."""
        other = WorldState()
        other.cve_registry = self.cve_registry.copy()
        other.authorized_cnas = dict(self.authorized_cnas)
        other.governance_members = set(self.governance_members)
        other.id_counters = dict(self.id_counters)
        other.event_log = self.event_log.copy()
        other.certificates = dict(self.certificates)
        other.ca_public_key = self.ca_public_key
        other.failed_txs = list(self.failed_txs)
        other.clock_now, other._height, other._event_seq = self.clock_now, self._height, self._event_seq
        other._embargo_heap = list(self._embargo_heap)
        return other

    @classmethod
    def from_summary(cls, summary: dict, height: int, registry, event_log, drafts) -> "WorldState":
        """The inverse of `summary_dict`: the state after the block at
        `height` whose summary is `summary`, over `registry` and `event_log`
        as given, neither of them read. The embargo heap gets one entry per
        record in `drafts`, the registry's drafts: the other entries a
        replayed heap may hold are stale ones, which the sweep drops. The
        query index stays lazy, and `_height`/`_event_seq` are as
        `begin_block` leaves them. A summary of the wrong shape raises
        KeyError, TypeError, ValueError or a LedgerError."""
        state = cls()
        state.cve_registry, state.event_log = registry, event_log
        state.authorized_cnas = dict(typed(summary["authorizedCNAs"], dict, "authorizedCNAs"))
        state.governance_members = set(typed(summary["governanceMembers"], list, "governanceMembers"))
        counters = typed(summary["idCounters"], dict, "idCounters")
        state.id_counters = {int(year): typed(count, int, "idCounters") for year, count in counters.items()}
        certificates = typed(summary["certificates"], dict, "certificates")
        state.certificates = {subject: Certificate.from_dict(cert) for subject, cert in certificates.items()}
        state.ca_public_key = typed(summary["caPublicKey"], str, "caPublicKey")
        state.failed_txs = list(typed(summary["failedTxs"], list, "failedTxs"))
        state._embargo_heap = [(record.embargo_until, record.cve_id.year, record.cve_id.sequence) for record in drafts]
        heapq.heapify(state._embargo_heap)
        state.begin_block(height, typed(summary["clockNow"], int, "clockNow"))
        return state

    def query_index(self) -> dict[tuple[str, object], list[CveRecord]]:
        """The query index, built by one pass over the registry in id order
        on first use. Built into a local dict and assigned once, so
        concurrent first readers each build a complete index and either may win."""
        if self._index is None:
            index: dict[tuple[str, object], list[CveRecord]] = {}
            for record in sorted(self.cve_registry.values(), key=ID_ORDER):
                for key in index_keys(record):
                    index.setdefault(key, []).append(record)
            self._index = index
        return self._index

    def to_dict(self) -> dict:
        """Canonical snapshot (internal form: committed drafts keep their
        plaintext and salt here; public views are derived elsewhere)."""
        return {
            **self.summary_dict(),
            "cveRegistry": {
                str(cid): record_to_dict(rec, internal=True)
                for cid, rec in sorted(self.cve_registry.items())
            },
            "eventLog": [e.to_dict() for e in self.event_log],
        }

    def summary_dict(self) -> dict:
        """`to_dict()` without its two bulky keys, `cveRegistry` and
        `eventLog`, which `ledger.state_hash` splices from kept bytes."""
        return {
            "authorizedCNAs": dict(sorted(self.authorized_cnas.items())),
            "caPublicKey": self.ca_public_key,
            "certificates": {s: c.to_dict() for s, c in sorted(self.certificates.items())},
            "clockNow": self.clock_now,
            "failedTxs": list(self.failed_txs),
            "governanceMembers": sorted(self.governance_members),
            "idCounters": {str(y): n for y, n in sorted(self.id_counters.items())},
        }


# a record's place in id order as a C-level sort key: `CveId`'s own
# comparison runs Python code on every compare
ID_ORDER = attrgetter("cve_id.year", "cve_id.sequence")


def index_keys(record: CveRecord) -> tuple[tuple[str, object], ...]:
    """The `(field, value)` keys of the query index that `record` is filed under."""
    return (
        ("status", record.status),
        ("submitter", record.submitter),
        ("product", record.product),
        ("year", record.cve_id.year),
    )


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
    state: WorldState, record: CveRecord, caller: str, clock: ChainClock, *, salt: str | None = None
) -> tuple[WorldState, Event]:
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

    cve_id = str(stored.cve_id)
    event = state.store([stored], "CVESubmitted", cve_id, {"cveID": cve_id, "status": stored.status.value})
    return state, event


def update_cve_status(
    state: WorldState, cve_id: CveId, new_status: CveStatus, caller: str, clock: ChainClock
) -> tuple[WorldState, Event]:
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

    event = state.update(
        record,
        "CVEStatusChanged",
        {"cveID": str(cve_id), "from": record.status.value, "to": new_status.value},
        **changes,
    )
    return state, event


def check_embargo_releases(state: WorldState, clock: ChainClock) -> tuple[WorldState, list[Event]]:
    """Publish every draft whose embargo has passed (boundary inclusive:
    embargoUntil == now releases). Ascending id order; idempotent.

    Pops the due entries of `state._embargo_heap` instead of scanning the
    registry. A popped entry counts only while the registry still holds
    that id as a DRAFT with the same embargo; entries of drafts rejected
    or released early are dropped here. Correct only because no status
    transition leads back into DRAFT. The sweep has no guard, so a dry run
    ends at the pop, before any work.
    """
    due = []
    for until, year, sequence in state.pop_due_embargoes(clock.now):
        cid = CveId(year=year, sequence=sequence)
        record = state.cve_registry.get(cid)
        if record is not None and record.status is CveStatus.DRAFT and record.embargo_until == until:
            due.append(cid)
    events = [
        state.update(
            state.cve_registry[cid],
            "EmbargoReleased",
            {"cveID": str(cid)},
            status=CveStatus.PUBLISHED,
            updated_at=clock.now,
        )
        for cid in sorted(due)
    ]
    return state, events


def onboard_cna(
    state: WorldState, cna_id: str, cert_hash: str, caller: str, *, certificate: Certificate
) -> tuple[WorldState, Event]:
    """Governance admits a CNA by pinning its certificate fingerprint.

    The full certificate travels in the transaction so replay and audit can
    re-verify the CA signature from chain bytes alone.
    """
    _require_governance(state, caller)
    if not is_valid_participant_id(cna_id):
        raise BadCertificate(f"bad CNA id: {cna_id!r}")
    if cna_id in state.authorized_cnas:
        raise AlreadyAuthorized(f"{cna_id} already authorized")
    if certificate.subject != cna_id:
        raise BadCertificate(f"certificate subject {certificate.subject!r} is not {cna_id!r}")
    if certificate.role != ROLE_CNA:
        raise BadCertificate(f"certificate role {certificate.role!r} is not {ROLE_CNA}")
    if certificate.cert_hash() != cert_hash:
        raise BadCertificate("certificate hash mismatch")
    if not certificate.signed_by(state.ca_public_key):
        raise BadCertificate("CA signature does not verify")
    return state, state.authorize_cna(cna_id, cert_hash, certificate)


def revoke_cna(state: WorldState, cna_id: str, caller: str) -> tuple[WorldState, Event]:
    """Remove a CNA from the authorized set. Records it already submitted
    stay in the registry untouched."""
    _require_governance(state, caller)
    if cna_id not in state.authorized_cnas:
        raise NotAuthorizedCna(f"{cna_id} is not an authorized CNA")
    return state, state.remove_cna(cna_id)


def allocate_cve_id(state: WorldState, year: int) -> tuple[WorldState, CveId]:
    """Hand out the next sequence for a year (see `WorldState.allocate_id`)."""
    if year < MIN_YEAR:
        raise YearOutOfRange(f"year {year} predates {MIN_YEAR}")
    return state, state.allocate_id(year)


# --- transaction dispatch ---------------------------------------------------


def _bad_args(message: str) -> SchemaViolation:
    return SchemaViolation([Violation("BAD_ARGS", "args", message)])


def _decode_genesis(args: dict) -> tuple:
    # only checks that fail as BAD_ARGS, like the height-0 guard; parsing the
    # certificates waits for that guard, so a late genesis stays BAD_ARGS
    ca_key = args.get("caPublicKey", "")
    if not is_hex_digest(ca_key, 64):
        raise _bad_args("genesis missing caPublicKey")
    return ca_key, list(typed(args.get("governance", {}), dict, "governance").items())


def _run_genesis(state: WorldState, values: tuple, caller: str, clock: ChainClock) -> list[Event]:
    if state.ca_public_key or state.governance_members:
        raise _bad_args("genesis may only appear at height 0")
    ca_key, governance = values
    gov = {name: Certificate.from_dict(cert) for name, cert in governance}
    if not gov:
        raise _bad_args("genesis must name at least one governance member")
    for name, cert in gov.items():
        if cert.subject != name or not cert.signed_by(ca_key):
            raise BadCertificate(f"bootstrap certificate for {name} does not verify")
    state.bootstrap(ca_key, gov)
    return []


# op name -> (decode(args) -> typed values, run(state, values, caller, clock) -> events).
# `execute_transaction` turns anything but a LedgerError raised by decode into
# BAD_ARGS; run calls the op function. corrections.py adds the correction ops.
OPS: dict[str, tuple[Callable, Callable]] = {
    OP_GENESIS: (_decode_genesis, _run_genesis),
    OP_SUBMIT: (
        lambda args: (record_from_dict(args["record"]), typed(args.get("salt"), (str, type(None)), "salt")),
        lambda state, v, caller, clock: [submit_cve(state, v[0], caller, clock, salt=v[1])[1]],
    ),
    OP_UPDATE_STATUS: (
        lambda args: (parse_cve_id(args["cveID"]), CveStatus(args["newStatus"])),
        lambda state, v, caller, clock: [update_cve_status(state, *v, caller, clock)[1]],
    ),
    OP_CHECK_EMBARGO: (
        lambda args: (),
        lambda state, v, caller, clock: check_embargo_releases(state, clock)[1],
    ),
    OP_ONBOARD: (
        lambda args: (args["cnaID"], args["certHash"], Certificate.from_dict(args["certificate"])),
        lambda state, v, caller, clock: [onboard_cna(state, v[0], v[1], caller, certificate=v[2])[1]],
    ),
    OP_REVOKE: (
        lambda args: typed(args["cnaID"], str, "cnaID"),
        lambda state, cna_id, caller, clock: [revoke_cna(state, cna_id, caller)[1]],
    ),
}


def execute_transaction(
    state: WorldState, payload: dict, clock: ChainClock, *, check_only: bool = False
) -> list[Event]:
    """Dispatch one transaction payload {op, args, caller, clockNow}.

    Raises a LedgerError (state untouched) on any guard failure. With
    `check_only=True` the op runs in dry-run mode: its first write ends
    the run, and the result is [] because every guard passed.
    """
    op = payload.get("op")
    entry = OPS.get(op)
    if entry is None:
        raise UnknownOperation(f"unknown op {op!r}")
    args = payload.get("args")
    if not isinstance(args, dict):
        raise _bad_args("args must be an object")
    decode, run = entry
    try:
        values = decode(args)
    except LedgerError:
        raise
    except Exception as exc:
        raise _bad_args(f"bad {op} args: {exc}")
    state._dry_run = check_only
    try:
        return run(state, values, payload.get("caller", ""), clock)
    except _DryRunStop:
        return []
    finally:
        state._dry_run = False
