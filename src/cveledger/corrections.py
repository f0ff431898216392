"""Correction procedures: reject, merge, split, dispute, partial duplicate.

Each of the two selections is the minimum of one key, its criteria in
priority order: a later criterion only breaks ties of the earlier ones.
The last criterion is unique for well-formed inputs (distinct ids, unique
mention order), so the minimum is unique and permutation-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .canonical import typed
from .chaincode import (
    OPS,
    ChainClock,
    Event,
    WorldState,
    _bad_args,
    _require_record,
)
from .errors import (
    DuplicateCandidates,
    IdenticalCoverage,
    IllegalTransition,
    NoOverlap,
    NotSubmitter,
    TooFewCandidates,
)
from .records import (
    DISPUTED_PREFIX,
    Annotation,
    CveId,
    CveRecord,
    CveStatus,
    Severity,
    parse_cve_id,
)
from .versions import coverage_equal, overlaps, subtract

OP_REJECT = "RejectCVE"
OP_MERGE = "MergeCVEs"
OP_SPLIT = "SplitCVE"
OP_DISPUTE = "DisputeCVE"
OP_PARTIAL_DUP = "ResolvePartialDuplicate"

# records a correction may act on: drafts are still secret and the other
# states are terminal
_CORRECTABLE = (CveStatus.PUBLISHED, CveStatus.DISPUTED)


class Authority(IntEnum):
    """Source authority, most authoritative highest."""

    RESEARCHER = 0
    COORDINATOR = 1
    VENDOR = 2


@dataclass(frozen=True)
class MergeCandidate:
    cve_id: CveId
    reference_count: int
    authority: Authority
    publicized_at: int

    @classmethod
    def from_dict(cls, obj: dict) -> "MergeCandidate":
        return cls(
            cve_id=parse_cve_id(obj["cveID"]),
            reference_count=typed(obj["referenceCount"], int, "referenceCount"),
            authority=Authority[obj["authority"]],
            publicized_at=typed(obj["publicizedAt"], int, "publicizedAt"),
        )


@dataclass(frozen=True)
class SplitCandidate:
    descriptor: str
    association_frequency: int
    severity: Severity
    version_breadth: int
    mention_order: int

    @classmethod
    def from_dict(cls, obj: dict) -> "SplitCandidate":
        return cls(
            descriptor=typed(obj["descriptor"], str, "descriptor"),
            association_frequency=typed(obj["associationFrequency"], int, "associationFrequency"),
            severity=Severity.from_dict(obj["severity"]),
            version_breadth=typed(obj["versionBreadth"], int, "versionBreadth"),
            mention_order=typed(obj["mentionOrder"], int, "mentionOrder"),
        )


def select_canonical(candidates: list[MergeCandidate]) -> CveId:
    """Pick the id that survives, in order: most referenced, most
    authoritative source, earliest publicized, smallest numeric portion
    (same sequence across years: smaller year)."""
    if len(candidates) < 2:
        raise TooFewCandidates("merge needs at least two candidates")
    ids = [c.cve_id for c in candidates]
    if len(set(ids)) != len(ids):
        raise DuplicateCandidates("merge candidates must have distinct ids")
    return min(
        candidates,
        key=lambda c: (-c.reference_count, -c.authority, c.publicized_at, c.cve_id.numeric_portion, c.cve_id.year),
    ).cve_id


def select_prominent(candidates: list[SplitCandidate]) -> SplitCandidate:
    """Pick the vulnerability that keeps the original id, in order: most
    commonly associated, highest CVSS score, broadest affected versions,
    earliest mention."""
    if len(candidates) < 2:
        raise TooFewCandidates("split needs at least two candidates")
    orders = [c.mention_order for c in candidates]
    if len(set(orders)) != len(orders):
        raise DuplicateCandidates("mention order must be unique per candidate")
    return min(
        candidates,
        key=lambda c: (
            -c.association_frequency,
            -(c.severity.cvss_score if c.severity.cvss_score is not None else -1.0),
            -c.version_breadth,
            c.mention_order,
        ),
    )


def _require_correction_rights(state: WorldState, caller: str, records: list[CveRecord]) -> None:
    """Corrections come from governance or from the CNA that owns every
    affected record."""
    if caller in state.governance_members:
        return
    for record in records:
        if record.submitter != caller:
            raise NotSubmitter(f"{caller} did not submit {record.cve_id}")


def _amended(record: CveRecord, now: int, notes=(), refs=(), **changes) -> CveRecord:
    """`record` as a merge, split or partial duplicate leaves it at block
    time `now`: `notes` appended to its annotations, the ids `refs` merged
    into its references in sorted order, and `changes` applied."""
    return record.with_(
        annotations=record.annotations + tuple(notes),
        references=tuple(sorted(set(record.references).union(map(str, refs)))),
        updated_at=now,
        **changes,
    )


def _merged_into(record: CveRecord, keeper: CveId, now: int, *notes: Annotation) -> CveRecord:
    """A merge's loser: REJECTED, its `notes` followed by a pointer to
    `keeper`, and `keeper` among its references."""
    pointer = Annotation("MERGE_POINTER", f"merged into {keeper}", ref=str(keeper))
    return _amended(record, now, (*notes, pointer), [keeper], status=CveStatus.REJECTED)


def reject_cve(
    state: WorldState, cve_id: CveId, reason: str, caller: str, clock: ChainClock
) -> tuple[WorldState, Event]:
    """Mark a record REJECTED with an explanation. The record stays visible
    in queries, annotated so nobody reuses it by mistake."""
    record = _require_record(state, cve_id)
    _require_correction_rights(state, caller, [record])
    if record.status not in (CveStatus.DRAFT, CveStatus.PUBLISHED, CveStatus.DISPUTED):
        raise IllegalTransition(f"cannot reject a {record.status.value} record")
    if not reason or not isinstance(reason, str):
        raise _bad_args("rejection requires a non-empty reason")
    event = state.update(
        record,
        "CVERejected",
        {"cveID": str(cve_id)},
        status=CveStatus.REJECTED,
        annotations=record.annotations + (Annotation("REJECTION_REASON", reason),),
        updated_at=clock.now,
    )
    return state, event


def dispute_cve(
    state: WorldState, cve_id: CveId, note: str, external_ref: str | None, caller: str, clock: ChainClock
) -> tuple[WorldState, Event]:
    """Flag contested validity: prefix the description once and append a
    note explaining the nature of the dispute."""
    record = _require_record(state, cve_id)
    _require_correction_rights(state, caller, [record])
    if record.status is not CveStatus.PUBLISHED:
        raise IllegalTransition(f"cannot dispute a {record.status.value} record")
    if not note or not isinstance(note, str):
        raise _bad_args("dispute requires a non-empty note")
    event = state.update(
        record,
        "CVEDisputed",
        {"cveID": str(cve_id)},
        status=CveStatus.DISPUTED,
        description=DISPUTED_PREFIX + record.description,
        annotations=record.annotations + (Annotation("DISPUTE_NOTE", note, ref=external_ref),),
        updated_at=clock.now,
    )
    return state, event


def merge_cves(
    state: WorldState, candidates: list[MergeCandidate], caller: str, clock: ChainClock
) -> tuple[WorldState, list[Event]]:
    """Consolidate duplicate ids onto the canonical one. Losers turn
    REJECTED with a pointer to the keeper; the keeper collects references
    to everything merged into it."""
    canonical = select_canonical(candidates)
    records = [_require_record(state, c.cve_id) for c in candidates]
    _require_correction_rights(state, caller, records)
    for record in records:
        if record.status not in _CORRECTABLE:
            raise IllegalTransition(f"cannot merge a {record.status.value} record ({record.cve_id})")

    merged_ids = [c.cve_id for c in candidates if c.cve_id != canonical]
    changed = [_merged_into(state.cve_registry[cid], canonical, clock.now) for cid in merged_ids]
    changed.append(_amended(state.cve_registry[canonical], clock.now, refs=merged_ids))
    event = state.store(
        changed,
        "CVEMerged",
        str(canonical),
        {"canonical": str(canonical), "merged": [str(c) for c in sorted(merged_ids)]},
    )
    return state, [event]


def split_cve(
    state: WorldState, original_id: CveId, candidates: list[SplitCandidate], caller: str, clock: ChainClock
) -> tuple[WorldState, list[Event]]:
    """One id per vulnerability: the most prominent keeps the original id,
    the rest get fresh ids from the original's year, and every resulting
    record cross-references its siblings."""
    record = _require_record(state, original_id)
    _require_correction_rights(state, caller, [record])
    if record.status is not CveStatus.PUBLISHED:
        raise IllegalTransition(f"cannot split a {record.status.value} record")
    prominent = select_prominent(candidates)

    rest = sorted(
        (c for c in candidates if c is not prominent), key=lambda c: c.mention_order
    )
    new_ids = [state.allocate_id(original_id.year) for _ in rest]
    all_ids = [original_id] + new_ids

    def cross_refs(own: CveId) -> tuple[str, ...]:
        return tuple(sorted(str(i) for i in all_ids if i != own))

    origin = Annotation("SPLIT_ORIGIN", f"split into {len(all_ids)} records")
    changed = [
        _amended(record, clock.now, [origin], new_ids, description=prominent.descriptor, severity=prominent.severity)
    ]
    for nid, cand in zip(new_ids, rest):
        changed.append(
            CveRecord(
                cve_id=nid,
                description=cand.descriptor,
                product=record.product,
                version=record.version,
                severity=cand.severity,
                status=CveStatus.PUBLISHED,
                submitter=record.submitter,
                embargo_until=None,
                references=cross_refs(nid),
                annotations=(Annotation("SPLIT_ORIGIN", f"split from {original_id}", ref=str(original_id)),),
                created_at=clock.now,
                updated_at=clock.now,
            )
        )
    event = state.store(
        changed,
        "CVESplit",
        str(original_id),
        {"originalID": str(original_id), "newIDs": [str(i) for i in new_ids]},
    )
    return state, [event]


def resolve_partial_duplicate(
    state: WorldState, keep_id: CveId, revise_id: CveId, caller: str, clock: ChainClock
) -> tuple[WorldState, Event]:
    """Trim the revised record down to the versions the kept record does
    not cover; fully contained coverage escalates to merge semantics: the
    revised record becomes the merge loser `merge_cves` makes, pointing
    at the kept one."""
    keep = _require_record(state, keep_id)
    revise = _require_record(state, revise_id)
    if keep_id == revise_id:
        raise _bad_args("keep and revise must differ")
    _require_correction_rights(state, caller, [keep, revise])
    for record in (keep, revise):
        if record.status not in _CORRECTABLE:
            raise IllegalTransition(
                f"cannot resolve a partial duplicate on a {record.status.value} record"
            )
    if not overlaps(keep.version, revise.version):
        raise NoOverlap(f"{keep_id} and {revise_id} share no affected versions")
    if coverage_equal(keep.version, revise.version):
        raise IdenticalCoverage("identical coverage must go through a merge")
    remaining = subtract(revise.version, keep.version)

    note = Annotation("PARTIAL_DUP_NOTE", f"overlaps {keep_id}", ref=str(keep_id))
    escalated = not remaining
    if escalated:
        revised = _merged_into(revise, keep_id, clock.now, note)
    else:
        revised = _amended(revise, clock.now, [note], [keep_id], version=tuple(remaining))
    kept_note = Annotation("PARTIAL_DUP_NOTE", f"overlaps {revise_id}", ref=str(revise_id))
    kept = _amended(keep, clock.now, [kept_note], [revise_id])
    event = state.store(
        [revised, kept],
        "PartialDupResolved",
        str(keep_id),
        {"keep": str(keep_id), "revise": str(revise_id), "escalated": escalated},
    )
    return state, event


OPS.update(
    {
        OP_REJECT: (
            lambda args: (parse_cve_id(args["cveID"]), args["reason"]),
            lambda state, v, caller, clock: [reject_cve(state, *v, caller, clock)[1]],
        ),
        OP_DISPUTE: (
            lambda args: (
                parse_cve_id(args["cveID"]),
                args["note"],
                typed(args.get("externalRef"), (str, type(None)), "externalRef"),
            ),
            lambda state, v, caller, clock: [dispute_cve(state, *v, caller, clock)[1]],
        ),
        OP_MERGE: (
            lambda args: [MergeCandidate.from_dict(c) for c in typed(args["candidates"], list, "candidates")],
            lambda state, candidates, caller, clock: merge_cves(state, candidates, caller, clock)[1],
        ),
        OP_SPLIT: (
            lambda args: (
                parse_cve_id(args["cveID"]),
                [SplitCandidate.from_dict(c) for c in typed(args["candidates"], list, "candidates")],
            ),
            lambda state, v, caller, clock: split_cve(state, *v, caller, clock)[1],
        ),
        OP_PARTIAL_DUP: (
            lambda args: (parse_cve_id(args["keepID"]), parse_cve_id(args["reviseID"])),
            lambda state, v, caller, clock: [resolve_partial_duplicate(state, *v, caller, clock)[1]],
        ),
    }
)
