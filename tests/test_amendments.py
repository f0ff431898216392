"""Every merge, split and partial duplicate amends records by one rule.

`corrections._amended` appends notes, merges references in sorted order and
stamps the block time; `corrections._merged_into` builds a merge's loser,
for `merge_cves` and for an escalated `resolve_partial_duplicate` alike.
The oracle kept here is the hand-written `with_` construction of each
correction that they replace. Records start PUBLISHED or DISPUTED with
arbitrary annotations and unsorted, duplicated references that include the
ids the correction adds, and every stored record must match the oracle byte
for byte in its internal canonical form.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cveledger.canonical import to_canonical_bytes
from cveledger.chaincode import ChainClock, WorldState
from cveledger.corrections import (
    Authority,
    MergeCandidate,
    SplitCandidate,
    merge_cves,
    resolve_partial_duplicate,
    select_canonical,
    select_prominent,
    split_cve,
)
from cveledger.records import (
    ANNOTATION_TAGS,
    Annotation,
    CveId,
    CveRecord,
    CveStatus,
    Severity,
    SeverityLabel,
    parse_cve_id,
    record_to_dict,
)
from cveledger.versions import VersionRange, coverage_equal, overlaps, subtract

from conftest import GOV, make_record

NOW = 1_700_000_000
CLOCK = ChainClock(NOW)
IDS = [f"CVE-2025-{seq:04d}" for seq in range(1, 9)]


# --- the hand-written constructions the helpers replace -----------------------


def _sorted_refs(*groups) -> tuple[str, ...]:
    out: set[str] = set()
    for g in groups:
        out.update(g)
    return tuple(sorted(out))


def oracle_merge(registry, canonical, merged_ids, now):
    changed = []
    for cid in merged_ids:
        record = registry[cid]
        changed.append(
            record.with_(
                status=CveStatus.REJECTED,
                annotations=record.annotations
                + (Annotation("MERGE_POINTER", f"merged into {canonical}", ref=str(canonical)),),
                references=_sorted_refs(record.references, [str(canonical)]),
                updated_at=now,
            )
        )
    keeper = registry[canonical]
    changed.append(
        keeper.with_(
            references=_sorted_refs(keeper.references, (str(c) for c in merged_ids)),
            updated_at=now,
        )
    )
    return changed


def oracle_split(record, prominent, rest, new_ids, now):
    original_id = record.cve_id
    all_ids = [original_id] + new_ids

    def cross_refs(own):
        return tuple(sorted(str(i) for i in all_ids if i != own))

    changed = [
        record.with_(
            description=prominent.descriptor,
            severity=prominent.severity,
            references=_sorted_refs(record.references, cross_refs(original_id)),
            annotations=record.annotations + (Annotation("SPLIT_ORIGIN", f"split into {len(all_ids)} records"),),
            updated_at=now,
        )
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
                created_at=now,
                updated_at=now,
            )
        )
    return changed


def oracle_partial_duplicate(keep, revise, now):
    keep_id, revise_id = keep.cve_id, revise.cve_id
    remaining = subtract(revise.version, keep.version)
    note = Annotation("PARTIAL_DUP_NOTE", f"overlaps {keep_id}", ref=str(keep_id))
    if not remaining:
        revised = revise.with_(
            status=CveStatus.REJECTED,
            annotations=revise.annotations
            + (note, Annotation("MERGE_POINTER", f"merged into {keep_id}", ref=str(keep_id))),
            references=_sorted_refs(revise.references, [str(keep_id)]),
            updated_at=now,
        )
    else:
        revised = revise.with_(
            version=tuple(remaining),
            annotations=revise.annotations + (note,),
            references=_sorted_refs(revise.references, [str(keep_id)]),
            updated_at=now,
        )
    kept = keep.with_(
        annotations=keep.annotations
        + (Annotation("PARTIAL_DUP_NOTE", f"overlaps {revise_id}", ref=str(revise_id)),),
        references=_sorted_refs(keep.references, [str(revise_id)]),
        updated_at=now,
    )
    return [revised, kept]


# --- strategies -----------------------------------------------------------------

triples = st.tuples(*[st.integers(0, 4)] * 3)
ranges = st.tuples(triples, triples).map(lambda ends: VersionRange(min(ends), max(ends)))
severities = st.builds(Severity, label=st.sampled_from(SeverityLabel), cvss_score=st.none() | st.floats(0.0, 10.0))
annotations = st.builds(
    Annotation, tag=st.sampled_from(ANNOTATION_TAGS), text=st.text(max_size=12), ref=st.none() | st.text(max_size=8)
)
# unsorted and duplicated, drawn partly from the ids a correction adds
references = st.lists(st.sampled_from(IDS) | st.text(max_size=6), max_size=6)


@st.composite
def records(draw, cve_id: str, statuses=(CveStatus.PUBLISHED, CveStatus.DISPUTED), version=None):
    return make_record(
        cve_id,
        description=draw(st.text(min_size=1, max_size=12)),
        version=draw(st.lists(ranges, min_size=1, max_size=3)) if version is None else version,
        severity=draw(severities),
        status=draw(st.sampled_from(statuses)),
        references=tuple(draw(references)),
        annotations=tuple(draw(st.lists(annotations, max_size=3))),
        created_at=NOW - 10,
        updated_at=NOW - 1,
    )


def state_of(*stored: CveRecord, counter: int = 0) -> WorldState:
    state = WorldState()
    state.governance_members = {GOV}
    state.store(list(stored), "Seeded", "seed", {})
    state.id_counters[2025] = max(state.id_counters[2025], counter)
    return state


def registry_bytes(registry) -> dict[str, bytes]:
    return {str(cid): to_canonical_bytes(record_to_dict(r, internal=True)) for cid, r in registry.items()}


def expected_bytes(before: WorldState, changed) -> dict[str, bytes]:
    registry = dict(before.cve_registry)
    registry.update((r.cve_id, r) for r in changed)
    return registry_bytes(registry)


# --- the properties ---------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(data=st.data(), count=st.integers(2, 4))
def test_merge_amends_losers_and_keeper_as_written_by_hand(data, count):
    stored = [data.draw(records(cve_id)) for cve_id in IDS[:count]]
    candidates = [
        MergeCandidate(
            cve_id=r.cve_id,
            reference_count=data.draw(st.integers(0, 3)),
            authority=data.draw(st.sampled_from(Authority)),
            publicized_at=data.draw(st.integers(0, 3)),
        )
        for r in data.draw(st.permutations(stored))
    ]
    before = state_of(*stored)
    canonical = select_canonical(candidates)
    merged_ids = [c.cve_id for c in candidates if c.cve_id != canonical]
    expected = expected_bytes(before, oracle_merge(before.cve_registry, canonical, merged_ids, NOW))

    state = state_of(*stored)
    merge_cves(state, candidates, GOV, CLOCK)
    assert registry_bytes(state.cve_registry) == expected


@settings(max_examples=250, deadline=None)
@given(data=st.data(), count=st.integers(2, 4), counter=st.integers(0, 3))
def test_split_amends_the_original_as_written_by_hand(data, count, counter):
    record = data.draw(records(IDS[0], statuses=(CveStatus.PUBLISHED,)))
    orders = data.draw(st.permutations(range(1, count + 1)))
    candidates = [
        SplitCandidate(
            descriptor=data.draw(st.text(min_size=1, max_size=8)),
            association_frequency=data.draw(st.integers(0, 3)),
            severity=data.draw(severities),
            version_breadth=data.draw(st.integers(0, 3)),
            mention_order=order,
        )
        for order in orders
    ]
    before = state_of(record, counter=counter)
    prominent = select_prominent(candidates)
    rest = sorted((c for c in candidates if c is not prominent), key=lambda c: c.mention_order)
    first = before.id_counters[2025] + 1
    new_ids = [CveId(year=2025, sequence=first + i) for i in range(len(rest))]
    expected = expected_bytes(before, oracle_split(record, prominent, rest, new_ids, NOW))

    state = state_of(record, counter=counter)
    split_cve(state, record.cve_id, candidates, GOV, CLOCK)
    assert registry_bytes(state.cve_registry) == expected


def check_partial_duplicate(keep: CveRecord, revise: CveRecord) -> bool:
    """Resolve `keep`/`revise` against the oracle; whether it escalated."""
    before = state_of(keep, revise)
    expected = expected_bytes(before, oracle_partial_duplicate(keep, revise, NOW))
    state = state_of(keep, revise)
    _, event = resolve_partial_duplicate(state, keep.cve_id, revise.cve_id, GOV, CLOCK)
    assert registry_bytes(state.cve_registry) == expected
    return event.payload["escalated"]


@settings(max_examples=250, deadline=None)
@given(data=st.data(), keep_first=st.booleans())
def test_a_trimmed_partial_duplicate_amends_both_as_written_by_hand(data, keep_first):
    keep_id, revise_id = IDS[:2] if keep_first else IDS[1::-1]
    keep = data.draw(records(keep_id))
    revise = data.draw(records(revise_id))
    assume(overlaps(keep.version, revise.version) and subtract(revise.version, keep.version))
    assert not check_partial_duplicate(keep, revise)


@settings(max_examples=250, deadline=None)
@given(data=st.data(), keep_first=st.booleans())
def test_an_escalated_partial_duplicate_is_the_merge_loser_written_by_hand(data, keep_first):
    keep_id, revise_id = IDS[:2] if keep_first else IDS[1::-1]
    revise = data.draw(records(revise_id))
    # a keeper covering every version the revised record names, and more
    wider = VersionRange((0, 0, 0), (5, 0, 0))
    keep = data.draw(records(keep_id, version=(wider,)))
    assert overlaps(keep.version, revise.version) and not coverage_equal(keep.version, revise.version)
    assert check_partial_duplicate(keep, revise)


def test_an_escalated_loser_equals_a_merge_loser_but_for_the_partial_duplicate_note():
    revise = make_record(IDS[1], version=(VersionRange((1, 0, 0), (1, 5, 0)),), references=(IDS[3], IDS[0], IDS[3]))
    keep = make_record(IDS[0], version=(VersionRange((1, 0, 0), (2, 0, 0)),))
    escalated = state_of(keep, revise)
    resolve_partial_duplicate(escalated, keep.cve_id, revise.cve_id, GOV, CLOCK)
    merged = state_of(keep, revise)
    candidates = [MergeCandidate(r.cve_id, n, Authority.VENDOR, 0) for r, n in ((keep, 2), (revise, 1))]
    merge_cves(merged, candidates, GOV, CLOCK)
    loser = escalated.cve_registry[parse_cve_id(IDS[1])]
    [note, pointer] = loser.annotations
    assert note.tag == "PARTIAL_DUP_NOTE" and pointer.tag == "MERGE_POINTER"
    assert loser.with_(annotations=(pointer,)) == merged.cve_registry[parse_cve_id(IDS[1])]
