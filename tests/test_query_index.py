"""The query index against the sort-and-scan it replaced.

`query_public` takes its candidates from `WorldState.query_index()` (the
smallest bucket among the status, submitter, product and year filters, or
the year buckets in ascending year when none is given) or from an id
lookup, then runs the same per-record predicate as before. Each bucket
holds its records in id order, so the query reads them with no sort and no
registry lookup. These tests keep the old sort-and-scan as an oracle,
check the index, bucket order included, both when it was built before
the writes, each of which drops it, and when it is built lazily after
the fact, check that refusals and dry runs leave it alone, that a write
leaves a reader the buckets it took, and that replay never builds it.
"""

from __future__ import annotations

import itertools
import timeit

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cveledger.chaincode import (
    ChainClock,
    WorldState,
    execute_transaction,
    is_content_withheld,
)
from cveledger.errors import LedgerError
from cveledger.identity import CertificateAuthority, derive_keypair
from cveledger.ledger import query_public, record_view, replay, state_hash
from cveledger.network import drive_scenario, run_scenario
from cveledger.records import CveStatus, parse_cve_id, record_to_dict

from conftest import CNA, GOV, OTHER_CNA, TEST_SEED, make_record, make_state
from test_embargo_index import GOLDEN_SCRIPT

NOW = 1_700_000_000


def fresh_state():
    return make_state(CertificateAuthority(derive_keypair(TEST_SEED, "ca")))


def scan_query(state, *, cve_id=None, status=None, product=None, year=None, submitter=None):
    """`query_public` as it was before the index: sort and scan the registry."""
    now = state.clock_now
    out = []
    for cid, record in sorted(state.cve_registry.items()):
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
        out.append(record_view(record, now))
    return out


def index_snapshot(state):
    """The index as the ids of each bucket in bucket order, without its
    empty buckets."""
    if state._index is None:
        return None
    return {key: tuple(record.cve_id for record in bucket) for key, bucket in state._index.items() if bucket}


IDS = [f"CVE-{year}-{seq:04d}" for year in (2024, 2025) for seq in (1, 2, 3)]
PRODUCTS = ["widget", "gadget"]
CNAS = [CNA, OTHER_CNA]

# offsets around the clock: negative and zero publish at once, the rest
# are embargoed drafts whose product a filter must not match
steps = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(IDS),
        st.tuples(st.sampled_from(PRODUCTS), st.sampled_from(CNAS), st.none() | st.integers(-2, 10)),
    ),
    st.tuples(
        st.sampled_from(["release", "archive", "reject", "dispute", "split"]), st.sampled_from(IDS), st.none()
    ),
    st.tuples(st.just("merge"), st.sampled_from(IDS), st.sampled_from(IDS)),
    st.tuples(st.just("sweep"), st.integers(0, 6), st.none()),
)


def split_candidate(descriptor, order):
    return {
        "descriptor": descriptor,
        "associationFrequency": 3 - order,
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "versionBreadth": 1,
        "mentionOrder": order,
    }


def to_payload(step, now):
    """(op, args, caller) of one step; governance corrects, CNAs submit."""
    kind, cid, extra = step
    if kind == "submit":
        product, cna, offset = extra
        until = None if offset is None else now + offset
        record = record_to_dict(make_record(cid, product=product, embargo_until=until))
        return "SubmitCVE", {"record": record, "salt": "ab"}, cna
    if kind in ("release", "archive"):
        new_status = "PUBLISHED" if kind == "release" else "ARCHIVED"
        return "UpdateCVEStatus", {"cveID": cid, "newStatus": new_status}, GOV
    if kind == "reject":
        return "RejectCVE", {"cveID": cid, "reason": "duplicate"}, GOV
    if kind == "dispute":
        return "DisputeCVE", {"cveID": cid, "note": "contested"}, GOV
    if kind == "split":
        candidates = [split_candidate("first part", 1), split_candidate("second part", 2)]
        return "SplitCVE", {"cveID": cid, "candidates": candidates}, GOV
    if kind == "merge":
        candidates = [
            {"cveID": cid, "referenceCount": 1, "authority": "VENDOR", "publicizedAt": 1},
            {"cveID": extra, "referenceCount": 2, "authority": "VENDOR", "publicizedAt": 1},
        ]
        return "MergeCVEs", {"candidates": candidates}, GOV
    return "CheckEmbargoReleases", {}, GOV


def drive(states, history):
    """Run every step as one block on each state: a dry run, then the
    transaction. Neither a dry run nor a refusal may touch a built index."""
    now = NOW
    for height, step in enumerate(history, 1):
        if step[0] == "sweep":
            now += step[1]
        op, args, caller = to_payload(step, now)
        payload = {"op": op, "args": args, "caller": caller, "clockNow": now}
        clock = ChainClock(now)
        for state in states:
            state.begin_block(height, now)
            before = index_snapshot(state)
            try:
                execute_transaction(state, payload, clock, check_only=True)
            except LedgerError:
                pass
            assert index_snapshot(state) == before
            try:
                execute_transaction(state, payload, clock)
            except LedgerError:
                assert index_snapshot(state) == before


FILTERS = [
    dict(status=status, submitter=submitter, product=product, year=year)
    for status, submitter, product, year in itertools.product(
        [None, *CveStatus],
        [None, *CNAS, "cna.nobody"],
        [None, *PRODUCTS, "nothing"],
        [None, 2024, 2025, 2023],
    )
] + [
    dict(cve_id=parse_cve_id(cid), **extra)
    for cid in IDS + ["CVE-2025-0004", "CVE-2025-0099"]
    for extra in ({}, {"product": "widget"}, {"status": CveStatus.PUBLISHED, "year": 2025})
]


def check_queries(states):
    for filters in FILTERS:
        expected = scan_query(states[0], **filters)
        for state in states:
            assert query_public(state, **filters) == expected, filters
        if filters.get("product") is not None:
            # a withheld product matches nothing
            assert not any("contentCommitment" in view for view in expected)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(steps, min_size=4, max_size=30))
def test_indexed_query_matches_scan(history):
    kept, lazy = fresh_state(), fresh_state()
    kept.query_index()  # built before the ops: any `store` drops it
    drive([kept, lazy], history)
    assert state_hash(kept) == state_hash(lazy)
    assert lazy._index is None
    check_queries([kept, lazy])  # `lazy` builds its index here
    assert index_snapshot(kept) == index_snapshot(lazy)
    for ids in index_snapshot(kept).values():
        assert all(a < b for a, b in zip(ids, ids[1:])), ids


def test_withheld_product_is_indexed_but_never_matches():
    state = fresh_state()
    drive([state], [("submit", "CVE-2025-0001", ("secretware", CNA, 5))])
    assert [r.cve_id for r in state.query_index()[("product", "secretware")]] == [parse_cve_id("CVE-2025-0001")]
    assert query_public(state, product="secretware") == []
    drive([state], [("sweep", 5, None)])
    assert [v["cveID"] for v in query_public(state, product="secretware")] == ["CVE-2025-0001"]


def test_a_write_drops_the_index_and_leaves_a_reader_the_buckets_it_took():
    state = fresh_state()
    drive([state], [("submit", "CVE-2025-0001", ("widget", CNA, None))])
    held = state.query_index()
    taken = {key: [record.cve_id for record in bucket] for key, bucket in held.items()}
    assert taken[("product", "widget")] == [parse_cve_id("CVE-2025-0001")]
    drive([state], [("submit", "CVE-2025-0002", ("widget", CNA, None)), ("archive", "CVE-2025-0001", None)])
    assert {key: [record.cve_id for record in bucket] for key, bucket in held.items()} == taken
    assert state._index is None
    assert [v["cveID"] for v in query_public(state, product="widget")] == ["CVE-2025-0001", "CVE-2025-0002"]
    assert [v["cveID"] for v in query_public(state, status=CveStatus.ARCHIVED)] == ["CVE-2025-0001"]
    assert state.query_index() is not held
    check_queries([state])


def test_replay_and_scenarios_leave_the_index_unbuilt(monkeypatch):
    builds = []
    build = WorldState.query_index
    monkeypatch.setattr(WorldState, "query_index", lambda self: builds.append(self) or build(self))
    run_scenario(GOLDEN_SCRIPT)
    net, _, _ = drive_scenario(GOLDEN_SCRIPT)
    state = replay(net.chain)
    assert builds == []
    assert all(peer.state._index is None for peer in net.peers) and state._index is None
    query_public(state, status=CveStatus.PUBLISHED)
    assert builds == [state] and state._index is not None


def test_year_query_reads_only_that_years_bucket():
    state = fresh_state()
    records = [make_record(f"CVE-2025-{seq:04d}") for seq in range(1, 10_001)]
    records += [make_record(f"CVE-2024-{seq:04d}") for seq in (3, 1, 2)]
    state.store(records, "CVESubmitted", "bulk", {})
    ids = [parse_cve_id(f"CVE-2024-000{seq}") for seq in (1, 2, 3)]
    assert [r.cve_id for r in state.query_index()[("year", 2024)]] == ids
    assert query_public(state, year=2024) == scan_query(state, year=2024)
    assert query_public(state, year=2023) == []
    # best of five means of 100 calls; sorting the registry took about 10 ms
    seconds = min(timeit.repeat(lambda: query_public(state, year=2024), number=100, repeat=5)) / 100
    assert seconds < 1e-3


def test_point_query_at_10k_records_is_fast():
    state = fresh_state()
    records = [make_record(f"CVE-2025-{seq:04d}", product=f"product-{seq % 50}") for seq in range(1, 10_001)]
    state.store(records, "CVESubmitted", "bulk", {})
    cid = parse_cve_id("CVE-2025-5000")
    assert [v["cveID"] for v in query_public(state, cve_id=cid)] == [str(cid)]
    # best of five means of 100 calls; the sort-and-scan took about 10 ms
    seconds = min(timeit.repeat(lambda: query_public(state, cve_id=cid), number=100, repeat=5)) / 100
    assert seconds < 1e-4
