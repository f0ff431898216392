"""The due-embargo heap against the registry scan it replaced.

`check_embargo_releases` pops due entries from `WorldState._embargo_heap`
instead of sorting the whole registry. These tests keep the sorted scan as
an oracle, pin the invariant the heap relies on, and pin the bytes of a
seeded scenario so that any drift in block or state bytes shows.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.chaincode import (
    ChainClock,
    check_embargo_releases,
    execute_transaction,
    submit_cve,
    update_cve_status,
)
from cveledger.corrections import reject_cve
from cveledger.errors import LedgerError
from cveledger.identity import CertificateAuthority, derive_keypair
from cveledger.ledger import state_hash
from cveledger.network import run_scenario
from cveledger.records import LEGAL_TRANSITIONS, CveStatus, parse_cve_id

from conftest import CNA, GOV, TEST_SEED, make_record, make_state

NOW = 1_700_000_000


def fresh_state():
    # a CA issues one live certificate per subject, so each state gets its
    # own (identical, deterministic) CA
    return make_state(CertificateAuthority(derive_keypair(TEST_SEED, "ca")))


def scan_sweep(state, clock):
    """The sweep as it was before the heap: sort and scan the registry."""
    due = [
        cid
        for cid, rec in sorted(state.cve_registry.items())
        if rec.status is CveStatus.DRAFT
        and rec.embargo_until is not None
        and rec.embargo_until <= clock.now
    ]
    events = []
    for cid in due:
        record = state.cve_registry[cid]
        state.cve_registry[cid] = record.with_(status=CveStatus.PUBLISHED, updated_at=clock.now)
        events.append(state._emit("EmbargoReleased", str(cid), {"cveID": str(cid)}))
    return events


def test_no_transition_leads_into_draft():
    # submit_cve is then the only place a DRAFT is born, so it is the only
    # place the heap needs a push
    assert not [t for t in LEGAL_TRANSITIONS if t[1] is CveStatus.DRAFT]


def test_due_drafts_release_in_id_order_not_embargo_order():
    state = fresh_state()
    for cid, offset in (("CVE-2025-0001", 9), ("CVE-2024-0002", 7), ("CVE-2025-0003", 5)):
        submit_cve(state, make_record(cid, embargo_until=NOW + offset), CNA, ChainClock(NOW), salt="ab")
    _, events = check_embargo_releases(state, ChainClock(NOW + 9))
    assert [e.subject for e in events] == ["CVE-2024-0002", "CVE-2025-0001", "CVE-2025-0003"]


IDS = [f"CVE-{year}-{seq:04d}" for year in (2024, 2025) for seq in (1, 2, 3, 10)]

# embargo offsets around the clock: negative and zero publish at once
steps = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(IDS), st.none() | st.integers(-3, 12)),
    st.tuples(st.just("release"), st.sampled_from(IDS), st.just(None)),
    st.tuples(st.just("reject"), st.sampled_from(IDS), st.just(None)),
    st.tuples(st.just("sweep"), st.integers(0, 12), st.booleans()),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(steps, min_size=6, max_size=40))
def test_heap_sweep_matches_registry_scan(history):
    fast, oracle = fresh_state(), fresh_state()
    now, height = NOW, 0
    for kind, arg, extra in history:
        if kind == "sweep":
            now += arg
            height += 1
            clock = ChainClock(now)
            for state in (fast, oracle):
                state.begin_block(height, now)
            if extra:
                before, heap = state_hash(fast), list(fast._embargo_heap)
                payload = {"op": "CheckEmbargoReleases", "args": {}, "caller": GOV, "clockNow": now}
                assert execute_transaction(fast, payload, clock, check_only=True) == []
                assert state_hash(fast) == before and fast._embargo_heap == heap
            _, events = check_embargo_releases(fast, clock)
            expected = scan_sweep(oracle, clock)
            assert [e.to_dict() for e in events] == [e.to_dict() for e in expected]
            assert state_hash(fast) == state_hash(oracle)
            continue
        clock = ChainClock(now)
        outcomes = []
        for state in (fast, oracle):
            try:
                if kind == "submit":
                    until = None if extra is None else now + extra
                    submit_cve(state, make_record(arg, embargo_until=until), CNA, clock, salt="ab")
                elif kind == "release":
                    update_cve_status(state, parse_cve_id(arg), CveStatus.PUBLISHED, GOV, clock)
                else:
                    reject_cve(state, parse_cve_id(arg), "duplicate", GOV, clock)
                outcomes.append(None)
            except LedgerError as exc:
                outcomes.append(exc.code)
        assert outcomes[0] == outcomes[1]
        assert state_hash(fast) == state_hash(oracle)


def _record(seq: int, year: int = 2025) -> dict:
    return {
        "cveID": f"CVE-{year}-{seq:04d}",
        "description": f"issue number {seq} of {year}",
        "product": f"widget-{seq % 3}",
        "version": [{"lo": [1, seq, 0], "hi": [2, 0, 0]}],
        "severity": {"label": "MEDIUM", "cvssScore": 5.0},
    }


def _submit(tick, seq, *, year=2025, embargo=None, cna="cna.alpha"):
    args = {"caller": cna, "record": _record(seq, year)}
    if embargo is not None:
        args["embargoTicks"] = embargo
    return {"atTick": tick, "action": "submit", "args": args}


def _sweep(tick):
    return {"atTick": tick, "action": "embargo-tick"}


GOLDEN_SCRIPT = {
    "seed": "5e" * 16,
    "genesisTime": 1000,
    "peers": 3,
    "maxBlockTxs": 4,
    "actions": [
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.alpha"}},
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.beta"}},
        _submit(1, 1),
        _submit(1, 2, embargo=5),
        _submit(1, 3, embargo=8),
        _submit(1, 4, embargo=5, cna="cna.beta"),
        _submit(1, 5, embargo=12),
        _submit(1, 6, embargo=4),
        _submit(1, 7, year=2024, embargo=6, cna="cna.beta"),
        _submit(1, 10, embargo=2),
        _submit(1, 11, embargo=1),  # embargoUntil == now: publishes at once
        _submit(1, 12, embargo=60),  # still a draft at the end
        _sweep(1),
        # early release and a rejected draft, then a sweep in the same tick
        {"atTick": 2, "action": "status", "args": {"cveID": "CVE-2025-0003", "newStatus": "PUBLISHED"}},
        {"atTick": 2, "action": "reject", "args": {"cveID": "CVE-2025-0005", "reason": "duplicate"}},
        _sweep(2),
        _sweep(3),
        # due but not yet swept when rejected: its heap entry goes stale
        {"atTick": 4, "action": "reject", "args": {"cveID": "CVE-2025-0006", "reason": "withdrawn"}},
        _submit(4, 13, embargo=6, cna="cna.beta"),
        _sweep(5),
        _sweep(5),
        _sweep(6),
        {"atTick": 7, "action": "dispute", "args": {"cveID": "CVE-2025-0002", "note": "contested"}},
        _sweep(8),
        _sweep(12),
        {"atTick": 12, "action": "status", "args": {"cveID": "CVE-2025-0004", "newStatus": "ARCHIVED"}},
        _sweep(13),
    ],
}

# Taken from the registry-scan sweep, before the heap existed.
GOLDEN_STATE_HASH = "2ce4f201ac3af3b00993f23cb2bce0e616dafaeda0debb7933897e980c16496e"
GOLDEN_TIP_HASH = "eca8d1ee1339049ab9c9d363dadf3632c552675ac029a8503a4571588e557374"


def test_golden_scenario_bytes_unchanged():
    trace = run_scenario(GOLDEN_SCRIPT)
    assert all(block["consistent"] for block in trace["blocks"])
    assert all(action["ok"] for action in trace["actions"])
    released = [e["subject"] for e in trace["events"] if e["kind"] == "EmbargoReleased"]
    assert released == [
        "CVE-2025-0010",
        "CVE-2025-0002",
        "CVE-2025-0004",
        "CVE-2024-0007",
        "CVE-2025-0013",
    ]
    assert trace["finalStateHash"] == GOLDEN_STATE_HASH
    assert trace["blocks"][-1]["blockHash"] == GOLDEN_TIP_HASH
