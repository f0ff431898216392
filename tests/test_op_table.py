"""The op table and the dry run: guards cannot write.

`WorldState` is the only writer of world state, and a dry run ends at the
first write method an op calls. These tests hold that by structure: a dry
run against a state whose containers are read-only views passes for a
valid transaction of every op, arbitrary args never escape as anything
but a `LedgerError` nor change the state on a refusal, and a scenario
that runs every op keeps its bytes.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cveledger.chaincode import OPS, ChainClock, WorldState, execute_transaction, submit_cve
from cveledger.corrections import dispute_cve
from cveledger.errors import LedgerError
from cveledger.identity import ROLE_CNA, CertificateAuthority, derive_keypair
from cveledger.ledger import state_hash
from cveledger.network import run_scenario, trace_json
from cveledger.records import parse_cve_id, record_to_dict
from cveledger.versions import VersionRange

from conftest import CNA, GOV, OTHER_CNA, TEST_SEED, make_record, make_state

NOW = 1_700_000_000
CLOCK = ChainClock(NOW)


def world():
    """Two published records that overlap, one disputed record and one
    draft whose embargo is due at NOW."""
    ca = CertificateAuthority(derive_keypair(TEST_SEED, "ca"))
    state = make_state(ca)
    earlier = ChainClock(NOW - 10)
    submit_cve(state, make_record("CVE-2025-0001"), CNA, earlier)
    wide = (VersionRange((1, 0, 0), (3, 0, 0)),)
    submit_cve(state, make_record("CVE-2025-0002", version=wide), CNA, earlier)
    submit_cve(state, make_record("CVE-2025-0003"), OTHER_CNA, earlier)
    submit_cve(state, make_record("CVE-2024-0009", embargo_until=NOW), CNA, earlier, salt="5a")
    dispute_cve(state, parse_cve_id("CVE-2025-0003"), "contested", None, OTHER_CNA, earlier)
    return ca, state


def freeze(state: WorldState) -> WorldState:
    """Replace every container of `state` with a read-only view."""
    state.cve_registry = MappingProxyType(state.cve_registry)
    state.authorized_cnas = MappingProxyType(state.authorized_cnas)
    state.certificates = MappingProxyType(state.certificates)
    state.id_counters = MappingProxyType(state.id_counters)
    state.governance_members = frozenset(state.governance_members)
    state.event_log = tuple(state.event_log)
    state.failed_txs = tuple(state.failed_txs)
    state._embargo_heap = tuple(state._embargo_heap)
    return state


def candidate(text, order, frequency=1):
    return {
        "descriptor": text,
        "associationFrequency": frequency,
        "severity": {"label": "HIGH", "cvssScore": 7.5},
        "versionBreadth": 1,
        "mentionOrder": order,
    }


def valid_payloads(ca, state):
    """One valid (op, args, caller) for every op; Genesis goes to an empty state."""
    newcomer = derive_keypair(TEST_SEED, "cna.new")
    cert = ca.issue_certificate("cna.new", ROLE_CNA, newcomer.public_hex, issued_at=0)
    governance = {GOV: state.certificates[GOV].to_dict()}
    merge = [
        {"cveID": "CVE-2025-0001", "referenceCount": 3, "authority": "VENDOR", "publicizedAt": 1},
        {"cveID": "CVE-2025-0003", "referenceCount": 1, "authority": "VENDOR", "publicizedAt": 1},
    ]
    return {
        "Genesis": ({"caPublicKey": ca.public_key, "governance": governance}, "network.genesis"),
        "SubmitCVE": (
            {"record": record_to_dict(make_record("CVE-2025-0010", embargo_until=NOW + 60)), "salt": "ab"},
            CNA,
        ),
        "UpdateCVEStatus": ({"cveID": "CVE-2025-0001", "newStatus": "ARCHIVED"}, CNA),
        "CheckEmbargoReleases": ({}, GOV),
        "OnboardCNA": (
            {"cnaID": "cna.new", "certHash": cert.cert_hash(), "certificate": cert.to_dict()},
            GOV,
        ),
        "RevokeCNA": ({"cnaID": OTHER_CNA}, GOV),
        "RejectCVE": ({"cveID": "CVE-2025-0001", "reason": "not a flaw"}, GOV),
        "DisputeCVE": ({"cveID": "CVE-2025-0001", "note": "contested", "externalRef": "https://x.test"}, CNA),
        "MergeCVEs": ({"candidates": merge}, GOV),
        "SplitCVE": (
            {"cveID": "CVE-2025-0001", "candidates": [candidate("a", 1, 2), candidate("b", 2)]},
            CNA,
        ),
        "ResolvePartialDuplicate": ({"keepID": "CVE-2025-0001", "reviseID": "CVE-2025-0002"}, CNA),
    }


def payload(op, args, caller):
    return {"op": op, "args": args, "caller": caller, "clockNow": NOW}


@pytest.mark.parametrize("op", sorted(OPS))
def test_dry_run_of_a_valid_tx_passes_on_a_read_only_state(op):
    ca, state = world()
    args, caller = valid_payloads(ca, state)[op]
    target = WorldState() if op == "Genesis" else state
    applied = execute_transaction(target, payload(op, args, caller), CLOCK)
    assert applied or op == "Genesis", "the payload must be valid for the dry run to mean anything"

    ca, state = world()
    frozen = freeze(WorldState() if op == "Genesis" else state)
    before = state_hash(frozen)
    assert execute_transaction(frozen, payload(op, args, caller), CLOCK, check_only=True) == []
    assert state_hash(frozen) == before


# -- arbitrary args -------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**64), 2**64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def near(valid):
    """Three times in four a value from `valid`, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda pick: valid if pick else json_values)


IDS = ["CVE-2025-0001", "CVE-2025-0002", "CVE-2025-0003", "CVE-2024-0009", "CVE-2025-0077", "CVE-1998-0001"]
cve_ids = near(st.sampled_from(IDS))
names = near(st.sampled_from([CNA, OTHER_CNA, GOV, "cna.new", "cna.ghost"]))
texts = near(st.sampled_from(["reason", "", "https://x.test"]))
ints = near(st.integers(-3, 3) | st.integers(NOW - 5, NOW + 5))
severities = near(
    st.fixed_dictionaries(
        {"label": near(st.sampled_from(["NONE", "LOW", "HIGH", "CRITICAL"]))},
        optional={"cvssScore": near(st.floats(-1, 11))},
    )
    | st.sampled_from(["LOW", "HIGH", "bogus"])
)
versions = near(
    st.lists(
        near(
            st.fixed_dictionaries({"lo": st.lists(ints, max_size=4), "hi": st.lists(ints, max_size=4)})
            | st.sampled_from(["1.0.0", "1.0.0-2.5.0", "2.0.0-1.0.0"])
        ),
        max_size=3,
    )
)
annotations = near(
    st.lists(
        near(
            st.fixed_dictionaries(
                {"tag": near(st.sampled_from(["REJECTION_REASON", "DISPUTE_NOTE", "bogus"])), "text": texts},
                optional={"ref": texts},
            )
        ),
        max_size=2,
    )
)
# a valid args object per op, which the strategies below override key by key
BASE_ARGS = {op: args for op, (args, _) in valid_payloads(*world()).items()}
records = near(
    st.fixed_dictionaries(
        {},
        optional={
            "cveID": near(st.sampled_from(["CVE-2025-0010", "CVE-2025-0001"])),
            "description": texts,
            "product": texts,
            "version": versions,
            "severity": severities,
            "embargoUntil": ints,
            "references": near(st.lists(cve_ids, max_size=2)),
            "annotations": annotations,
            "status": near(st.sampled_from(["DRAFT", "PUBLISHED"])),
            "createdAt": ints,
        },
    ).map(lambda over: {**BASE_ARGS["SubmitCVE"]["record"], **over})
)
merge_candidates = st.fixed_dictionaries(
    {
        "cveID": cve_ids,
        "referenceCount": ints,
        "authority": near(st.sampled_from(["VENDOR", "RESEARCHER", "nobody"])),
        "publicizedAt": ints,
    }
)
split_candidates = st.fixed_dictionaries(
    {
        "descriptor": texts,
        "associationFrequency": ints,
        "severity": severities,
        "versionBreadth": ints,
        "mentionOrder": ints,
    }
)
hex64 = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)

# per op: its args keys with values near and far from valid
ARG_SHAPES = {
    "Genesis": {
        "caPublicKey": near(hex64),
        "governance": near(st.dictionaries(st.sampled_from([GOV]) | st.text(max_size=6), json_values)),
    },
    "SubmitCVE": {"record": records, "salt": texts},
    "UpdateCVEStatus": {
        "cveID": cve_ids,
        "newStatus": near(st.sampled_from(["PUBLISHED", "ARCHIVED", "DRAFT"])),
    },
    "CheckEmbargoReleases": {"extra": json_values},
    "OnboardCNA": {
        "cnaID": names,
        "certHash": near(hex64),
        "certificate": json_values,
    },
    "RevokeCNA": {"cnaID": names},
    "RejectCVE": {"cveID": cve_ids, "reason": texts},
    "DisputeCVE": {"cveID": cve_ids, "note": texts, "externalRef": texts},
    "MergeCVEs": {"candidates": near(st.lists(near(merge_candidates), min_size=1, max_size=3))},
    "SplitCVE": {
        "cveID": cve_ids,
        "candidates": near(st.lists(near(split_candidates), min_size=1, max_size=3)),
    },
    "ResolvePartialDuplicate": {"keepID": cve_ids, "reviseID": cve_ids},
}
transactions = st.sampled_from(sorted(ARG_SHAPES)).flatmap(
    lambda op: st.tuples(
        st.just(op),
        near(st.fixed_dictionaries({}, optional=ARG_SHAPES[op]).map(lambda over: {**BASE_ARGS[op], **over})),
        st.sampled_from([CNA, OTHER_CNA, GOV, "cna.ghost"]),
    )
)


def refusal(state, tx, check_only):
    """The error code of one execution, None if it passed. Only a
    LedgerError may escape; a refusal or a dry run leaves the state as it was."""
    before, heap = state_hash(state), list(state._embargo_heap)
    try:
        events = execute_transaction(state, payload(*tx), CLOCK, check_only=check_only)
    except LedgerError as exc:
        assert state_hash(state) == before and list(state._embargo_heap) == heap
        return exc.code
    if check_only:
        assert events == []
        assert state_hash(state) == before and list(state._embargo_heap) == heap
    return None


def test_every_op_is_covered():
    assert set(BASE_ARGS) == set(ARG_SHAPES) == set(OPS)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(transactions)
def test_arbitrary_args_raise_only_ledger_errors_and_dry_run_agrees(tx):
    _, state = world()
    assert refusal(state, tx, check_only=True) == refusal(state, tx, check_only=False)


# -- every op, pinned ------------------------------------------------------------


def _rec(seq, *, year=2025, lo=(1, 0, 0), hi=(2, 0, 0), desc=None):
    return {
        "cveID": f"CVE-{year}-{seq:04d}",
        "description": desc or f"flaw {seq} of {year}",
        "product": f"gadget-{seq % 2}",
        "version": [{"lo": list(lo), "hi": list(hi)}],
        "severity": {"label": "HIGH", "cvssScore": 7.5},
    }


def _submit(tick, seq, cna="cna.alpha", embargo=None, **fields):
    args = {"caller": cna, "record": _rec(seq, **fields)}
    if embargo is not None:
        args["embargoTicks"] = embargo
    return {"atTick": tick, "action": "submit", "args": args}


def _merge_candidate(cid, refs, authority, at):
    return {"cveID": cid, "referenceCount": refs, "authority": authority, "publicizedAt": at}


def _split_candidate(text, frequency, score, label, order):
    return {
        "descriptor": text,
        "associationFrequency": frequency,
        "severity": {"label": label, "cvssScore": score},
        "versionBreadth": 1,
        "mentionOrder": order,
    }


def _partial_dup(tick, *, keep, revise):
    return {"atTick": tick, "action": "partialdup", "args": {"keepID": keep, "reviseID": revise}}


ALL_OPS_SCRIPT = {
    "seed": "a7" * 16,
    "genesisTime": 5000,
    "peers": 3,
    "maxBlockTxs": 3,
    "actions": [
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.alpha"}},
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.beta"}},
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.gamma"}},
        _submit(1, 1),
        _submit(1, 2),
        _submit(1, 3, cna="cna.beta"),
        _submit(1, 4),
        _submit(1, 5, hi=(3, 0, 0)),
        _submit(1, 6, lo=(1, 5, 0), hi=(1, 9, 0)),
        _submit(1, 7, cna="cna.beta", lo=(2, 0, 0), hi=(4, 0, 0)),
        _submit(1, 8, lo=(0, 1, 0), hi=(1, 2, 0)),
        _submit(1, 9, year=2024, embargo=6),
        _submit(1, 20, cna="cna.gamma"),
        # one id submitted twice in a tick: both endorsed, the second fails at commit
        _submit(2, 11),
        _submit(2, 11, cna="cna.beta", desc="a rival text"),
        # 0002 has more references and keeps its id; 0001 turns REJECTED
        {
            "atTick": 3,
            "action": "merge",
            "args": {
                "candidates": [
                    _merge_candidate("CVE-2025-0001", 1, "VENDOR", 10),
                    _merge_candidate("CVE-2025-0002", 4, "RESEARCHER", 20),
                ]
            },
        },
        # the new ids come from the 2025 counter at commit: 0021 and 0022
        {
            "atTick": 3,
            "action": "split",
            "args": {
                "cveID": "CVE-2025-0004",
                "candidates": [
                    _split_candidate("heap overflow part", 2, 7.5, "HIGH", 1),
                    _split_candidate("use after free part", 5, 9.1, "CRITICAL", 2),
                    _split_candidate("info leak part", 2, 3.1, "LOW", 3),
                ],
            },
        },
        # trimmed: 0005 keeps only what 0007 does not cover
        _partial_dup(4, keep="CVE-2025-0007", revise="CVE-2025-0005"),
        {
            "atTick": 4,
            "action": "dispute",
            "args": {
                "cveID": "CVE-2025-0020",
                "note": "vendor disagrees",
                "externalRef": "https://example.org/x",
                "caller": "cna.gamma",
            },
        },
        # escalated: 0006 lies wholly inside the disputed 0020
        _partial_dup(5, keep="CVE-2025-0020", revise="CVE-2025-0006"),
        # one record rejected twice in a tick: the second fails at commit
        {"atTick": 6, "action": "reject", "args": {"cveID": "CVE-2025-0003", "reason": "not a flaw"}},
        {"atTick": 6, "action": "reject", "args": {"cveID": "CVE-2025-0003", "reason": "duplicate report"}},
        # the revoked CNA is then refused at endorsement
        {"atTick": 7, "action": "revoke", "args": {"cna": "cna.beta"}},
        _submit(8, 30, cna="cna.beta"),
        {"atTick": 8, "action": "embargo-tick"},
        {
            "atTick": 9,
            "action": "split",
            "args": {
                "cveID": "CVE-2025-0002",
                "candidates": [
                    _split_candidate("first half", 1, 7.5, "HIGH", 2),
                    _split_candidate("second half", 1, 7.5, "HIGH", 1),
                ],
            },
        },
        {"atTick": 9, "action": "status", "args": {"cveID": "CVE-2025-0022", "newStatus": "ARCHIVED"}},
    ],
}

# Taken before WorldState became the only writer, from a separate checkout.
ALL_OPS_STATE_HASH = "0e0f89179ce0eead3c60e995d4e9f51498f82e9b72cf09aab247002cb3efd9fb"
ALL_OPS_TIP_HASH = "15860b997df5500acdb5236d156e1f1ce2debd68445502c9b0f93c471b4c2328"
ALL_OPS_TRACE_SHA256 = "ce7df308e4dd5e7f12cbdb5571d73221548690c2c29eb6bd91597f0c4a89954c"


def test_all_ops_scenario_bytes_unchanged():
    trace = run_scenario(ALL_OPS_SCRIPT)
    assert all(block["consistent"] for block in trace["blocks"])
    kinds = {e["kind"] for e in trace["events"]}
    assert {"CVEMerged", "CVESplit", "PartialDupResolved", "CNARevoked", "EmbargoReleased"} <= kinds
    escalated = [e["payload"]["escalated"] for e in trace["events"] if e["kind"] == "PartialDupResolved"]
    assert escalated == [False, True]
    assert [f["code"] for f in trace["failedTxs"]] == ["DuplicateCveId", "IllegalTransition"]
    assert [a["ok"] for a in trace["actions"]].count(False) == 1
    assert trace["finalStateHash"] == ALL_OPS_STATE_HASH
    assert trace["blocks"][-1]["blockHash"] == ALL_OPS_TIP_HASH
    assert hashlib.sha256(trace_json(trace).encode()).hexdigest() == ALL_OPS_TRACE_SHA256
