from __future__ import annotations

import pytest

from cveledger.chaincode import (
    ChainClock,
    EMBARGO_HORIZON_SECONDS,
    allocate_cve_id,
    check_embargo_releases,
    content_commitment,
    execute_transaction,
    is_content_withheld,
    onboard_cna,
    revoke_cna,
    submit_cve,
    update_cve_status,
)
from cveledger.errors import (
    AlreadyAuthorized,
    BadCertificate,
    ClockViolation,
    DuplicateCveId,
    IllegalTransition,
    NotAuthorizedCna,
    NotGovernance,
    NotSubmitter,
    SchemaViolation,
    UnauthorizedCaller,
    UnknownCveId,
    UnknownOperation,
    YearOutOfRange,
)
from cveledger.identity import ROLE_CNA, derive_keypair
from cveledger.ledger import state_hash
from cveledger.records import CveStatus, DISPUTED_PREFIX, parse_cve_id
from cveledger.corrections import dispute_cve

from conftest import CNA, GOV, OTHER_CNA, TEST_SEED, make_record, make_state

NOW = 1_700_000_000
CLOCK = ChainClock(NOW)


class TestSubmit:
    def test_future_embargo_lands_draft(self, ca):
        state = make_state(ca)
        _, event = submit_cve(state, make_record(embargo_until=NOW + 86400), CNA, CLOCK, salt="aa")
        stored = state.cve_registry[parse_cve_id("CVE-2025-0001")]
        assert stored.status is CveStatus.DRAFT
        assert event.kind == "CVESubmitted" and event.payload["status"] == "DRAFT"

    def test_no_embargo_lands_published(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].status is CveStatus.PUBLISHED

    def test_embargo_equal_to_now_lands_published(self, ca):
        # the guard is strictly "embargoUntil > now"
        state = make_state(ca)
        submit_cve(state, make_record(embargo_until=NOW), CNA, CLOCK)
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].status is CveStatus.PUBLISHED

    def test_unauthorized_caller_leaves_state_unchanged(self, ca):
        state = make_state(ca)
        before = state_hash(state)
        with pytest.raises(UnauthorizedCaller):
            submit_cve(state, make_record(), "cna.unknown", CLOCK)
        assert state_hash(state) == before

    def test_submitter_field_is_overridden_with_caller(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(submitter=OTHER_CNA), CNA, CLOCK)
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].submitter == CNA

    def test_duplicate_id_rejected(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        before = state_hash(state)
        with pytest.raises(DuplicateCveId):
            submit_cve(state, make_record(), CNA, CLOCK)
        assert state_hash(state) == before

    def test_schema_violations_surface(self, ca):
        state = make_state(ca)
        with pytest.raises(SchemaViolation) as err:
            submit_cve(state, make_record(description=""), CNA, CLOCK)
        assert "EMPTY_DESCRIPTION" in [v.code for v in err.value.violations]

    def test_embargo_horizon_capped(self, ca):
        state = make_state(ca)
        with pytest.raises(ClockViolation):
            submit_cve(
                state,
                make_record(embargo_until=NOW + EMBARGO_HORIZON_SECONDS + 1),
                CNA,
                CLOCK,
            )

    def test_counter_tracks_explicit_ids(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record("CVE-2025-0007"), CNA, CLOCK)
        assert state.id_counters[2025] == 7

    def test_check_only_mutates_nothing(self, ca):
        from cveledger.records import record_to_dict

        state = make_state(ca)
        before = state_hash(state)
        payload = {"op": "SubmitCVE", "args": {"record": record_to_dict(make_record())}, "caller": CNA}
        events = execute_transaction(state, {**payload, "clockNow": NOW}, CLOCK, check_only=True)
        assert events == []
        assert state_hash(state) == before


class TestUpdateStatus:
    def _submitted(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        return state, parse_cve_id("CVE-2025-0001")

    def test_submitter_archives_published_record(self, ca):
        state, cid = self._submitted(ca)
        update_cve_status(state, cid, CveStatus.ARCHIVED, CNA, ChainClock(NOW + 5))
        record = state.cve_registry[cid]
        assert record.status is CveStatus.ARCHIVED
        assert record.updated_at == NOW + 5

    def test_other_cna_refused(self, ca):
        state, cid = self._submitted(ca)
        with pytest.raises(NotSubmitter):
            update_cve_status(state, cid, CveStatus.ARCHIVED, OTHER_CNA, CLOCK)

    def test_governance_override_allowed(self, ca):
        state, cid = self._submitted(ca)
        update_cve_status(state, cid, CveStatus.ARCHIVED, GOV, CLOCK)
        assert state.cve_registry[cid].status is CveStatus.ARCHIVED

    def test_terminal_state_is_terminal(self, ca):
        state, cid = self._submitted(ca)
        update_cve_status(state, cid, CveStatus.ARCHIVED, CNA, CLOCK)
        with pytest.raises(IllegalTransition):
            update_cve_status(state, cid, CveStatus.DRAFT, CNA, CLOCK)

    def test_unknown_record(self, ca):
        state = make_state(ca)
        with pytest.raises(UnknownCveId):
            update_cve_status(state, parse_cve_id("CVE-2025-9999"), CveStatus.ARCHIVED, CNA, CLOCK)

    def test_annotated_states_need_their_correction_ops(self, ca):
        state, cid = self._submitted(ca)
        for target in (CveStatus.REJECTED, CveStatus.DISPUTED):
            with pytest.raises(IllegalTransition):
                update_cve_status(state, cid, target, CNA, CLOCK)

    def test_dispute_resolution_strips_prefix(self, ca):
        state, cid = self._submitted(ca)
        original = state.cve_registry[cid].description
        dispute_cve(state, cid, "contested impact", "https://example.org/a", CNA, CLOCK)
        assert state.cve_registry[cid].description.startswith(DISPUTED_PREFIX)
        update_cve_status(state, cid, CveStatus.PUBLISHED, CNA, ChainClock(NOW + 9))
        assert state.cve_registry[cid].description == original

    def test_early_release_ends_embargo_now(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(embargo_until=NOW + 9999), CNA, CLOCK, salt="ab")
        cid = parse_cve_id("CVE-2025-0001")
        update_cve_status(state, cid, CveStatus.PUBLISHED, CNA, ChainClock(NOW + 10))
        record = state.cve_registry[cid]
        assert record.status is CveStatus.PUBLISHED
        assert record.embargo_until == NOW + 10
        assert not is_content_withheld(record, NOW + 10)


class TestEmbargoSweep:
    def test_due_draft_released_at_boundary(self, ca):
        # embargoUntil <= now releases, so equality counts
        state = make_state(ca)
        submit_cve(state, make_record(embargo_until=NOW + 100), CNA, CLOCK, salt="aa")
        _, events = check_embargo_releases(state, ChainClock(NOW + 100))
        assert [e.kind for e in events] == ["EmbargoReleased"]
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].status is CveStatus.PUBLISHED

    def test_future_draft_untouched(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(embargo_until=NOW + 100), CNA, CLOCK, salt="aa")
        _, events = check_embargo_releases(state, ChainClock(NOW + 99))
        assert events == []
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].status is CveStatus.DRAFT

    def test_empty_registry_no_events(self, ca):
        state = make_state(ca)
        _, events = check_embargo_releases(state, CLOCK)
        assert events == []

    def test_idempotent_for_same_clock(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(embargo_until=NOW + 100), CNA, CLOCK, salt="aa")
        check_embargo_releases(state, ChainClock(NOW + 100))
        before = state_hash(state)
        _, events = check_embargo_releases(state, ChainClock(NOW + 100))
        assert events == [] and state_hash(state) == before

    def test_releases_in_ascending_id_order(self, ca):
        state = make_state(ca)
        for seq in (3, 1, 2):
            submit_cve(
                state, make_record(f"CVE-2025-000{seq}", embargo_until=NOW + 10), CNA, CLOCK, salt="aa"
            )
        _, events = check_embargo_releases(state, ChainClock(NOW + 10))
        assert [e.subject for e in events] == ["CVE-2025-0001", "CVE-2025-0002", "CVE-2025-0003"]


class TestOnboardRevoke:
    def _cert_for(self, ca, name):
        key = derive_keypair(TEST_SEED, name)
        return ca.issue_certificate(name, ROLE_CNA, key.public_hex, issued_at=0)

    def test_onboard_grows_authorized_set(self, ca):
        state = make_state(ca, cnas=())
        cert = self._cert_for(ca, "cna.new")
        before = len(state.authorized_cnas)
        _, event = onboard_cna(state, "cna.new", cert.cert_hash(), GOV, certificate=cert)
        assert len(state.authorized_cnas) == before + 1
        assert event.kind == "CNAOnboarded"

    def test_cna_cannot_onboard_peer(self, ca):
        state = make_state(ca)
        cert = self._cert_for(ca, "cna.new")
        with pytest.raises(NotGovernance):
            onboard_cna(state, "cna.new", cert.cert_hash(), CNA, certificate=cert)

    def test_re_onboarding_refused(self, ca):
        state = make_state(ca, cnas=())
        cert = self._cert_for(ca, "cna.new")
        onboard_cna(state, "cna.new", cert.cert_hash(), GOV, certificate=cert)
        with pytest.raises(AlreadyAuthorized):
            onboard_cna(state, "cna.new", cert.cert_hash(), GOV, certificate=cert)

    def test_certificate_mismatches_refused(self, ca):
        state = make_state(ca, cnas=())
        cert = self._cert_for(ca, "cna.new")
        with pytest.raises(BadCertificate):
            onboard_cna(state, "cna.new", "0" * 64, GOV, certificate=cert)
        with pytest.raises(BadCertificate):
            onboard_cna(state, "cna.other", cert.cert_hash(), GOV, certificate=cert)
        forged = cert.to_dict() | {"caSignature": "0" * 128}
        from cveledger.identity import Certificate

        with pytest.raises(BadCertificate):
            onboard_cna(
                state,
                "cna.new",
                Certificate.from_dict(forged).cert_hash(),
                GOV,
                certificate=Certificate.from_dict(forged),
            )

    def test_revoked_cna_cannot_submit(self, ca):
        state = make_state(ca)
        revoke_cna(state, CNA, GOV)
        with pytest.raises(UnauthorizedCaller):
            submit_cve(state, make_record(), CNA, CLOCK)

    def test_revoke_unknown_cna(self, ca):
        state = make_state(ca)
        with pytest.raises(NotAuthorizedCna):
            revoke_cna(state, "cna.ghost", GOV)

    def test_records_survive_submitter_revocation(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        revoke_cna(state, CNA, GOV)
        assert parse_cve_id("CVE-2025-0001") in state.cve_registry


class TestAllocate:
    def test_fresh_year_starts_at_one(self, ca):
        state = make_state(ca)
        _, cid = allocate_cve_id(state, 2025)
        assert str(cid) == "CVE-2025-0001"

    def test_three_allocations_then_fourth(self, ca):
        state = make_state(ca)
        for _ in range(3):
            allocate_cve_id(state, 2025)
        _, cid = allocate_cve_id(state, 2025)
        assert str(cid) == "CVE-2025-0004"

    def test_no_reuse_after_rejection(self, ca):
        from cveledger.corrections import reject_cve

        state = make_state(ca)
        for seq in (1, 2, 3, 4):
            submit_cve(state, make_record(f"CVE-2025-000{seq}"), CNA, CLOCK)
        reject_cve(state, parse_cve_id("CVE-2025-0002"), "bogus", GOV, CLOCK)
        _, cid = allocate_cve_id(state, 2025)
        assert str(cid) == "CVE-2025-0005"

    def test_year_bound(self, ca):
        state = make_state(ca)
        with pytest.raises(YearOutOfRange):
            allocate_cve_id(state, 1998)


class TestCommitments:
    def test_withheld_while_draft_and_until_embargo(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(embargo_until=NOW + 50), CNA, CLOCK, salt="0f" * 8)
        record = state.cve_registry[parse_cve_id("CVE-2025-0001")]
        assert is_content_withheld(record, NOW)
        # rejected before release: still withheld until the embargo passes
        from cveledger.corrections import reject_cve

        reject_cve(state, record.cve_id, "withdrawn", GOV, CLOCK)
        rejected = state.cve_registry[record.cve_id]
        assert is_content_withheld(rejected, NOW + 49)
        assert not is_content_withheld(rejected, NOW + 50)

    def test_commitment_depends_on_salt_and_content(self, ca):
        r1 = make_record(embargo_salt="aa")
        assert content_commitment(r1) != content_commitment(r1.with_(embargo_salt="bb"))
        assert content_commitment(r1) != content_commitment(r1.with_(description="other text"))
        assert content_commitment(r1) == content_commitment(make_record(embargo_salt="aa"))


class TestDispatcher:
    def test_unknown_op(self, ca):
        state = make_state(ca)
        with pytest.raises(UnknownOperation):
            execute_transaction(state, {"op": "Nope", "args": {}, "caller": CNA, "clockNow": NOW}, CLOCK)

    def test_guard_errors_leave_state_hash_unchanged(self, ca):
        from cveledger.records import record_to_dict

        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        before = state_hash(state)
        attempts = [
            {"op": "SubmitCVE", "args": {"record": record_to_dict(make_record())}, "caller": "cna.ghost"},
            {"op": "SubmitCVE", "args": {"record": record_to_dict(make_record())}, "caller": CNA},
            {"op": "UpdateCVEStatus", "args": {"cveID": "CVE-2025-0001", "newStatus": "DRAFT"}, "caller": CNA},
            {"op": "RevokeCNA", "args": {"cnaID": "cna.ghost"}, "caller": GOV},
            {"op": "RevokeCNA", "args": {"cnaID": CNA}, "caller": OTHER_CNA},
            {"op": "RejectCVE", "args": {"cveID": "CVE-2025-0002", "reason": "x"}, "caller": GOV},
            {"op": "SubmitCVE", "args": {}, "caller": CNA},
        ]
        for payload in attempts:
            payload["clockNow"] = NOW
            with pytest.raises(Exception):
                execute_transaction(state, payload, CLOCK)
            assert state_hash(state) == before, f"{payload['op']} mutated state on error"

    def test_event_log_grows_only_on_success(self, ca):
        state = make_state(ca)
        n = len(state.event_log)
        submit_cve(state, make_record(), CNA, CLOCK)
        assert len(state.event_log) == n + 1
        with pytest.raises(DuplicateCveId):
            submit_cve(state, make_record(), CNA, CLOCK)
        assert len(state.event_log) == n + 1

    def test_same_sequence_same_state_hash(self):
        from cveledger.identity import CertificateAuthority

        def run():
            state = make_state(CertificateAuthority(derive_keypair(TEST_SEED, "ca")))
            state.begin_block(1, NOW)
            submit_cve(state, make_record(embargo_until=NOW + 10), CNA, CLOCK, salt="ab")
            state.begin_block(2, NOW + 10)
            check_embargo_releases(state, ChainClock(NOW + 10))
            update_cve_status(state, parse_cve_id("CVE-2025-0001"), CveStatus.ARCHIVED, CNA, ChainClock(NOW + 10))
            return state_hash(state)

        assert run() == run()

    def test_event_positions_strictly_increase(self, ca):
        state = make_state(ca)
        state.begin_block(1, NOW)
        for seq in (1, 2, 3):
            submit_cve(state, make_record(f"CVE-2025-000{seq}", embargo_until=NOW + 10), CNA, CLOCK, salt="aa")
        state.begin_block(2, NOW + 10)
        check_embargo_releases(state, ChainClock(NOW + 10))
        positions = [(e.block_height, e.tx_index) for e in state.event_log]
        assert positions == sorted(set(positions)), "event positions must strictly increase"


class TestArgTypes:
    """Type confusion in transaction args is refused with a LedgerError and
    leaves the state as it was."""

    def _refused(self, state, payload):
        before = state_hash(state)
        with pytest.raises(SchemaViolation) as info:
            execute_transaction(state, {**payload, "clockNow": NOW}, CLOCK)
        assert state_hash(state) == before
        return {v.code for v in info.value.violations}

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("description", 12345, "BAD_DESCRIPTION_TYPE"),
            ("product", {"a": 1}, "BAD_PRODUCT_TYPE"),
            ("product", ["widget"], "BAD_PRODUCT_TYPE"),
        ],
    )
    def test_submit_refuses_non_string_content(self, ca, field, value, code):
        from cveledger.records import record_to_dict

        state = make_state(ca)
        record = {**record_to_dict(make_record()), field: value}
        payload = {"op": "SubmitCVE", "args": {"record": record}, "caller": CNA}
        assert code in self._refused(state, payload)
        assert state.cve_registry == {}

    def test_revoke_refuses_non_string_cna_id(self, ca):
        state = make_state(ca)
        payload = {"op": "RevokeCNA", "args": {"cnaID": ["x"]}, "caller": GOV}
        assert self._refused(state, payload) == {"BAD_ARGS"}
        assert CNA in state.authorized_cnas

    @pytest.mark.parametrize(
        "record_fields, salt",
        [
            ({"embargoUntil": NOW + 60}, {"a": 1}),
            ({"embargoUntil": True}, None),
            ({"embargoUntil": 150.9}, None),
            ({"annotations": [{"tag": "REJECTION_REASON", "text": 5}]}, None),
            ({"annotations": [{"tag": "DISPUTE_NOTE", "text": "note", "ref": ["x"]}]}, None),
        ],
    )
    def test_submit_refuses_mistyped_args(self, ca, record_fields, salt):
        from cveledger.records import record_to_dict

        state = make_state(ca)
        args = {"record": {**record_to_dict(make_record()), **record_fields}}
        if salt is not None:
            args["salt"] = salt
        assert self._refused(state, {"op": "SubmitCVE", "args": args, "caller": CNA}) == {"BAD_ARGS"}
        assert state.cve_registry == {}

    def test_dispute_refuses_non_string_external_ref(self, ca):
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        args = {"cveID": "CVE-2025-0001", "note": "contested", "externalRef": {"x": [1]}}
        assert self._refused(state, {"op": "DisputeCVE", "args": args, "caller": CNA}) == {"BAD_ARGS"}
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].status is CveStatus.PUBLISHED

    def _refused_dry_run_too(self, state, payload):
        before = state_hash(state)
        with pytest.raises(SchemaViolation) as info:
            execute_transaction(state, {**payload, "clockNow": NOW}, CLOCK, check_only=True)
        assert {v.code for v in info.value.violations} == {"BAD_ARGS"}
        assert state_hash(state) == before
        return self._refused(state, payload)

    @staticmethod
    def _split_candidate(descriptor, order, **fields):
        return {
            "descriptor": descriptor,
            "associationFrequency": 1,
            "severity": {"label": "HIGH", "cvssScore": 7.5},
            "versionBreadth": 1,
            "mentionOrder": order,
            **fields,
        }

    @pytest.mark.parametrize("descriptors", [(5, {"x": 1}), ("first part", 5), ("first part", None)])
    def test_split_refuses_non_string_descriptor(self, ca, descriptors):
        # committed, such a record made a later DisputeCVE raise TypeError
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        candidates = [self._split_candidate(d, order) for order, d in enumerate(descriptors, 1)]
        args = {"cveID": "CVE-2025-0001", "candidates": candidates}
        payload = {"op": "SplitCVE", "args": args, "caller": CNA}
        assert self._refused_dry_run_too(state, payload) == {"BAD_ARGS"}
        assert list(state.cve_registry) == [parse_cve_id("CVE-2025-0001")]

    @pytest.mark.parametrize("field", ["associationFrequency", "versionBreadth", "mentionOrder"])
    @pytest.mark.parametrize("value", [5.9, "5", True])
    def test_split_refuses_non_int_candidate_fields(self, ca, field, value):
        state = make_state(ca)
        submit_cve(state, make_record(), CNA, CLOCK)
        candidates = [
            self._split_candidate("first part", 1, **{field: value}),
            self._split_candidate("second", 2),
        ]
        args = {"cveID": "CVE-2025-0001", "candidates": candidates}
        payload = {"op": "SplitCVE", "args": args, "caller": CNA}
        assert self._refused_dry_run_too(state, payload) == {"BAD_ARGS"}

    @pytest.mark.parametrize("field", ["referenceCount", "publicizedAt"])
    @pytest.mark.parametrize("value", [5.9, "5", True])
    def test_merge_refuses_non_int_candidate_fields(self, ca, field, value):
        # these values choose the canonical id, so coercing them changes the outcome
        state = make_state(ca)
        for cid in ("CVE-2025-0001", "CVE-2025-0002"):
            submit_cve(state, make_record(cid), CNA, CLOCK)
        candidates = [
            {
                "cveID": "CVE-2025-0001",
                "referenceCount": 1,
                "authority": "VENDOR",
                "publicizedAt": 1,
                field: value,
            },
            {"cveID": "CVE-2025-0002", "referenceCount": 3, "authority": "VENDOR", "publicizedAt": 1},
        ]
        payload = {"op": "MergeCVEs", "args": {"candidates": candidates}, "caller": CNA}
        assert self._refused_dry_run_too(state, payload) == {"BAD_ARGS"}
        assert {r.status for r in state.cve_registry.values()} == {CveStatus.PUBLISHED}

    @pytest.mark.parametrize("score", [True, False, "7.5"])
    def test_severity_refuses_non_numeric_score(self, ca, score):
        from cveledger.records import record_to_dict

        state = make_state(ca)
        record = {**record_to_dict(make_record()), "severity": {"label": "HIGH", "cvssScore": score}}
        payload = {"op": "SubmitCVE", "args": {"record": record}, "caller": CNA}
        assert self._refused_dry_run_too(state, payload) == {"BAD_ARGS"}
        assert state.cve_registry == {}
        submit_cve(state, make_record(), CNA, CLOCK)
        severity = {"label": "HIGH", "cvssScore": score}
        candidates = [
            self._split_candidate("first part", 1, severity=severity),
            self._split_candidate("second", 2),
        ]
        args = {"cveID": "CVE-2025-0001", "candidates": candidates}
        payload = {"op": "SplitCVE", "args": args, "caller": CNA}
        assert self._refused_dry_run_too(state, payload) == {"BAD_ARGS"}

    def test_severity_accepts_int_and_null_scores(self, ca):
        from cveledger.records import record_to_dict

        state = make_state(ca)
        for cid, severity in (("CVE-2025-0001", {"label": "HIGH", "cvssScore": 7}),
                              ("CVE-2025-0002", {"label": "HIGH", "cvssScore": None})):
            record = {**record_to_dict(make_record(cid)), "severity": severity}
            execute_transaction(state, {"op": "SubmitCVE", "args": {"record": record}, "caller": CNA}, CLOCK)
        assert state.cve_registry[parse_cve_id("CVE-2025-0001")].severity.cvss_score == 7.0
        assert state.cve_registry[parse_cve_id("CVE-2025-0002")].severity.cvss_score is None
