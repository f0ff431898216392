from __future__ import annotations

import pytest

from cveledger import network
from cveledger.identity import ROLE_READER, sign_payload
from cveledger.ledger import EndorsementPolicy, append_block, verify_chain
from cveledger.network import Refusal, SimulatedNetwork, run_scenario, trace_json


def record_args(seq, *, submitter="cna.redhat", embargo=None):
    record = {
        "cveID": f"CVE-2025-{seq:04d}",
        "description": f"issue number {seq}",
        "product": "widget",
        "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
        "severity": {"label": "MEDIUM", "cvssScore": 5.0},
        "submitterCNA": submitter,
    }
    if embargo is not None:
        record["embargoUntil"] = embargo
    args = {"record": record}
    if embargo is not None:
        args["salt"] = f"{seq:032x}"
    return args


def onboarded_network(**kwargs) -> SimulatedNetwork:
    net = SimulatedNetwork(genesis_time=1000, **kwargs)
    cert = net.issue_identity("cna.redhat")
    net.invoke(
        "OnboardCNA",
        {"cnaID": "cna.redhat", "certHash": cert.cert_hash(), "certificate": cert.to_dict()},
        "gov.root",
    )
    net.tick(1001)
    return net


class TestEndorsement:
    def test_valid_submission_endorsed(self):
        net = onboarded_network()
        tx = net.build_tx("SubmitCVE", record_args(1), "cna.redhat")
        outcome = net.peers[0].endorse(tx)
        assert not isinstance(outcome, Refusal)
        peer_id, sig = outcome
        assert peer_id == net.peers[0].peer_id and len(sig) == 128

    def test_revoked_cna_refused_as_unauthorized(self):
        net = onboarded_network()
        net.invoke("RevokeCNA", {"cnaID": "cna.redhat"}, "gov.root")
        net.tick(1002)
        tx = net.build_tx("SubmitCVE", record_args(1), "cna.redhat")
        outcome = net.peers[0].endorse(tx)
        assert isinstance(outcome, Refusal)
        assert outcome.code == "UnauthorizedCaller"

    def test_malformed_schema_refused(self):
        net = onboarded_network()
        args = record_args(1)
        args["record"]["description"] = ""
        tx = net.build_tx("SubmitCVE", args, "cna.redhat")
        outcome = net.peers[0].endorse(tx)
        assert isinstance(outcome, Refusal)
        assert outcome.code == "SchemaViolation"

    def test_reader_certificates_cannot_sign(self):
        net = onboarded_network()
        net.issue_identity("reader.one", ROLE_READER)
        # readers never enter peer state via onboarding; force the cert in to
        # isolate the role check
        for peer in net.peers:
            peer.state.certificates["reader.one"] = net.certs["reader.one"]
        tx = net.build_tx("CheckEmbargoReleases", {}, "reader.one")
        outcome = net.peers[0].endorse(tx)
        assert isinstance(outcome, Refusal) and outcome.code == "UnauthorizedCaller"

    def test_unknown_identity_refused(self):
        net = onboarded_network()
        net.keys["cna.ghost"] = net.keys["cna.redhat"]
        tx = net.build_tx("SubmitCVE", record_args(1, submitter="cna.ghost"), "cna.ghost")
        outcome = net.peers[0].endorse(tx)
        assert isinstance(outcome, Refusal) and outcome.code == "BadCertificate"

    def test_a_revoked_submitter_passes_the_dry_run_and_is_refused_as_revoked(self):
        net = onboarded_network()
        assert net.invoke("SubmitCVE", record_args(1), "cna.redhat").accepted
        net.tick(1002)
        assert net.revoke("cna.redhat", "gov.root").accepted
        args = {"cveID": "CVE-2025-0001", "newStatus": "ARCHIVED"}
        # the submitter may move its own record, and the revocation is not committed yet
        assert not isinstance(net.peers[0].endorse(net.build_tx("UpdateCVEStatus", args, "cna.redhat")), Refusal)
        net.tick(1003)
        outcome = net.peers[0].endorse(net.build_tx("UpdateCVEStatus", args, "cna.redhat"))
        assert isinstance(outcome, Refusal) and outcome.code == "Revoked"
        assert str(outcome.error) == f"certificate serial {net.certs['cna.redhat'].serial} revoked"


class TestOrdering:
    def test_250_txs_cut_into_100_100_50(self):
        net = onboarded_network()
        for seq in range(1, 251):
            result = net.invoke("SubmitCVE", record_args(seq), "cna.redhat")
            assert result.accepted
        blocks = net.tick(1002)
        assert [len(b.txs) for b in blocks] == [100, 100, 50]

    def test_all_peers_agree_at_every_height(self):
        net = onboarded_network()
        for seq in range(1, 31):
            net.invoke("SubmitCVE", record_args(seq, embargo=1005 if seq % 3 == 0 else None), "cna.redhat")
            if seq % 10 == 0:
                net.tick(1001 + seq // 10)
                hashes = set(net.state_hashes().values())
                assert len(hashes) == 1
        net.invoke("CheckEmbargoReleases", {}, "gov.root")
        net.tick(1010)
        assert net.consistent()

    def test_commit_time_revalidation_marks_failures(self):
        net = onboarded_network()
        tx = net.build_tx("SubmitCVE", record_args(7), "cna.redhat")
        peer = net.peers[0]
        endorsement = (peer.peer_id, sign_payload(peer.key, tx.payload_bytes()).hex())
        # revocation lands first
        net.invoke("RevokeCNA", {"cnaID": "cna.redhat"}, "gov.root")
        net.tick(1002)
        # the held-back endorsed tx commits afterwards: included but failed
        net.pending.append(tx.with_endorsements([endorsement]))
        net.tick(1003)
        state = net.peers[0].state
        assert all("CVE-2025-0007" != str(k) for k in state.cve_registry)
        assert [f["code"] for f in state.failed_txs] == ["UnauthorizedCaller"]
        assert verify_chain(net.chain).valid
        assert net.consistent()

    def test_unendorsed_tx_never_commits(self):
        from cveledger.errors import PolicyUnsatisfied

        net = onboarded_network()
        bare = net.build_tx("SubmitCVE", record_args(1), "cna.redhat")
        with pytest.raises(PolicyUnsatisfied):
            append_block(net.chain, [bare], 2000, net.trust)
        committed_ids = {t.tx_id for b in net.chain for t in b.txs}
        assert bare.tx_id not in committed_ids

    def test_majority_policy(self):
        net = onboarded_network(
            policy=EndorsementPolicy(rule="MAJORITY_OF", orgs=frozenset({"org0", "org1", "org2"}))
        )
        result = net.invoke("SubmitCVE", record_args(1), "cna.redhat")
        assert result.accepted
        assert len(result.tx.endorsements) >= 2
        net.tick(1002)
        assert net.consistent()

    def test_refused_submission_reports_refusals(self):
        net = onboarded_network()
        args = record_args(1)
        args["record"]["description"] = ""
        result = net.invoke("SubmitCVE", args, "cna.redhat")
        assert not result.accepted
        assert {r.code for r in result.refusals} == {"SchemaViolation"}
        blocks = net.tick(1002)
        assert blocks == []


SUBMISSION_FLOW = {
    "seed": "00" * 16,
    "genesisTime": 1000,
    "tickSeconds": 1,
    "actions": [
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.redhat"}},
        {
            "atTick": 1,
            "action": "submit",
            "args": {
                "record": {
                    "cveID": "CVE-2025-0001",
                    "description": "embargoed flaw",
                    "product": "widget",
                    "version": [{"lo": [1, 0, 0], "hi": [1, 5, 0]}],
                    "severity": {"label": "HIGH", "cvssScore": 8.1},
                    "submitterCNA": "cna.redhat",
                },
                "embargoTicks": 4,
            },
        },
        {"atTick": 2, "action": "embargo-tick", "args": {}},
        {"atTick": 4, "action": "embargo-tick", "args": {}},
    ],
}


class TestScenarios:
    def test_submission_flow_releases_after_embargo(self):
        trace = run_scenario(SUBMISSION_FLOW)
        assert all(a["ok"] for a in trace["actions"])
        kinds = [e["kind"] for e in trace["events"]]
        assert kinds == ["CNAOnboarded", "CVESubmitted", "EmbargoReleased"]
        submitted = [e for e in trace["events"] if e["kind"] == "CVESubmitted"]
        assert submitted[0]["payload"]["status"] == "DRAFT"
        assert all(b["consistent"] for b in trace["blocks"])

    def test_empty_script_gives_genesis_only_trace(self):
        trace = run_scenario({"seed": "11" * 16})
        assert trace["blocks"] == []
        assert trace["actions"] == []
        assert trace["stats"]["committedTxs"] == 0

    def test_identical_transactions_at_one_clock_each_count_as_committed(self):
        # the two embargo-ticks at tick 1 share a tx id
        trace = run_scenario([{"atTick": t, "action": "embargo-tick", "args": {}} for t in (0, 1, 1)])
        assert sum(block["txCount"] for block in trace["blocks"]) == 3
        assert trace["stats"]["committedTxs"] == 3

    def test_a_status_update_endorsed_in_the_revoking_tick_commits_after_the_revocation(self):
        # revocation takes effect when the RevokeCNA block commits: the update
        # endorsed in the same tick is cut into that block after it and applied
        record = {
            "description": "flaw",
            "product": "widget",
            "version": [{"lo": [1, 0, 0], "hi": [1, 5, 0]}],
            "severity": {"label": "HIGH", "cvssScore": 8.1},
            "submitterCNA": "cna.redhat",
        }

        def archive(tick, cve_id):
            args = {"cveID": cve_id, "newStatus": "ARCHIVED", "caller": "cna.redhat"}
            return {"atTick": tick, "action": "status", "args": args}

        trace = run_scenario(
            {
                "seed": "00" * 16,
                "genesisTime": 1000,
                "actions": [
                    {"atTick": 0, "action": "onboard", "args": {"cna": "cna.redhat"}},
                    {"atTick": 1, "action": "submit", "args": {"record": {**record, "cveID": "CVE-2025-0001"}}},
                    {"atTick": 1, "action": "submit", "args": {"record": {**record, "cveID": "CVE-2025-0002"}}},
                    {"atTick": 2, "action": "revoke", "args": {"cna": "cna.redhat"}},
                    archive(2, "CVE-2025-0001"),
                    archive(3, "CVE-2025-0002"),
                ],
            }
        )
        revoke, same_tick, next_tick = trace["actions"][3:]
        assert revoke["ok"] and same_tick["ok"] and not next_tick["ok"]
        assert {r["code"] for r in next_tick["refusals"]} == {"Revoked"}
        assert [(e["kind"], e["blockHeight"], e["txIndex"]) for e in trace["events"][3:]] == [
            ("CNARevoked", 3, 0),
            ("CVEStatusChanged", 3, 1),
        ]
        assert trace["events"][4]["subject"] == "CVE-2025-0001"
        assert trace["failedTxs"] == [] and trace["stats"]["committedTxs"] == 5
        assert [block["txCount"] for block in trace["blocks"]] == [1, 2, 2]

    def test_same_script_twice_identical_bytes(self):
        first = trace_json(run_scenario(SUBMISSION_FLOW))
        second = trace_json(run_scenario(SUBMISSION_FLOW))
        assert first == second

    def test_liveness_within_two_ticks(self):
        trace = run_scenario(SUBMISSION_FLOW)
        assert trace["stats"]["latencyTicks"]["max"] <= 2

    @pytest.mark.parametrize(
        "actions",
        [
            [{"atTick": -1, "action": "bogus"}],
            [
                {"atTick": -1, "action": "onboard", "args": {"cna": "cna.a"}},
                {"atTick": 0, "action": "onboard", "args": {"cna": "cna.b"}},
            ],
        ],
    )
    def test_an_action_at_a_negative_tick_is_refused_by_name(self, actions):
        with pytest.raises(ValueError, match="negative tick -1") as refused:
            run_scenario(actions)
        assert repr(actions[0]) in str(refused.value)

    @pytest.mark.parametrize("value", [1.5, "2", True])
    @pytest.mark.parametrize("field", ["atTick", "embargoTicks", "genesisTime", "tickSeconds", "peers", "maxBlockTxs"])
    def test_a_number_that_is_not_a_json_integer_is_refused_by_name(self, monkeypatch, field, value):
        record = {"cveID": "CVE-2025-0001", "submitterCNA": "cna.a"}
        submit = {"atTick": 1, "action": "submit", "args": {"record": record, "embargoTicks": 2}}
        script = {"actions": [{"atTick": 0, "action": "onboard", "args": {"cna": "cna.a"}}, submit]}
        if field in ("atTick", "embargoTicks"):
            (submit if field == "atTick" else submit["args"])[field] = value
        else:
            script[field] = value

        def no_network(*args, **kwargs):
            raise AssertionError("the network was built")

        monkeypatch.setattr(network, "SimulatedNetwork", no_network)
        with pytest.raises(ValueError, match=field):
            run_scenario(script)

    def test_scripted_mixed_run_consistent(self):
        actions = [
            {"atTick": 0, "action": "onboard", "args": {"cna": "cna.redhat"}},
            {"atTick": 0, "action": "onboard", "args": {"cna": "cna.debian"}},
        ]
        for seq in range(1, 21):
            actions.append(
                {
                    "atTick": 1 + seq % 3,
                    "action": "submit",
                    "args": {
                        "record": {
                            "cveID": f"CVE-2025-{seq:04d}",
                            "description": f"flaw {seq}",
                            "product": "widget" if seq % 2 else "gadget",
                            "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
                            "severity": {"label": "LOW", "cvssScore": 2.0},
                            "submitterCNA": "cna.redhat" if seq % 2 else "cna.debian",
                        },
                        **({"embargoTicks": 6} if seq % 5 == 0 else {}),
                    },
                }
            )
        actions += [
            {"atTick": 4, "action": "reject", "args": {"cveID": "CVE-2025-0001", "reason": "dup"}},
            {"atTick": 4, "action": "dispute", "args": {"cveID": "CVE-2025-0002", "note": "contested"}},
            {"atTick": 5, "action": "revoke", "args": {"cna": "cna.debian"}},
            {"atTick": 6, "action": "embargo-tick", "args": {}},
            {"atTick": 7, "action": "status", "args": {"cveID": "CVE-2025-0003", "newStatus": "ARCHIVED"}},
        ]
        trace = run_scenario({"seed": "22" * 16, "genesisTime": 5000, "actions": actions})
        assert all(b["consistent"] for b in trace["blocks"])
        # post-revocation submissions by the revoked CNA would be refused;
        # everything scheduled before tick 5 went through
        ok_count = sum(1 for a in trace["actions"] if a["ok"])
        assert ok_count == len(trace["actions"])  # all scheduled before revocation bites


class TestClockRange:
    """The clock stays a time a certificate can be issued at: a u64."""

    def test_a_clock_past_2_64_is_refused_before_anything_is_queued_or_committed(self):
        from cveledger.errors import ClockViolation

        net = onboarded_network()
        assert net.invoke("SubmitCVE", record_args(1), "cna.redhat").accepted
        height, pending = len(net.chain), list(net.pending)
        for move in (lambda: net.tick(2**64), lambda: net.advance_clock(2**64), lambda: net.tick(10**23)):
            with pytest.raises(ClockViolation):
                move()
            assert (net.clock, len(net.chain), net.pending) == (1001, height, pending)
        net.advance_clock(2**64 - 1)  # the last time a certificate can carry
        with pytest.raises(ClockViolation):
            net.tick()  # one tick_seconds step past it
        assert (net.clock, len(net.chain), net.pending) == (2**64 - 1, height, pending)
        assert len(net.tick(2**64 - 1)) == 1
        assert net.issue_identity("cna.late").issued_at == 2**64 - 1
