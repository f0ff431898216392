"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from cveledger.bench import bench
from cveledger.chaincode import ChainClock, submit_cve
from cveledger.corrections import select_canonical, select_prominent
from cveledger.decision import ArchitectureVerdict, DecisionInputs, decide_architecture
from cveledger.httpapi import redacted_block_dict
from cveledger.ledger import query_public, record_view, replay, state_hash
from cveledger.network import drive_scenario, run_scenario
from cveledger.records import CveStatus, status_transition_valid
from cveledger.storage import ChainAuditor, block_line, read_chain, write_chain_file
from cveledger.versions import VersionRange, contains_point, subtract

from conftest import CNA, make_record, make_state
from test_corrections import canonical_oracle, mc, prominent_oracle, sc
from test_decision import transcribed_verdict
from test_network import onboarded_network


def report(number: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS — {detail}")


# -- 1. replication consistency ------------------------------------------------


def mixed_workload_script(tx_target: int = 1000) -> dict:
    """Deterministic mixed workload: submissions (some embargoed),
    onboarding, revocation, the five corrections, and embargo sweeps."""
    rng = random.Random(0x5EED)
    cnas = [f"cna.org{i}" for i in range(5)]
    actions = [
        {"atTick": 0, "action": "onboard", "args": {"cna": cna}} for cna in cnas
    ]

    def rec(seq: int, submitter: str, version=None):
        return {
            "cveID": f"CVE-2025-{seq:04d}",
            "description": f"workload flaw {seq}",
            "product": f"product{seq % 7}",
            "version": version or [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
            "severity": {"label": "MEDIUM", "cvssScore": 5.0},
            "submitterCNA": submitter,
        }

    n_submits = tx_target - 50
    seq = 1
    for i in range(n_submits):
        tick = 1 + (i * 18) // n_submits  # spread over ticks 1..18
        submitter = cnas[i % len(cnas)]
        args: dict = {}
        if 200 <= seq < 220:  # partial-duplicate victims get wider coverage
            args["record"] = rec(seq, submitter, version=[{"lo": [1, 5, 0], "hi": [3, 0, 0]}])
        else:
            args["record"] = rec(seq, submitter)
        # correction targets (low sequence numbers) stay unembargoed so the
        # tick-19 corrections always find published records
        if seq > 240 and rng.random() < 0.15:
            args["embargoTicks"] = rng.randint(20, 24)
        actions.append({"atTick": tick, "action": "submit", "args": args})
        seq += 1

    # corrections on records committed well before tick 19
    for i in range(10):
        actions.append(
            {"atTick": 19, "action": "reject", "args": {"cveID": f"CVE-2025-{i + 1:04d}", "reason": f"withdrawn {i}"}}
        )
    for i in range(10, 20):
        actions.append(
            {"atTick": 19, "action": "dispute", "args": {"cveID": f"CVE-2025-{i + 1:04d}", "note": "contested"}}
        )
    for i in range(20, 30, 2):
        actions.append(
            {
                "atTick": 19,
                "action": "merge",
                "args": {
                    "candidates": [
                        {"cveID": f"CVE-2025-{i + 1:04d}", "referenceCount": 5, "authority": "VENDOR", "publicizedAt": 1},
                        {"cveID": f"CVE-2025-{i + 2:04d}", "referenceCount": 1, "authority": "RESEARCHER", "publicizedAt": 2},
                    ]
                },
            }
        )
    for i in range(30, 35):
        actions.append(
            {
                "atTick": 19,
                "action": "split",
                "args": {
                    "cveID": f"CVE-2025-{i + 1:04d}",
                    "candidates": [
                        {"descriptor": f"part a of {i}", "associationFrequency": 9, "severity": {"label": "HIGH", "cvssScore": 7.5}, "versionBreadth": 2, "mentionOrder": 1},
                        {"descriptor": f"part b of {i}", "associationFrequency": 1, "severity": {"label": "LOW", "cvssScore": 2.0}, "versionBreadth": 1, "mentionOrder": 2},
                    ],
                },
            }
        )
    for i in range(200, 210):
        actions.append(
            {"atTick": 19, "action": "partialdup", "args": {"keepID": f"CVE-2025-{i - 100 + 1:04d}", "reviseID": f"CVE-2025-{i + 1:04d}"}}
        )
    for i in range(9):
        actions.append({"atTick": 20 + i // 2, "action": "embargo-tick", "args": {}})
    actions.append({"atTick": 25, "action": "revoke", "args": {"cna": cnas[4]}})
    actions.append({"atTick": 25, "action": "status", "args": {"cveID": "CVE-2025-0040", "newStatus": "ARCHIVED"}})
    return {"seed": "ac" * 16, "genesisTime": 10_000, "actions": actions}


def test_acceptance_1_replication_consistency():
    started = time.perf_counter()
    trace = run_scenario(mixed_workload_script(1000))
    elapsed = time.perf_counter() - started

    assert trace["stats"]["committedTxs"] >= 1000, "workload must commit at least 1000 transactions"
    assert trace["blocks"], "workload must cut blocks"
    inconsistent = [b["height"] for b in trace["blocks"] if not b["consistent"]]
    assert inconsistent == [], f"peers diverged at heights {inconsistent}"
    per_height = {b["height"]: set(b["stateHashes"].values()) for b in trace["blocks"]}
    assert all(len(hashes) == 1 for hashes in per_height.values())
    assert len(next(iter(per_height[1]))) == 64
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds the 30s budget"
    report(
        1,
        "replication consistency",
        f"{trace['stats']['committedTxs']} txs, {len(trace['blocks'])} blocks, "
        f"3 peers in hash agreement at every height, {elapsed:.1f}s",
    )


# -- 2. tamper evidence ---------------------------------------------------------


def test_acceptance_2_tamper_evidence(tmp_path):
    net = onboarded_network()  # genesis + onboarding block
    for seq in range(1, 9):  # 8 more blocks -> 10 total
        from test_network import record_args

        result = net.invoke("SubmitCVE", record_args(seq), "cna.redhat")
        assert result.accepted
        net.tick(1001 + seq)
    assert len(net.chain) == 10

    path = tmp_path / "ledger.jsonl"
    write_chain_file(path, net.chain)
    data = path.read_bytes()
    auditor = ChainAuditor()
    assert auditor.audit_bytes(data).valid

    # map byte offsets to the block height whose line contains them
    offsets = []
    start = 0
    for height in range(len(net.chain)):
        end = data.index(b"\n", start)
        offsets.append((start, end, height))
        start = end + 1

    total_bits = len(data) * 8
    cap = 1_000_000
    if total_bits <= cap:
        positions = [(byte, bit) for byte in range(len(data)) for bit in range(8)]
    else:  # deterministic sample, still covering every byte
        rng = random.Random(0xB17)
        positions = [(byte, rng.randrange(8)) for byte in range(len(data))]
        while len(positions) < cap:
            positions.append((rng.randrange(len(data)), rng.randrange(8)))
        positions = positions[:cap]

    def height_of(byte_pos: int) -> int:
        for lo, hi, height in offsets:
            if lo <= byte_pos <= hi:
                return height
        raise AssertionError(f"byte {byte_pos} beyond mapped lines")

    # a flip in a line is audited from the context that a valid audit of the
    # lines before it ends with, as the audit watermark resumes; genesis from scratch
    starts = [None] + [dict(auditor.audit(data[: hi + 1])[1], offset=hi + 1) for _, hi, _ in offsets[:-1]]

    undetected = []
    wrong_height = []
    mutated = bytearray(data)
    for byte_pos, bit in positions:
        mutated[byte_pos] ^= 1 << bit
        result = auditor.audit(bytes(mutated), starts[height_of(byte_pos)])[0]
        mutated[byte_pos] ^= 1 << bit  # restore
        if result.valid:
            undetected.append((byte_pos, bit))
        elif result.first_bad_height != height_of(byte_pos):
            wrong_height.append((byte_pos, bit, result.first_bad_height))

    assert not undetected, f"{len(undetected)} mutations slipped through, e.g. {undetected[:3]}"
    assert not wrong_height, f"wrong firstBadHeight for {len(wrong_height)}, e.g. {wrong_height[:3]}"
    report(
        2,
        "tamper evidence",
        f"{len(positions)} bit flips over a 10-block ledger ({len(data)} bytes, "
        f"{'exhaustive' if total_bits <= cap else 'sampled'}): 100% detected, heights exact",
    )


# -- 3. lifecycle conformance ----------------------------------------------------


def test_acceptance_3_lifecycle_conformance(ca):
    expected = {
        (CveStatus.DRAFT, CveStatus.PUBLISHED),
        (CveStatus.PUBLISHED, CveStatus.ARCHIVED),
        (CveStatus.DRAFT, CveStatus.REJECTED),
        (CveStatus.PUBLISHED, CveStatus.REJECTED),
        (CveStatus.PUBLISHED, CveStatus.DISPUTED),
        (CveStatus.DISPUTED, CveStatus.PUBLISHED),
        (CveStatus.DISPUTED, CveStatus.REJECTED),
    }
    observed = {
        (a, b)
        for a, b in itertools.product(CveStatus, CveStatus)
        if status_transition_valid(a, b)
    }
    assert observed == expected and len(observed) == 7

    now = 50_000
    state = make_state(ca)
    submit_cve(state, make_record("CVE-2025-0001", embargo_until=now + 1), CNA, ChainClock(now), salt="aa")
    submit_cve(state, make_record("CVE-2025-0002"), CNA, ChainClock(now))
    submit_cve(state, make_record("CVE-2025-0003", embargo_until=now), CNA, ChainClock(now))
    from cveledger.records import parse_cve_id

    assert state.cve_registry[parse_cve_id("CVE-2025-0001")].status is CveStatus.DRAFT
    assert state.cve_registry[parse_cve_id("CVE-2025-0002")].status is CveStatus.PUBLISHED
    assert state.cve_registry[parse_cve_id("CVE-2025-0003")].status is CveStatus.PUBLISHED
    report(3, "lifecycle conformance", "5x5 matrix exact (7 legal), embargo ternary exact")


# -- 4. embargo non-leakage -------------------------------------------------------


def _random_embargo_scenario(case: int) -> tuple[dict, dict[str, tuple[str, str]]]:
    """A randomized schedule plus {cveID: (secret description, secret product)}."""
    rng = random.Random(0xE0 + case)
    secrets_map: dict[str, tuple[str, str]] = {}
    actions = [
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.alpha"}},
        {"atTick": 0, "action": "onboard", "args": {"cna": "cna.beta"}},
    ]
    n_records = rng.randint(8, 12)
    for i in range(1, n_records + 1):
        # trailing sentinel keeps one record's secret from being a substring
        # of another's (e.g. ...-1 inside ...-10)
        desc = f"secret-description-{case}-{i}-end"
        product = f"secret-product-{case}-{i}-end"
        secrets_map[f"CVE-2025-{i:04d}"] = (desc, product)
        args: dict = {
            "record": {
                "cveID": f"CVE-2025-{i:04d}",
                "description": desc,
                "product": product,
                "version": [{"lo": [1, 0, 0], "hi": [1, 0, 5]}],
                "severity": {"label": "LOW", "cvssScore": 2.0},
                "submitterCNA": "cna.alpha" if i % 2 else "cna.beta",
            }
        }
        roll = rng.random()
        if roll < 0.70:
            args["embargoTicks"] = rng.randint(2, 12)
        elif roll < 0.80:
            args["embargoTicks"] = rng.randint(1, 3)  # may release at its own commit tick
        actions.append({"atTick": rng.randint(1, 3), "action": "submit", "args": args})
        if rng.random() < 0.2:
            actions.append(
                {"atTick": rng.randint(4, 6), "action": "reject",
                 "args": {"cveID": f"CVE-2025-{i:04d}", "reason": "pulled"}}
            )
    for tick in range(2, 13):
        if rng.random() < 0.8:
            actions.append({"atTick": tick, "action": "embargo-tick", "args": {}})
    script = {"seed": f"{case:02x}" * 16, "genesisTime": 1_000_000, "actions": actions}
    return script, secrets_map


def test_acceptance_4_embargo_non_leakage():
    from cveledger.records import parse_cve_id

    cases = 0
    violations = []
    boundary_cases = 0
    for case in range(60):
        script, secrets_map = _random_embargo_scenario(case)
        net, _, block_log = drive_scenario(script)
        assert all(b["consistent"] for b in block_log)
        chain = net.chain
        for height in range(len(chain)):
            state = replay(chain[: height + 1])
            clock = state.clock_now
            # every public query surface at this height
            surfaces = [json.dumps(query_public(state))]
            for record in state.cve_registry.values():
                surfaces.append(json.dumps(record_view(record, clock)))
            for product in {p for (_, p) in secrets_map.values()}:
                surfaces.append(json.dumps(query_public(state, product=product)))
            surfaces.append(json.dumps(redacted_block_dict(chain[height], state)))

            hidden_records = []
            for cve_id, (desc, product) in secrets_map.items():
                record = state.cve_registry.get(parse_cve_id(cve_id))
                if record is None:
                    continue
                if record.embargo_until is not None and record.embargo_until > clock:
                    hidden_records.append((cve_id, desc, product))
                if record.embargo_until == clock and record.status is CveStatus.PUBLISHED:
                    # boundary: embargoUntil == now must already be released
                    boundary_cases += 1
                    if desc not in json.dumps(record_view(record, clock)):
                        violations.append((case, height, cve_id, "boundary-not-released"))
            # one case per (query response, still-embargoed record)
            for surface in surfaces:
                for cve_id, desc, product in hidden_records:
                    cases += 1
                    if desc in surface or product in surface:
                        violations.append((case, height, cve_id))

    assert cases >= 10_000, f"only {cases} leak checks generated"
    assert not violations, f"{len(violations)} leaks, e.g. {violations[:3]}"
    assert boundary_cases > 0, "no schedule exercised the embargoUntil == now boundary"
    report(
        4,
        "embargo non-leakage",
        f"{cases} (response, embargoed record) checks across 60 random schedules: "
        f"zero leaks; {boundary_cases} boundary releases exact",
    )


# -- 5. correction oracles --------------------------------------------------------


def test_acceptance_5_correction_oracles():
    from cveledger.corrections import Authority

    ids = ["CVE-2025-0010", "CVE-2025-0011", "CVE-2025-0012", "CVE-2025-0013"]
    merge_grid = list(itertools.product(range(3), list(Authority), range(3)))
    merge_cases = 0
    for size in (2, 3, 4):
        for combo in itertools.combinations_with_replacement(merge_grid, size):
            candidates = [
                mc(ids[i], refs=refs, authority=auth, publicized=pub)
                for i, (refs, auth, pub) in enumerate(combo)
            ]
            assert select_canonical(candidates) == canonical_oracle(candidates)
            merge_cases += 1

    split_grid = list(itertools.product(range(3), (0.0, 1.0, 2.0), range(3)))
    split_cases = 0
    for size in (2, 3, 4):
        for combo in itertools.combinations_with_replacement(split_grid, size):
            candidates = [
                sc(f"d{i}", freq=f, score=s, breadth=b, order=i + 1)
                for i, (f, s, b) in enumerate(combo)
            ]
            assert select_prominent(candidates) == prominent_oracle(candidates)
            split_cases += 1

    # subtraction vs the point-membership oracle over an enumerated grid
    triples = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    ranges = [
        VersionRange(lo, hi)
        for lo in triples
        for hi in triples
        if lo <= hi
    ]
    grid = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    sub_cases = 0
    for a in ranges:
        for b in ranges:
            result = subtract([a], [b])
            for p in grid:
                expected = a.contains(p) and not b.contains(p)
                assert contains_point(result, p) == expected
            sub_cases += 1
    pairs = list(itertools.combinations(ranges, 2))
    for i in range(0, len(pairs), 7):
        for j in range(0, len(pairs), 13):
            a_set, b_set = list(pairs[i]), list(pairs[j])
            result = subtract(a_set, b_set)
            for p in grid:
                expected = contains_point(a_set, p) and not contains_point(b_set, p)
                assert contains_point(result, p) == expected
            sub_cases += 1

    total = merge_cases + split_cases
    assert merge_cases == split_cases == 378 + 3654 + 27405
    report(
        5,
        "correction oracles",
        f"{merge_cases} merge + {split_cases} split selector cases and "
        f"{sub_cases} subtraction sets agree 100% with brute-force oracles",
    )


# -- 6. decision flowchart ----------------------------------------------------------


def test_acceptance_6_decision_flowchart():
    for combo in itertools.product([False, True], repeat=6):
        verdict = decide_architecture(DecisionInputs(*combo))
        assert verdict is transcribed_verdict(*combo)
    assert (
        decide_architecture(DecisionInputs(True, True, False, True, False, True))
        is ArchitectureVerdict.PUBLIC_PERMISSIONED
    )
    report(6, "decision flowchart", "all 64 combinations exact; the system's own path is PUBLIC_PERMISSIONED")


# -- 7. benchmark ----------------------------------------------------------------------


def test_acceptance_7_benchmark():
    result = bench(10_000, 3)
    assert result["peersConsistent"]
    assert result["tps"] >= 200, f"throughput {result['tps']} TPS below the 200 TPS bar"
    assert result["p95LatencyMs"] < 2000, f"p95 latency {result['p95LatencyMs']}ms exceeds 2s"
    report(
        7,
        "benchmark",
        f"10000 txs / 3 peers: {result['tps']} TPS, p95 {result['p95LatencyMs']}ms "
        f"(bars: >=200 TPS, <2000ms)",
    )


# -- 8. replay determinism & crash safety -------------------------------------------


def test_acceptance_8_replay_determinism_and_crash_safety(tmp_path):
    trace_chain = drive_scenario(mixed_workload_script(120))[0].chain
    path = tmp_path / "ledger.jsonl"
    write_chain_file(path, trace_chain)

    hashes = set()
    for _ in range(5):
        chain = read_chain(path)
        hashes.add(state_hash(replay(chain)))
    assert len(hashes) == 1, "replay must be bit-identical across runs"

    # crash: a half-written trailing line must be dropped, and nothing else
    good = path.read_bytes()
    partial = block_line(trace_chain[-1])[:57]
    path.write_bytes(good + partial)
    recovered = read_chain(path, recover=True)
    assert len(recovered) == len(trace_chain)
    assert state_hash(replay(recovered)) in hashes
    assert path.read_bytes() == good, "recovery must truncate exactly the partial line"
    report(
        8,
        "replay determinism & crash safety",
        f"5 replays of a {len(trace_chain)}-block ledger bit-identical; "
        f"truncated tail dropped exactly",
    )
