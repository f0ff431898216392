"""Tests of the benchmark itself.

    PYTHONPATH=src:. python -m pytest perfbench/tests -q

They run the workloads at `--seconds 1`; together they take about two
minutes on a 2-CPU host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, ingest, operator_cli, query
from perfbench.common import percentile
from perfbench.spans import NullTracer, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]

# Counts that later changes may cite; a traced run must repeat them exactly.
EXACT = (
    "identity.sign_calls",
    "identity.verify_calls",
    "identity.cert_verify_calls",
    "canonical.encode_calls",
    "canonical.encode_bytes",
    "canonical.hex_check_calls",
    "chaincode.dry_run_calls",
    "chaincode.apply_calls",
    "chaincode.guard_failures",
    "ledger.state_hash_calls",
    "ledger.query_calls",
    "ledger.query_rows_returned",
    "network.endorse_calls",
    "network.endorsements_per_tx",
    "network.txs_per_block",
    "storage.fsyncs",
    "storage.bytes_written",
    "storage.bytes_per_tx",
    "storage.read_bytes",
)

# --seconds 1: 10 ingest blocks, 4 operator rotations, 1,000 requests
SMALL = {
    "ingest": lambda tracer: ingest.run(5, 1, tracer, setup_repeats=1),
    "operator": lambda tracer: operator_cli.run(5, 1, tracer, setup_repeats=1),
    "query": lambda tracer: query.run(5, 1, tracer, setup_repeats=1),
}


def traced(workload: str):
    tracer = Tracer()
    outcome = SMALL[workload](tracer)
    assert not outcome.failures, outcome.failures
    values = layer_metrics(tracer)
    return outcome, {name: values[name] for name in EXACT}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_exactly(workload):
    first, counts = traced(workload)
    second, again = traced(workload)
    assert counts == again
    assert first.attempted == second.attempted > 0
    if workload == "ingest":
        assert first.notes["tipBlockHash"] == second.notes["tipBlockHash"]
        assert first.notes["stateHash"] == second.notes["stateHash"]
        assert counts["storage.fsyncs"] == ingest.BLOCKS_PER_SECOND
        assert counts["network.txs_per_block"] == ingest.TX_PER_BLOCK
        # caller signature plus one endorsement per transaction
        assert counts["identity.sign_calls"] == 2 * first.attempted
    if workload == "operator":
        assert counts["storage.fsyncs"] == operator_cli.MIN_CYCLES * len(operator_cli.WRITES)
        assert counts["network.txs_per_block"] == 1
    if workload == "query":
        assert counts["identity.sign_calls"] == counts["storage.fsyncs"] == 0
        assert counts["ledger.query_rows_returned"] > 0


def test_tracing_is_removed_after_the_run():
    from cveledger import identity, network

    original = network.verify_payload
    tracer = Tracer()
    with tracer.active():
        assert network.verify_payload is not original
    assert network.verify_payload is original is identity.verify_payload
    assert isinstance(NullTracer().span("x"), type(NullTracer().span("y")))


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["ms"] >= inner["ms"]
    assert outer["self_ms"] == pytest.approx(outer["ms"] - inner["ms"], abs=1e-6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER_ALL)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == harness.unit_of(metric["name"])


def test_result_line_has_every_end_to_end_metric():
    result = harness.run_benchmark("ingest", 3, 1, traced=False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_query_mix_is_exact_for_every_seed():
    from types import SimpleNamespace

    records = {
        f"CVE-2025-{i:04d}": SimpleNamespace(product=f"product-{i % 9}", submitter=f"cna{i % 5}")
        for i in range(200)
    }
    records["CVE-2025-9999"] = SimpleNamespace(product="SECRETWITHHELD-9999", submitter="cna0")
    state = SimpleNamespace(cve_registry=records, event_log=[None] * 50)
    counts = []
    for seed in (1, 2):
        plan = query.build_requests(seed, state, [None] * 10, 2000)
        assert len(plan) == 2000
        kinds = {}
        for route, path, _ in plan:
            kind = path.split("?")[1].split("=")[0] if "?" in path else route
            kinds[kind] = kinds.get(kind, 0) + 1
        kinds["secret"] = sum("SECRETWITHHELD" in path for _, path, _ in plan)
        counts.append(kinds)
    assert counts[0] == counts[1]
    assert counts[0] == {"cve_one": 1400, "product": 200, "submitter": 100, "status": 100,
                         "blocks": 100, "since": 100, "secret": 20}
