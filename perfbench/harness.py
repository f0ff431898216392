"""Runs one workload, prints the human-readable report and builds the
result line."""

from __future__ import annotations

from . import ingest, operator_cli, query
from .common import SCRATCH
from .spans import PER_LAYER, NullTracer, Tracer, layer_metrics, wrapper_cost_ns

WORKLOADS = {"ingest": ingest, "operator": operator_cli, "query": query}

END_TO_END = (
    "setup_s",
    "peak_rss_mb",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_slow_ms",
    "latency_light_ms",
)

TRACE_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_pct", "trace.estimated_overhead_pct")

PER_LAYER_ALL = (
    PER_LAYER
    + tuple(f"httpapi.request_p50_ms.{route}" for route in query.ROUTES)
    + ("httpapi.response_bytes", "httpapi.redact_ms")
    + tuple(f"cli.command_ms.{kind}" for kind in operator_cli.ROTATION)
    + TRACE_METRICS
)


def unit_of(name: str) -> str:
    if name.endswith("_calls") or name in ("storage.fsyncs", "chaincode.guard_failures", "ledger.query_rows_returned"):
        return "count"
    if name.endswith("_bytes") or name == "storage.bytes_written":
        return "B"
    if name == "storage.bytes_per_tx":
        return "B/tx"
    if name == "network.endorsements_per_tx":
        return "1/tx"
    if name == "network.txs_per_block":
        return "tx/block"
    if name == "network.cert_cache_hit_ratio":
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    return "ms"


def _print_end_to_end(workload: str, outcome) -> None:
    print(f"# workload {workload}: end-to-end (untraced)")
    for name in END_TO_END:
        m = outcome.metrics[name]
        alias = f"  [{m.alias}]" if m.alias else ""
        print(f"{name:<18} {m.value:>14.4f} {m.unit:<4} n={m.samples}{alias}")
    print(f"failed_ratio       {len(outcome.failures) / max(1, outcome.attempted):>14.4f} ratio "
          f"n={outcome.attempted}")
    for key, value in sorted(outcome.notes.items()):
        print(f"# {key}: {value}")
    for failure in outcome.failures[:20]:
        print(f"# FAILED: {failure}")


def _print_spans(tracer: Tracer) -> None:
    print("# spans: calls, inclusive ms, self ms (sorted by self ms)")
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_ms"])
    for name, entry in rows:
        print(f"{name:<28} {entry['calls']:>9} {entry['ms']:>12.1f} {entry['self_ms']:>12.1f}")


def run_benchmark(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    module = WORKLOADS[workload]
    if not traced:
        outcome = module.run(seed, seconds, NullTracer())
        _print_end_to_end(workload, outcome)
        metrics = {name: {"value": outcome.metrics[name].value, "unit": outcome.metrics[name].unit} for name in END_TO_END}
    else:
        untraced = module.run(seed, seconds, NullTracer(), setup_repeats=1)
        tracer = Tracer()
        outcome = module.run(seed, seconds, tracer, setup_repeats=1)
        outcome.failures.extend(f"untraced: {f}" for f in untraced.failures)
        values = dict.fromkeys(PER_LAYER_ALL, 0.0)
        values.update(layer_metrics(tracer))
        values.update(outcome.layer)
        base, wall = untraced.notes["wall_s"], outcome.notes["wall_s"]
        values["trace.untraced_wall_s"] = base
        values["trace.traced_wall_s"] = wall
        # compared at the quiet-host speed where the workload measures it
        scaled_base = base * untraced.notes.get("host_scale", 1.0)
        scaled_wall = wall * outcome.notes.get("host_scale", 1.0)
        values["trace.overhead_pct"] = (scaled_wall - scaled_base) / scaled_base * 100
        # One traced and one untraced run differ by host drift as much as by
        # tracing; the wrappers' own cost times the calls they wrapped is
        # the steadier figure.
        span_ns, leaf_ns = wrapper_cost_ns()
        spans, leaves = tracer.recorded_calls()
        values["trace.estimated_overhead_pct"] = (spans * span_ns + leaves * leaf_ns) / 1e9 / base * 100
        _print_spans(tracer)
        for key, value in sorted(outcome.notes.items()):
            print(f"# {key}: {value}")
        for failure in outcome.failures[:20]:
            print(f"# FAILED: {failure}")
        SCRATCH.mkdir(exist_ok=True)
        trace_path = SCRATCH / f"trace-{workload}.tsv.gz"
        tracer.write(trace_path)
        print(f"# spans written to {trace_path.relative_to(SCRATCH.parent)}")
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER_ALL}
        for name in PER_LAYER_ALL:
            print(f"{name:<36} {values[name]:>16.4f} {unit_of(name)}")
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
