"""Benchmark harness: wall-clock throughput and submit-to-commit latency
for valid submissions over the full endorse -> order -> commit pipeline.

Keys come from the fixed `SEED`, so committed content (hashes) is the same
on every run of a given size; only the timing fields vary run to run.
"""

from __future__ import annotations

import time

from .canonical import NON_NEGATIVE, bounded
from .identity import ROLE_CNA
from .ledger import state_hash
from .network import OrdererConfig, SimulatedNetwork

SEED = b"cveledger-bench"
MAX_BLOCK_TXS = 100


def _bench_record(seq: int, submitter: str) -> dict:
    year = 2025 + (seq - 1) // 100_000
    return {
        "cveID": f"CVE-{year}-{((seq - 1) % 100_000) + 1:04d}",
        "description": f"benchmark record {seq}",
        "product": "bench-product",
        "version": [{"lo": [1, 0, 0], "hi": [1, 9, 0]}],
        "severity": {"label": "MEDIUM", "cvssScore": 5.0},
        "submitterCNA": submitter,
    }


def bench(tx_count: int, peer_count: int = 3) -> dict:
    """Drive tx_count submissions across a peer_count network and report
    throughput plus p50/p95 latency in milliseconds."""
    bounded(tx_count, NON_NEGATIVE, lambda n: ValueError(f"cannot benchmark {n} transactions"))
    net = SimulatedNetwork(
        n_peers=peer_count,
        seed=SEED,
        genesis_time=0,
        orderer=OrdererConfig(max_block_txs=MAX_BLOCK_TXS, tick_seconds=1),
    )
    cnas = [f"cna.bench{i}" for i in range(peer_count)]
    for cna in cnas:
        result = net.onboard(cna, net.issue_identity(cna, ROLE_CNA), net.governance_id)
        if not result.accepted:
            raise RuntimeError(f"benchmark onboarding of {cna} refused: {result.refusals}")
    net.tick()

    latencies: list[float] = []
    submitted_at: dict[str, float] = {}
    started = time.perf_counter()
    committed = 0
    seq = 1
    while committed < tx_count:
        batch = min(MAX_BLOCK_TXS, tx_count - committed)
        for _ in range(batch):
            record = _bench_record(seq, cnas[(seq - 1) % len(cnas)])
            t0 = time.perf_counter()
            result = net.submit(record)
            if not result.accepted:
                raise RuntimeError(f"benchmark submission {seq} refused: {result.refusals}")
            submitted_at[result.tx.tx_id] = t0
            seq += 1
        blocks = net.tick()
        done = time.perf_counter()
        for block in blocks:
            for tx in block.txs:
                latencies.append(done - submitted_at.pop(tx.tx_id))
        committed += batch
    wall = time.perf_counter() - started

    latencies.sort()

    def pct_ms(p: float) -> float:
        if not latencies:
            return 0.0
        return round(latencies[min(len(latencies) - 1, int(p * len(latencies)))] * 1000, 3)

    return {
        "txs": tx_count,
        "peers": peer_count,
        "blocks": len(net.chain) - 1,
        "tps": round(tx_count / wall, 2) if wall > 0 and tx_count else 0.0,
        "p50LatencyMs": pct_ms(0.50),
        "p95LatencyMs": pct_ms(0.95),
        "maxLatencyMs": pct_ms(1.0),
        "wallSeconds": round(wall, 3),
        "tipBlockHash": net.chain[-1].block_hash,
        "finalStateHash": state_hash(net.peers[0].state),
        "peersConsistent": net.consistent(),
    }
