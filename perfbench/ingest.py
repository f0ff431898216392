"""`ingest`: CNAs bulk-submitting through the durable write path.

One client runs a closed loop against a seeded 3-peer SimulatedNetwork with
5 onboarded CNAs. Each block holds 100 transactions: an embargo sweep, now
and then a status change or correction, and submissions round-robin across
the CNAs, about 1 in 7 embargoed until a later block of the same run. The
orderer cuts the block and `storage.append_block_file` fsyncs it before its
transactions count as committed.
"""

from __future__ import annotations

import time
from pathlib import Path

from cveledger import ledger, storage
from cveledger.chaincode import OP_CHECK_EMBARGO, OP_ONBOARD, OP_SUBMIT, OP_UPDATE_STATUS
from cveledger.corrections import OP_DISPUTE, OP_REJECT
from cveledger.identity import ROLE_CNA
from cveledger.network import OrdererConfig, SimulatedNetwork

from .common import (
    GENESIS_TIME,
    HostSpeed,
    Metric,
    Outcome,
    cve_id,
    make_record,
    median,
    peak_rss_mb,
    percentile,
    rng_for,
    salt_for,
    scratch_dir,
    timed_setups,
)

TX_PER_BLOCK = 100
N_CNAS = 5
N_PRODUCTS = 100
# 10 blocks (1,000 transactions) per second of --seconds: on a 2-CPU box
# the timed part then lasts about --seconds and the registry reaches the
# order of 10k records at --seconds 10.
BLOCKS_PER_SECOND = 10
SETUP_REPEATS = 5
# a correction every CORRECTION_EVERY blocks, cycling through these ops
CORRECTIONS = ("archive", "dispute", "reject")
CORRECTION_EVERY = 4


def cna_names(count: int = N_CNAS) -> list[str]:
    return [f"cna.bench{i}" for i in range(count)]


def new_network(seed: int, n_peers: int) -> SimulatedNetwork:
    """A seeded network with the CNAs onboarded and the onboarding block cut."""
    net = SimulatedNetwork(
        n_peers=n_peers,
        seed=f"perfbench-{seed}".encode(),
        genesis_time=GENESIS_TIME,
        orderer=OrdererConfig(max_block_txs=TX_PER_BLOCK, tick_seconds=1),
    )
    for cna in cna_names():
        cert = net.issue_identity(cna, ROLE_CNA)
        result = net.invoke(
            OP_ONBOARD,
            {"cnaID": cna, "certHash": cert.cert_hash(), "certificate": cert.to_dict()},
            net.governance_id,
        )
        if not result.accepted:
            raise RuntimeError(f"onboarding {cna} refused: {result.refusals}")
    net.tick()
    return net


def build_blocks(
    seed: int,
    n_blocks: int,
    gov: str,
    start_clock: int,
    *,
    embargo_every: int = 7,
    secret_every: int = 0,
) -> list[list[tuple[str, dict, str]]]:
    """The seeded submission script, block by block: (op, args, caller).

    Block i is submitted at chain clock start_clock + i. Embargoes expire a
    few blocks later, so the sweeps release them during the run. With
    `secret_every` set, that share of submissions is instead embargoed far
    past the run and its content is marked secret (the `query` registry).
    Corrections only target records published in an earlier block and
    never touched before, so no transaction of the script is refused.
    """
    rng = rng_for(seed, "ingest-script")
    cnas = cna_names()
    published: list[str] = []
    seq = 0
    blocks = []
    for i in range(n_blocks):
        clock = start_clock + i
        txs: list[tuple[str, dict, str]] = [(OP_CHECK_EMBARGO, {}, gov)]
        if i % CORRECTION_EVERY == CORRECTION_EVERY - 1 and published:
            target = published.pop(rng.randrange(len(published)))
            kind = CORRECTIONS[(i // CORRECTION_EVERY) % len(CORRECTIONS)]
            if kind == "archive":
                txs.append((OP_UPDATE_STATUS, {"cveID": target, "newStatus": "ARCHIVED"}, gov))
            elif kind == "dispute":
                txs.append((OP_DISPUTE, {"cveID": target, "note": "contested by vendor"}, gov))
            else:
                txs.append((OP_REJECT, {"cveID": target, "reason": "not a vulnerability"}, gov))
        fresh = []
        while len(txs) < TX_PER_BLOCK:
            seq += 1
            submitter = cnas[(seq - 1) % len(cnas)]
            secret = bool(secret_every) and rng.randrange(secret_every) == 0
            record = make_record(rng, seq, submitter, N_PRODUCTS, secret=secret)
            args: dict = {"record": record}
            if secret:
                record["embargoUntil"] = clock + 10_000_000
            elif embargo_every and rng.randrange(embargo_every) == 0:
                record["embargoUntil"] = clock + rng.randint(3, 40)
            else:
                fresh.append(cve_id(seq))
            if "embargoUntil" in record:
                args["salt"] = salt_for(seed, seq)
            txs.append((OP_SUBMIT, args, submitter))
        blocks.append(txs)
        published.extend(fresh)
    return blocks


class _Setup:
    def __init__(self, seed: int, n_blocks: int, ledger_path: Path):
        self.net = new_network(seed, n_peers=3)
        self.blocks = build_blocks(seed, n_blocks, self.net.governance_id, self.net.clock)
        storage.write_chain_file(ledger_path, self.net.chain)


def drive(net: SimulatedNetwork, blocks, ledger_path: Path, tracer, outcome: Outcome, speed: HostSpeed):
    """Closed loop: submit a block's transactions one after another, cut
    the block, fsync it. The host speed is sampled before each block.
    Returns per-transaction commit latencies, submit call latencies, order
    waits and block cycle times (s), and the wall time of the loop."""
    latencies: list[float] = []
    submits: list[float] = []
    waits: list[float] = []
    cycles: list[float] = []
    started = time.perf_counter()
    for index, txs in enumerate(blocks):
        speed.sample()
        block_start = time.perf_counter()
        starts = []
        submitted = []
        for n, (op, args, caller) in enumerate(txs):
            tracer.begin_op(f"tx {index}.{n}")
            outcome.attempted += 1
            t0 = time.perf_counter()
            with tracer.span("ingest.submit"):
                result = net.submit_tx(net.build_tx(op, args, caller))
            submitted.append(time.perf_counter())
            submits.append(submitted[-1] - t0)
            if not result.accepted:
                outcome.fail(f"block {index} tx {n} ({op}) refused: {result.refusals}")
                continue
            starts.append(t0)
        tracer.begin_op(f"block {index}")
        tick_start = time.perf_counter()
        with tracer.span("ingest.commit"):
            cut = net.tick()
            for block in cut:
                storage.append_block_file(ledger_path, block)
        done = time.perf_counter()
        cycles.append(done - block_start)
        committed = sum(len(b.txs) for b in cut)
        if committed != len(starts):
            outcome.fail(f"block {index}: {committed} committed of {len(starts)} accepted")
        latencies.extend(done - t0 for t0 in starts)
        waits.extend(tick_start - t for t in submitted)
    return latencies, submits, waits, cycles, time.perf_counter() - started


def check_outputs(net: SimulatedNetwork, ledger_path: Path, outcome: Outcome) -> None:
    hashes = net.state_hashes()
    outcome.check(len(set(hashes.values())) == 1, f"peers disagree on the state hash: {hashes}")
    memory_hash = next(iter(hashes.values()))
    report = storage.audit_file(ledger_path)
    outcome.check(report.valid, f"audit of the written ledger failed: {report.to_dict()}")
    chain = storage.read_chain(ledger_path)
    outcome.check(
        [b.block_hash for b in chain] == [b.block_hash for b in net.chain],
        "ledger file differs from the in-memory chain",
    )
    replayed = ledger.state_hash(ledger.replay(chain))
    outcome.check(replayed == memory_hash, "replay of the ledger file gives another state hash")
    failed = net.peers[0].state.failed_txs
    outcome.check(not failed, f"{len(failed)} committed transactions failed at apply: {failed[:3]}")
    outcome.notes["tipBlockHash"] = net.chain[-1].block_hash
    outcome.notes["stateHash"] = memory_hash
    outcome.notes["registryRecords"] = len(net.peers[0].state.cve_registry)
    outcome.notes["drafts"] = sum(
        1 for r in net.peers[0].state.cve_registry.values() if r.status.value == "DRAFT"
    )


def run(seed: int, seconds: int, tracer, *, setup_repeats: int = SETUP_REPEATS) -> Outcome:
    outcome = Outcome()
    n_blocks = BLOCKS_PER_SECOND * seconds
    with scratch_dir() as tmp:
        ledger_path = tmp / "ledger.jsonl"
        setup_speed = HostSpeed()
        setup_s, setup = timed_setups(setup_repeats, lambda: _Setup(seed, n_blocks, ledger_path), setup_speed)
        net = setup.net
        speed = HostSpeed()
        with tracer.active():
            latencies, submits, waits, cycles, wall = drive(
                net, setup.blocks, ledger_path, tracer, outcome, speed
            )
        rss = peak_rss_mb()
        check_outputs(net, ledger_path, outcome)

    outcome.layer["network.order_wait_ms"] = median(waits) * 1000
    outcome.notes["wall_s"] = wall
    if len(latencies) >= 1000:
        outcome.notes["raw commit_latency_p99_ms (rests on one or two blocks)"] = percentile(latencies, 0.99) * 1000
    ms = [x * 1000 for x in latencies]
    n = len(ms)
    outcome.set_scaled_metrics(
        {
            "setup_s": Metric(setup_s, "s", setup_repeats),
            "peak_rss_mb": Metric(rss, "MB", 1),
            "throughput_per_s": Metric(n / sum(cycles), "1/s", n, "commit_tps"),
            "latency_p50_ms": Metric(median(ms), "ms", n, "commit_latency_p50_ms"),
            # p90, not p99: the transactions of one block share its commit
            # time, so 100 blocks are the independent samples, and p90 is
            # the highest percentile with 10 of them beyond it
            "latency_slow_ms": Metric(percentile(ms, 0.90), "ms", n, "commit_latency_p90_ms"),
            "latency_light_ms": Metric(median([x * 1000 for x in submits]), "ms", n, "submit_p50_ms"),
        },
        setup_speed,
        speed,
    )
    return outcome
