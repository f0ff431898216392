"""`operator`: an operator running CLI commands against a ledger of real height.

Set-up grows a data dir (`Node.init(seed=...)`) to 2,000 one-transaction
blocks, the shape `cveledger submit` produces: submissions (about 1 in 7
embargoed), embargo sweeps, status changes and corrections. The timed
part copies that data dir and calls `cli.main(argv)` in-process, stdout
captured, in a fixed rotation of mutations (`submit` with and without
`--embargo`, `status`, `dispute`, `reject`, `tick`), reads (`query --id`,
`query --product`, `replay`) and `audit`. Every command reopens the
ledger, so parsing and replay dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

from cveledger import cli, ledger, storage
from cveledger.canonical import to_canonical_json
from cveledger.chaincode import OP_CHECK_EMBARGO, OP_ONBOARD, OP_SUBMIT, OP_UPDATE_STATUS
from cveledger.corrections import OP_DISPUTE, OP_REJECT
from cveledger.identity import ROLE_CNA
from cveledger.node import LEDGER_FILE, Node

from .common import (
    GENESIS_TIME,
    HostSpeed,
    Metric,
    Outcome,
    cve_id,
    make_record,
    median,
    peak_rss_mb,
    rng_for,
    salt_for,
    scratch_dir,
    timed_setups,
)

N_CNAS = 5
N_PRODUCTS = 40
HEIGHT = 2000
SETUP_REPEATS = 3
# One rotation: six mutations, three reads and an audit, about 4.5 s on a
# 2-CPU box. It is repeated CYCLES_PER_SECOND * --seconds times, but at
# least MIN_CYCLES times so that the medians rest on enough commands.
ROTATION = (
    "submit", "query_id", "status", "submit_embargo", "dispute",
    "query_product", "reject", "tick", "replay", "audit",
)
WRITES = {"submit", "submit_embargo", "status", "dispute", "reject", "tick"}
READS = {"query_id", "query_product", "replay"}
CYCLES_PER_SECOND = 0.25
MIN_CYCLES = 4


def cna_names() -> list[str]:
    return [f"cna.ops{i}" for i in range(N_CNAS)]


class _Growth:
    """Grows the set-up ledger in memory, one transaction per block, and
    keeps what the timed rotation needs to know about it."""

    def __init__(self, seed: int, data_dir: Path):
        self.rng = rng_for(seed, "operator-growth")
        self.seed = seed
        node = Node.init(data_dir, genesis_time=GENESIS_TIME, seed=f"perfbench-op-{seed}".encode())
        try:
            self.net = node.net
            self.gov = node.config.governance_id
            for cna in cna_names():
                cert = node.issue(cna, ROLE_CNA)
                self._commit(
                    OP_ONBOARD,
                    {"cnaID": cna, "certHash": cert.cert_hash(), "certificate": cert.to_dict()},
                    self.gov,
                )
            self.published: list[str] = []
            self.seq = 0
            while len(self.net.chain) < HEIGHT:
                self._grow_one()
        finally:
            node.close()
        storage.write_chain_file(data_dir / LEDGER_FILE, self.net.chain)

    def _commit(self, op: str, args: dict, caller: str) -> None:
        result = self.net.invoke(op, args, caller)
        if not result.accepted:
            raise RuntimeError(f"set-up {op} refused: {result.refusals}")
        self.net.tick(self.net.clock)

    def _grow_one(self) -> None:
        roll = self.rng.random()
        if roll < 0.08:
            self.net.advance_clock(self.net.clock + 1)
            self._commit(OP_CHECK_EMBARGO, {}, self.gov)
        elif roll < 0.18 and self.published:
            target = self.published.pop(self.rng.randrange(len(self.published)))
            if roll < 0.12:
                self._commit(OP_UPDATE_STATUS, {"cveID": target, "newStatus": "ARCHIVED"}, self.gov)
            elif roll < 0.15:
                self._commit(OP_DISPUTE, {"cveID": target, "note": "contested by vendor"}, self.gov)
            else:
                self._commit(OP_REJECT, {"cveID": target, "reason": "duplicate report"}, self.gov)
        else:
            self.seq += 1
            cna = cna_names()[self.seq % N_CNAS]
            record = make_record(self.rng, self.seq, cna, N_PRODUCTS)
            args: dict = {"record": record}
            if self.rng.randrange(7) == 0:
                record["embargoUntil"] = self.net.clock + self.rng.randint(2, 30)
                args["salt"] = salt_for(self.seed, self.seq)
            else:
                self.published.append(cve_id(self.seq))
            self._commit(OP_SUBMIT, args, cna)


def build_commands(seed: int, growth: _Growth, cycles: int, files_dir: Path, data_dir: Path) -> list[tuple[str, list[str]]]:
    """The timed rotation as (kind, argv). Targets of status changes and
    corrections are distinct records published during set-up, so every
    command succeeds."""
    rng = rng_for(seed, "operator-commands")
    targets = list(growth.published)
    rng.shuffle(targets)
    clock = growth.net.clock
    seq = growth.seq
    base = ["--data-dir", str(data_dir)]
    commands = []
    for cycle in range(cycles):
        for kind in ROTATION:
            if kind in ("submit", "submit_embargo"):
                seq += 1
                path = files_dir / f"record-{seq}.json"
                record = make_record(rng, seq, cna_names()[seq % N_CNAS], N_PRODUCTS)
                path.write_text(to_canonical_json(record), encoding="utf-8")
                argv = ["submit", str(path)]
                if kind == "submit_embargo":
                    argv += ["--embargo", str(clock + cycle + 2)]
            elif kind == "query_id":
                argv = ["query", "--id", cve_id(rng.randint(1, growth.seq))]
            elif kind == "query_product":
                argv = ["query", "--product", f"product-{rng.randrange(N_PRODUCTS):03d}"]
            elif kind == "status":
                argv = ["status", targets.pop(), "ARCHIVED"]
            elif kind == "dispute":
                argv = ["dispute", targets.pop(), "--reason", "exploit does not reproduce"]
            elif kind == "reject":
                argv = ["reject", targets.pop(), "--reason", "assigned in error"]
            else:
                argv = [kind]
            commands.append((kind, base + argv))
    return commands


class _Setup:
    def __init__(self, seed: int, work: Path):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        self.grown = work / "grown"
        self.growth = _Growth(seed, self.grown)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def drive(commands, tracer, outcome: Outcome, speed: HostSpeed):
    """Runs each command once, in order, sampling the host speed before
    each; returns per-kind durations (s), the parsed output of the last
    replay and the wall time."""
    durations: dict[str, list[float]] = {kind: [] for kind in ROTATION}
    last_replay = None
    started = time.perf_counter()
    for index, (kind, argv) in enumerate(commands):
        speed.sample()
        tracer.begin_op(f"command {index} {kind}")
        outcome.attempted += 1
        t0 = time.perf_counter()
        with tracer.span(f"cli.{kind}"):
            code, out, err = run_cli(argv)
        durations[kind].append(time.perf_counter() - t0)
        if code != 0:
            outcome.fail(f"{kind} {argv[2:]} exited {code}: {err.strip()}")
            continue
        try:
            parsed = json.loads(out)
        except ValueError:
            outcome.fail(f"{kind} printed non-JSON output: {out[:200]!r}")
            continue
        if kind == "replay":
            last_replay = parsed
        elif kind == "audit":
            outcome.check(parsed.get("valid") is True, f"audit reported {parsed}")
    return durations, last_replay, time.perf_counter() - started


def run(seed: int, seconds: int, tracer, *, setup_repeats: int = SETUP_REPEATS) -> Outcome:
    outcome = Outcome()
    cycles = max(MIN_CYCLES, round(CYCLES_PER_SECOND * seconds))
    with scratch_dir() as tmp:
        setup_speed = HostSpeed()
        setup_s, setup = timed_setups(setup_repeats, lambda: _Setup(seed, tmp / "setup"), setup_speed)
        data_dir = tmp / "data"
        shutil.copytree(setup.grown, data_dir)
        files = tmp / "files"
        files.mkdir()
        commands = build_commands(seed, setup.growth, cycles, files, data_dir)
        speed = HostSpeed()
        with tracer.active():
            durations, last_replay, wall = drive(commands, tracer, outcome, speed)
        rss = peak_rss_mb()

        chain = storage.read_chain(data_dir / LEDGER_FILE)
        fresh = ledger.state_hash(ledger.replay(chain))
        outcome.check(
            last_replay is not None and last_replay.get("stateHash") == fresh,
            f"final replay {last_replay} differs from a fresh replay {fresh}",
        )
        outcome.check(len(chain) == HEIGHT + cycles * len(WRITES), f"ledger height {len(chain) - 1} after the run")
        outcome.notes["height_after"] = len(chain) - 1
        outcome.notes["wall_s"] = wall

    writes = [d * 1000 for kind in WRITES for d in durations[kind]]
    reads = [d * 1000 for kind in READS for d in durations[kind]]
    audits = durations["audit"]
    n = len(commands)
    busy = sum(sum(values) for values in durations.values())
    outcome.set_scaled_metrics(
        {
            "setup_s": Metric(setup_s, "s", setup_repeats),
            "peak_rss_mb": Metric(rss, "MB", 1),
            "throughput_per_s": Metric(n / busy, "1/s", n, "cli_commands_per_s"),
            "latency_p50_ms": Metric(median(writes), "ms", len(writes), "cli_write_p50_ms"),
            "latency_slow_ms": Metric(median(audits) * 1000, "ms", len(audits), "audit_ms"),
            "latency_light_ms": Metric(median(reads), "ms", len(reads), "cli_read_p50_ms"),
        },
        setup_speed,
        speed,
    )
    for kind in ROTATION:
        outcome.layer[f"cli.command_ms.{kind}"] = median(durations[kind]) * 1000
    return outcome
