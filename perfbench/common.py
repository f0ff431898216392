"""Helpers shared by the workloads: seeded inputs, statistics, memory, and
the scratch directory every run works in."""

from __future__ import annotations

import math
import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from cveledger.records import band_for_score

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

GENESIS_TIME = 1_700_000_000
YEAR = 2025
# Still-embargoed content carries this marker, and nothing else does, so a
# response that contains it leaked withheld content.
SECRET_MARKER = "SECRETWITHHELD"

_WORDS = (
    "buffer overflow in the parser allows remote attackers to execute code via crafted "
    "input use after free in the session handler lets local users escalate privileges "
    "improper validation of certificate chains permits spoofing of trusted peers "
    "integer underflow when decoding length prefixed frames causes denial of service"
).split()


def rng_for(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}/{label}")


def cve_id(seq: int) -> str:
    return f"CVE-{YEAR}-{seq:04d}"


def make_record(rng: random.Random, seq: int, submitter: str, n_products: int, *, secret: bool = False) -> dict:
    """One SubmitCVE record. `secret` content is marked so that leaks of
    still-embargoed plaintext can be found by a substring search."""
    score = round(rng.uniform(0.1, 10.0), 1)
    words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(12, 30)))
    product = f"product-{rng.randrange(n_products):03d}"
    if secret:
        words = f"{SECRET_MARKER} {words}"
        product = f"{SECRET_MARKER}-{seq}"
    return {
        "cveID": cve_id(seq),
        "description": words,
        "product": product,
        "version": [{"lo": [1, 0, 0], "hi": [1, rng.randrange(10), rng.randrange(10)]}],
        "severity": {"label": band_for_score(score).value, "cvssScore": score},
        "submitterCNA": submitter,
    }


def salt_for(seed: int, seq: int) -> str:
    return f"{rng_for(seed, f'salt/{seq}').getrandbits(128):032x}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank tail percentile. It is used only when at least ten
    samples lie beyond it; a rarer percentile would rest on too few."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q * 100:g} needs 10 samples beyond it; have {len(ordered)} samples")
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class HostSpeed:
    """How fast this host runs while a run lasts.

    The benchmark is meant for shared 2-CPU hosts whose speed drifts by up
    to 2x over tens of seconds, because other tenants load the same cores.
    A fixed pure-Python loop is timed between samples of the workload;
    `scale()` is the loop's duration on a quiet host divided by its median
    duration in the run. Times multiplied by it (and rates divided by it)
    read as they would on the quiet host, so runs taken in slow and fast
    stretches agree. Of the loops tried, a plain integer loop tracked the
    CLI commands best: their time grew as the loop's to the power 0.76.
    """

    REFERENCE_S = 0.0006

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the loop three times and keep the fastest, which drops the
        cold-cache first pass after a burst of workload."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            total = 0
            for i in range(10_000):
                total += i * i
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    def scale(self) -> float:
        return self.REFERENCE_S / median(self.samples)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    alias: str = ""


@dataclass
class Outcome:
    """What one workload run reports: end-to-end metrics, the operation
    counts for the result line, and every failed operation or check."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    # per-layer metrics measured by the workload itself (client-side timings)
    layer: dict[str, float] = field(default_factory=dict)

    def set_scaled_metrics(self, raw: dict[str, Metric], setup_speed: HostSpeed, speed: HostSpeed) -> None:
        """Report `raw` scaled to the quiet host: set-up time by the speed
        sampled during set-up, other times and rates by the speed sampled
        during the timed part. Raw values go to the notes."""
        setup_scale, scale = setup_speed.scale(), speed.scale()
        self.notes["host_scale_setup"] = setup_scale
        self.notes["host_scale"] = scale
        for name, m in raw.items():
            self.notes[f"raw {name}"] = m.value
            if name == "setup_s":
                value = m.value * setup_scale
            elif m.unit in ("s", "ms"):
                value = m.value * scale
            elif m.unit == "1/s":
                value = m.value / scale
            else:
                value = m.value
            self.metrics[name] = Metric(value, m.unit, m.samples, m.alias)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


def timed_setups(count: int, build, speed: HostSpeed | None = None):
    """Run `build()` `count` times and return (median seconds, last result).
    Set-up is repeated so that its median is steady; `speed`, if given, is
    sampled before and after each set-up."""
    durations = []
    result = None
    for _ in range(count):
        if result is not None and hasattr(result, "close"):
            result.close()
        result = None
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - t0)
    if speed is not None:
        speed.sample()
    return median(durations), result
