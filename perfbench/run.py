#!/usr/bin/env python3
"""cveledger benchmark.

    python3 perfbench/run.py --workload {ingest,operator,query} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from `src/`.
Inputs are made from --seed; --seconds sets how much work a run does
(each workload is sized to take about that long on a 2-CPU box). Every
output is checked. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of an untraced run; with --trace 1 they are the
per-layer metrics of a traced run, which also runs the workload untraced
once to report the tracing overhead. Lines before the last one are a
human-readable report with units, sample counts and, when traced, the
self time of every span.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "operator", "query")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cveledger" / "__init__.py").is_file():
        print(f"cveledger sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run_benchmark

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
