"""Benchmark for cveledger: three seeded workloads (ingest, operator, query)
and a traced per-layer breakdown. Run it with `python3 perfbench/run.py`."""
