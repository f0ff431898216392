from __future__ import annotations

import pytest

from cveledger.bench import bench

TIMING_FIELDS = {"tps", "p50LatencyMs", "p95LatencyMs", "maxLatencyMs", "wallSeconds"}


class TestBench:
    def test_zero_txs_reports_zero_tps(self):
        result = bench(0, 2)
        assert result["tps"] == 0.0
        assert result["txs"] == 0
        assert result["peersConsistent"]

    def test_committed_content_deterministic_timing_fields_free(self):
        first = bench(300, 2)
        second = bench(300, 2)
        strip = lambda r: {k: v for k, v in r.items() if k not in TIMING_FIELDS}
        assert strip(first) == strip(second)
        assert first["finalStateHash"] == second["finalStateHash"]
        assert first["tipBlockHash"] == second["tipBlockHash"]

    def test_report_shape(self):
        result = bench(150, 3)
        assert result["txs"] == 150
        assert result["peers"] == 3
        assert result["blocks"] >= 2
        assert result["p95LatencyMs"] >= result["p50LatencyMs"] >= 0

    def test_a_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="-3"):
            bench(-3, 1)
