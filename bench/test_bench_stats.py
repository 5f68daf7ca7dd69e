"""Unit tests for the benchmark's statistics, decision rules and schema.

Run with ``pytest bench/``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

import compare
import stats
from spec import METRICS, PER_LAYER, RUN_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 99) == 99
        assert stats.percentile(values, 99.9) == 100
        assert stats.percentile(values, 100) == 100

    def test_is_an_observed_value(self):
        assert stats.percentile([0.3, 0.1, 0.2], 50) == 0.2
        assert stats.percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 0)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)


class TestQuartiles:
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        q1, median, q3 = stats.quartiles(values)
        expect = statistics.quantiles(values, n=4)
        assert (q1, q3) == (expect[0], expect[2])
        assert median == statistics.median(values)

    def test_single_value(self):
        assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)

    def test_rel_iqr(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, median, q3 = stats.quartiles(values)
        assert stats.rel_iqr(values) == pytest.approx((q3 - q1) / median)
        assert stats.rel_iqr([4.0, 4.0, 4.0]) == 0.0
        assert stats.rel_iqr([0.0, 0.0]) == 0.0


class TestWinRule:
    def test_worse_by_respects_direction(self):
        assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
        assert stats.worse_by(0.0, 0.0, "lower") == 0.0
        assert stats.worse_by(0.0, 0.1, "lower") == float("inf")
        with pytest.raises(ValueError):
            stats.worse_by(1.0, 1.0, "sideways")

    def test_ties_count_for_neither(self):
        assert stats.pair_wins([1, 2, 3], [1, 1, 4], "lower") == (1, 3)
        assert stats.pair_wins([1, 2, 3], [1, 1, 4], "higher") == (1, 3)

    def test_gain_needs_nine_of_ten_and_a_gap_beyond_the_iqr(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
        faster = [v - 1.0 for v in parent]
        assert stats.claim_holds(parent, faster, "lower")
        # Eight wins of ten is not enough.
        mixed = faster[:8] + [11.0, 11.0]
        assert not stats.claim_holds(parent, mixed, "lower")
        # Every pair won, but by less than the parent's own spread.
        slight = [v - 0.01 for v in parent]
        assert not stats.claim_holds(parent, slight, "lower")
        # Fewer than ten pairs never support a claim.
        assert not stats.claim_holds(parent[:9], faster[:9], "lower")

    def test_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5]
        assert stats.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "regression"
        assert stats.verdict(parent, [v * 1.02 for v in parent], "lower", 0.1) == "ok"
        noisy = [60.0, 100.0, 140.0, 100.0, 100.0]
        assert stats.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
        # Spread wider than the bound, yet every change run is better.
        assert stats.verdict(noisy, [50.0, 51.0, 52.0, 53.0, 54.0],
                             "lower", 0.1) == "ok"


class TestLateness:
    def test_valid_within_five_ms(self):
        assert stats.lateness_valid([0.0001] * 99 + [0.004])
        assert stats.lateness_valid([0.005] * 10)

    def test_invalid_beyond_five_ms(self):
        assert not stats.lateness_valid([0.0001] * 90 + [0.02] * 10)
        assert not stats.lateness_valid([])

    def test_limit_scales(self):
        late = [0.0001] * 90 + [0.012] * 10
        assert not stats.lateness_valid(late)
        assert stats.lateness_valid(late, limit_ms=15.0)


class TestCompare:
    @staticmethod
    def _result(values, start):
        return {"runs": [
            {"workload": "clear-tiny", "started": start + 2 * i,
             "record": {"metrics": {"norm_ops_per_s": v}}}
            for i, v in enumerate(values)
        ]}

    def test_regression_fails_and_alternation_is_reported(self):
        parent = self._result([1.0] * 10, 0)
        change = self._result([0.5] * 10, 1)
        lines, passed = compare.compare(parent, change, set())
        assert not passed
        assert any("regression" in line for line in lines)
        assert any("did not alternate" in line for line in lines)

    def test_claimed_gain(self):
        parent = self._result([1.0, 1.01, 0.99] * 3 + [1.0], 0)
        change = self._result([2.0] * 10, 1)
        lines, passed = compare.compare(parent, change, {("clear-tiny", "norm_ops_per_s")})
        assert passed
        assert any("gain (10/10 pairs)" in line for line in lines)


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["bench"]
    assert bench["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]] for w in bench["workloads"])
    gated = {name: m for name, m in METRICS.items() if m.gated}
    assert [m["name"] for m in bench["end_to_end"]] == list(gated)
    for entry in bench["end_to_end"]:
        metric = gated[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
