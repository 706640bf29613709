"""Unit tests for latency statistics and adapters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.platform import LatencyStats, summarize_latencies
from repro.platform.adapters import IDENTITY_ADAPTER, AdapterConfig
from repro.platform.metrics import per_target_latency
from repro.traffic import TrafficTrace

from tests.traffic.conftest import make_record


class TestSummarize:
    def test_empty_sample(self):
        stats = summarize_latencies([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_known_values(self):
        stats = summarize_latencies([4, 6, 8, 10])
        assert stats.count == 4
        assert stats.mean == pytest.approx(7.0)
        assert stats.maximum == 10
        assert stats.minimum == 4

    def test_relative_to(self):
        fast = summarize_latencies([5, 5])
        slow = summarize_latencies([10, 30])
        mean_ratio, max_ratio = slow.relative_to(fast)
        assert mean_ratio == pytest.approx(4.0)
        assert max_ratio == pytest.approx(6.0)

    def test_relative_to_empty_baseline(self):
        slow = summarize_latencies([10])
        mean_ratio, max_ratio = slow.relative_to(LatencyStats.empty())
        assert mean_ratio == float("inf")
        assert max_ratio == float("inf")

    def test_str_is_compact(self):
        assert "mean=" in str(summarize_latencies([3]))

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2_000), st.integers(-(2**40), 2**40)
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_p95_equals_numpy_percentile_exactly(self, sample):
        """The sort-based p95 is ``np.percentile``'s linear rule, float
        for float (reports print it, so it must not move a bit)."""
        p95 = summarize_latencies(sample).p95
        expected = float(np.percentile(np.asarray(sample), 95))
        assert type(p95) is float
        assert p95 == expected


class TestPerTarget:
    def test_buckets_by_target(self):
        records = [
            make_record(target=0, start=0, duration=4),
            make_record(target=0, start=20, duration=8),
            make_record(target=1, start=40, duration=4),
        ]
        trace = TrafficTrace(records, 1, 2, total_cycles=100)
        stats = per_target_latency(trace)
        assert stats[0].count == 2
        assert stats[1].count == 1

    def test_critical_only_filter(self):
        records = [
            make_record(target=0, start=0, duration=4, critical=True),
            make_record(target=0, start=20, duration=4),
        ]
        trace = TrafficTrace(records, 1, 1, total_cycles=100)
        stats = per_target_latency(trace, critical_only=True)
        assert stats[0].count == 1


class TestAdapters:
    def test_identity_is_passthrough(self):
        assert IDENTITY_ADAPTER.adjust_payload(7) == 7
        assert IDENTITY_ADAPTER.traversal_overhead() == 0

    def test_narrow_interface_stretches_payload(self):
        adapter = AdapterConfig(width_ratio=2.0)
        assert adapter.adjust_payload(4) == 8

    def test_fractional_width_rounds_up(self):
        adapter = AdapterConfig(width_ratio=1.5)
        assert adapter.adjust_payload(3) == 5

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            AdapterConfig(width_ratio=0)
        with pytest.raises(ConfigurationError):
            AdapterConfig(extra_cycles=-1)
