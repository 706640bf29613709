"""Equivalence tests: columnar kernels vs the interval-list reference.

The vectorized kernels in :mod:`repro.traffic.kernels` promise
byte-identical results to the legacy pure-Python path (per-target
:func:`normalize`, per-pair :func:`intersect`, per-interval binning).
These property tests drive both implementations over randomized traces --
varied platform sizes, record counts, critical mixes, overlapping and
zero-length records, uniform and variable window geometries -- and
assert exact equality for ``comm``, ``critical_comm``, ``wo`` and the
conflict matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CrossbarDesignProblem, SynthesisConfig, build_conflicts
from repro.traffic import (
    PairwiseOverlap,
    TraceAnalytics,
    TrafficTrace,
    WindowedTraffic,
    analyze_criticality,
)
from repro.traffic.overlap import legacy_overlap_tensor
from repro.traffic.windows import legacy_comm_matrix

from tests.traffic.conftest import make_record


# -- randomized traces -------------------------------------------------


@st.composite
def kernel_trace(draw):
    """A trace with overlapping, critical-mixed, possibly empty records."""
    num_targets = draw(st.integers(1, 6))
    num_initiators = draw(st.integers(1, 3))
    total_cycles = draw(st.integers(20, 400))
    records = []
    for _ in range(draw(st.integers(0, 40))):
        start = draw(st.integers(0, total_cycles - 2))
        duration = draw(
            st.integers(0, min(30, total_cycles - 1 - start))
        )  # zero-length records exercise the empty-occupancy path
        records.append(
            make_record(
                initiator=draw(st.integers(0, num_initiators - 1)),
                target=draw(st.integers(0, num_targets - 1)),
                start=start,
                duration=duration,
                critical=draw(st.booleans()),
                response=1,
            )
        )
    return TrafficTrace(
        records, num_initiators, num_targets, total_cycles=total_cycles
    )


@st.composite
def trace_with_boundaries(draw):
    """A random trace plus valid variable-window edges covering it."""
    trace = draw(kernel_trace())
    interior = draw(
        st.lists(
            st.integers(1, trace.total_cycles - 1),
            max_size=6,
            unique=True,
        )
        if trace.total_cycles > 1
        else st.just([])
    )
    overshoot = draw(st.integers(0, 25))
    edges = [0, *sorted(interior), trace.total_cycles + overshoot]
    return trace, edges


# -- comm / critical_comm ----------------------------------------------


class TestCommEquivalence:
    @settings(max_examples=60)
    @given(kernel_trace(), st.integers(1, 120))
    def test_uniform_windows(self, trace, window_size):
        windowed = WindowedTraffic(trace, window_size=window_size)
        assert np.array_equal(windowed.comm, legacy_comm_matrix(windowed))
        assert np.array_equal(
            windowed.critical_comm,
            legacy_comm_matrix(windowed, critical_only=True),
        )

    @settings(max_examples=20)
    @given(kernel_trace(), st.integers(1, 40), st.integers(1, 4))
    def test_extra_empty_windows(self, trace, window_size, extra):
        """``num_windows`` beyond the covering count adds zero columns."""
        import math

        derived = math.ceil(trace.total_cycles / min(window_size, trace.total_cycles))
        windowed = WindowedTraffic(
            trace, window_size=window_size, num_windows=derived + extra
        )
        assert windowed.comm.shape[1] == derived + extra
        assert np.array_equal(windowed.comm, legacy_comm_matrix(windowed))
        assert windowed.comm[:, derived:].sum() == 0

    @settings(max_examples=40)
    @given(trace_with_boundaries())
    def test_variable_windows(self, trace_and_edges):
        trace, edges = trace_and_edges
        windowed = WindowedTraffic(trace, boundaries=edges)
        assert np.array_equal(windowed.comm, legacy_comm_matrix(windowed))
        assert np.array_equal(
            windowed.critical_comm,
            legacy_comm_matrix(windowed, critical_only=True),
        )


# -- wo ----------------------------------------------------------------


class TestOverlapEquivalence:
    @settings(max_examples=60)
    @given(kernel_trace(), st.integers(1, 120))
    def test_uniform_windows(self, trace, window_size):
        windowed = WindowedTraffic(trace, window_size=window_size)
        for critical_only in (False, True):
            overlap = PairwiseOverlap(windowed, critical_only=critical_only)
            assert np.array_equal(
                overlap.wo,
                legacy_overlap_tensor(windowed, critical_only=critical_only),
            )

    @settings(max_examples=40)
    @given(trace_with_boundaries())
    def test_variable_windows(self, trace_and_edges):
        trace, edges = trace_and_edges
        windowed = WindowedTraffic(trace, boundaries=edges)
        for critical_only in (False, True):
            overlap = PairwiseOverlap(windowed, critical_only=critical_only)
            assert np.array_equal(
                overlap.wo,
                legacy_overlap_tensor(windowed, critical_only=critical_only),
            )


# -- conflict matrix and criticality -----------------------------------


def reference_conflicts(problem, config):
    """The original pair-loop pre-processing, kept as test ground truth."""
    num_targets = problem.num_targets
    capacities = problem.capacities
    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    reasons = {}

    def mark(i, j, rule):
        pair = (min(i, j), max(i, j))
        matrix[i, j] = matrix[j, i] = True
        reasons.setdefault(pair, set()).add(rule)

    threshold_cycles = config.overlap_threshold * capacities
    for i in range(num_targets):
        for j in range(i + 1, num_targets):
            if (problem.wo[i, j] > threshold_cycles).any():
                mark(i, j, "threshold")
            if (problem.comm[i] + problem.comm[j] > capacities).any():
                mark(i, j, "bandwidth")
    if config.use_criticality:
        for i, j in problem.criticality.conflicting_pairs:
            mark(i, j, "real-time")
    return matrix, {
        pair: frozenset(rules) for pair, rules in reasons.items()
    }


class TestConflictEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        kernel_trace(),
        st.integers(1, 80),
        st.floats(0.0, 0.5),
        st.booleans(),
    )
    def test_matrix_and_reasons(self, trace, window_size, threshold, crit):
        problem = CrossbarDesignProblem.from_trace(trace, window_size)
        config = SynthesisConfig(
            overlap_threshold=threshold, use_criticality=crit
        )
        analysis = build_conflicts(problem, config)
        matrix, reasons = reference_conflicts(problem, config)
        assert np.array_equal(analysis.matrix, matrix)
        assert analysis.reasons == reasons

    @settings(max_examples=40)
    @given(kernel_trace(), st.integers(1, 80))
    def test_criticality_pairs(self, trace, window_size):
        windowed = WindowedTraffic(trace, window_size=window_size)
        report = analyze_criticality(windowed)
        critical = trace.critical_targets()
        expected = []
        overlap = legacy_overlap_tensor(windowed, critical_only=True)
        if len(critical) >= 2:
            for a, i in enumerate(critical):
                for j in critical[a + 1:]:
                    if overlap[i, j].max(initial=0) > 0:
                        expected.append((i, j))
        assert list(report.conflicting_pairs) == expected
        assert list(report.critical_targets) == critical


# -- analytics memo behaviour ------------------------------------------


class TestAnalyticsMemo:
    def _trace(self):
        records = [
            make_record(initiator=0, target=0, start=0, duration=10),
            make_record(initiator=0, target=0, start=5, duration=12),
            make_record(initiator=1, target=1, start=8, duration=6, critical=True),
            make_record(initiator=1, target=2, start=2, duration=3),
        ]
        return TrafficTrace(records, 2, 3, total_cycles=40)

    def test_memo_rides_on_the_trace(self):
        trace = self._trace()
        assert TraceAnalytics.of(trace) is TraceAnalytics.of(trace)

    def test_results_shared_across_window_sizes(self):
        trace = self._trace()
        analytics = TraceAnalytics.of(trace)
        for window_size in (4, 7, 40):
            windowed = WindowedTraffic(trace, window_size=window_size)
            assert np.array_equal(
                windowed.comm, legacy_comm_matrix(windowed)
            )
        # one compiled form serves all geometries
        assert TraceAnalytics.of(trace) is analytics

    def test_memoized_arrays_resist_corruption(self):
        trace = self._trace()
        edges = np.arange(0, 48, 8)
        analytics = TraceAnalytics.of(trace)
        first = analytics.comm(edges)
        # results are shared across consumers of a geometry, so they are
        # handed out write-protected: a would-be writer fails loudly
        with pytest.raises(ValueError):
            first += 1_000
        assert analytics.comm(edges) is first  # memo hit, no copy
        tensor = analytics.wo(edges)
        with pytest.raises(ValueError):
            tensor[0, 1, 0] = 7
        assert np.array_equal(analytics.wo(edges), tensor)

    def test_intervals_match_target_activity(self):
        trace = self._trace()
        analytics = TraceAnalytics.of(trace)
        for target in range(trace.num_targets):
            for critical_only in (False, True):
                assert analytics.intervals(
                    target, critical_only
                ) == trace.target_activity(target, critical_only)

    def test_mirrored_trace_is_memoized(self):
        trace = self._trace()
        assert trace.mirrored() is trace.mirrored()

    def test_empty_trace(self):
        trace = TrafficTrace([], 2, 3, total_cycles=25)
        windowed = WindowedTraffic(trace, window_size=10)
        assert windowed.comm.sum() == 0
        assert PairwiseOverlap(windowed).wo.sum() == 0
        assert TraceAnalytics.of(trace).critical_targets() == []

    def test_bad_edges_rejected(self):
        from repro.errors import TraceError

        analytics = TraceAnalytics.of(self._trace())
        with pytest.raises(TraceError):
            analytics.comm([5, 10])  # must start at 0
        with pytest.raises(TraceError):
            analytics.comm([0, 10, 10])  # not strictly increasing
        with pytest.raises(TraceError):
            analytics.wo([0])  # need at least two edges


MASKED_ARRAY_PROBE = """
import sys
import numpy as np
from repro.traffic import TraceAnalytics, TrafficTrace
from tests.traffic.conftest import make_record

trace = TrafficTrace(
    [
        make_record(initiator=0, target=0, start=0, duration=10),
        make_record(initiator=1, target=1, start=4, duration=6, critical=True),
        make_record(initiator=1, target=2, start=2, duration=3),
    ],
    2, 3, total_cycles=40,
)
analytics = TraceAnalytics.of(trace)
tensor = analytics.wo(np.arange(0, 48, 8))
print(tensor.sum(), analytics.critical_targets(), "numpy.ma" in sys.modules)
"""


def test_kernels_leave_numpy_ma_unimported():
    """``np.unique`` imports ``numpy.ma`` (~12 ms) on first call; the
    overlap tensor and the critical-target scan avoid it, so a cold
    design or suite run never pays that import. Runs in a fresh
    interpreter: this process imported ``numpy.ma`` long ago."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", MASKED_ARRAY_PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert completed.stdout.split() == ["20", "[1]", "False"]
