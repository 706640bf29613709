"""Unit tests for the design-problem container."""

import numpy as np
import pytest

from repro.core import CrossbarDesignProblem
from repro.errors import SynthesisError
from repro.traffic import TrafficTrace, WindowedTraffic, PairwiseOverlap

from tests.traffic.conftest import make_record


class TestFromTrace:
    def test_matches_windowed_traffic(self, simple_trace_records=None):
        records = [
            make_record(target=0, start=0, duration=10),
            make_record(target=1, start=5, duration=10),
        ]
        trace = TrafficTrace(records, 1, 2, total_cycles=40)
        problem = CrossbarDesignProblem.from_trace(trace, window_size=20)
        windowed = WindowedTraffic(trace, window_size=20)
        overlap = PairwiseOverlap(windowed)
        assert np.array_equal(problem.comm, windowed.comm)
        assert np.array_equal(problem.wo, overlap.wo)
        assert problem.window_size == 20
        assert problem.num_targets == 2
        assert problem.num_windows == 2

    def test_overlap_matrix_is_window_sum(self, two_phase_problem):
        om = two_phase_problem.overlap_matrix
        assert np.array_equal(om, two_phase_problem.wo.sum(axis=2))
        assert om[0, 1] > 0
        assert om[0, 2] == 0

    def test_bandwidth_lower_bound(self, two_phase_problem):
        # same-phase pairs need 120 cycles in a 100-cycle window -> 2 buses
        assert two_phase_problem.bandwidth_lower_bound() == 2

    def test_total_busy(self, two_phase_problem):
        assert two_phase_problem.total_busy().tolist() == [120, 120, 120, 120]

    def test_restricted_to(self, two_phase_problem):
        sub = two_phase_problem.restricted_to([0, 2])
        assert sub.num_targets == 2
        assert np.array_equal(sub.comm[0], two_phase_problem.comm[0])
        assert np.array_equal(sub.wo[0, 1], two_phase_problem.wo[0, 2])

    def test_describe_mentions_bound(self, two_phase_problem):
        assert "bandwidth LB = 2" in two_phase_problem.describe()


class TestValidation:
    def test_inconsistent_shapes_rejected(self, two_phase_problem):
        with pytest.raises(SynthesisError):
            CrossbarDesignProblem(
                comm=two_phase_problem.comm,
                wo=two_phase_problem.wo[:2, :2],
                window_size=100,
                criticality=two_phase_problem.criticality,
                target_names=two_phase_problem.target_names,
            )

    def test_comm_exceeding_window_rejected(self, two_phase_problem):
        with pytest.raises(SynthesisError):
            CrossbarDesignProblem(
                comm=two_phase_problem.comm * 10,
                wo=two_phase_problem.wo,
                window_size=100,
                criticality=two_phase_problem.criticality,
                target_names=two_phase_problem.target_names,
            )

    def test_negative_comm_rejected(self, two_phase_problem):
        comm = two_phase_problem.comm.copy()
        comm[0, 0] = -1
        with pytest.raises(SynthesisError, match="non-negative"):
            CrossbarDesignProblem(
                comm=comm,
                wo=two_phase_problem.wo,
                window_size=100,
                criticality=two_phase_problem.criticality,
                target_names=two_phase_problem.target_names,
            )

    def test_name_length_mismatch_rejected(self, two_phase_problem):
        with pytest.raises(SynthesisError):
            CrossbarDesignProblem(
                comm=two_phase_problem.comm,
                wo=two_phase_problem.wo,
                window_size=100,
                criticality=two_phase_problem.criticality,
                target_names=("a",),
            )
