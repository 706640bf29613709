"""Tests for design-space exploration and Pareto filtering."""

import pytest

from dataclasses import replace

from repro.analysis import DesignPoint, explore_design_space, pareto_front
from repro.apps import build_application
from repro.apps.synthetic import build_synthetic
from repro.core import CrossbarSynthesizer, SynthesisConfig
from repro.errors import ConfigurationError
from repro.obs import metrics


def point(buses, mean, window=1000, threshold=0.3, maximum=50):
    return DesignPoint(
        window_size=window,
        overlap_threshold=threshold,
        bus_count=buses,
        mean_latency=mean,
        max_latency=maximum,
    )


class TestDominance:
    def test_strictly_better_dominates(self):
        assert point(4, 10.0).dominates(point(6, 12.0))

    def test_equal_points_do_not_dominate(self):
        assert not point(4, 10.0).dominates(point(4, 10.0))

    def test_tradeoff_points_incomparable(self):
        small_slow = point(4, 20.0)
        big_fast = point(8, 10.0)
        assert not small_slow.dominates(big_fast)
        assert not big_fast.dominates(small_slow)

    def test_tie_on_one_axis(self):
        assert point(4, 10.0).dominates(point(4, 12.0))
        assert point(4, 10.0).dominates(point(5, 10.0))


class TestParetoFront:
    def test_filters_dominated(self):
        points = [point(4, 20.0), point(8, 10.0), point(8, 25.0), point(9, 11.0)]
        front = pareto_front(points)
        assert point(4, 20.0) in front
        assert point(8, 10.0) in front
        assert point(8, 25.0) not in front
        assert point(9, 11.0) not in front

    def test_sorted_by_bus_count(self):
        front = pareto_front([point(8, 10.0), point(4, 20.0)])
        assert [p.bus_count for p in front] == [4, 8]

    def test_duplicates_collapse(self):
        front = pareto_front(
            [point(4, 10.0, window=500), point(4, 10.0, window=1000)]
        )
        assert len(front) == 1

    def test_empty_input(self):
        assert pareto_front([]) == []


class TestExploreDesignSpace:
    @pytest.fixture(scope="class")
    def setup(self):
        app = build_synthetic(burst_cycles=400, total_cycles=20_000, seed=5)
        trace = app.simulate_full_crossbar().trace
        return app, trace

    def test_grid_size(self, setup):
        app, trace = setup
        points = explore_design_space(
            app, trace, [400, 1_600], [0.1, 0.4],
            config=SynthesisConfig(max_targets_per_bus=None),
        )
        assert len(points) == 4
        assert {p.window_size for p in points} == {400, 1_600}

    def test_front_contains_extreme_tradeoffs(self, setup):
        app, trace = setup
        points = explore_design_space(
            app, trace, [400, trace.total_cycles], [0.1, 0.5],
            config=SynthesisConfig(max_targets_per_bus=None),
        )
        front = pareto_front(points)
        assert front
        # the cheapest design on the front must be no larger than any
        # explored point, and the fastest no slower
        assert min(p.bus_count for p in front) == min(
            p.bus_count for p in points
        )
        assert min(p.mean_latency for p in front) == min(
            p.mean_latency for p in points
        )

    def test_empty_grid_rejected(self, setup):
        app, trace = setup
        with pytest.raises(ConfigurationError):
            explore_design_space(app, trace, [], [0.3])


class TestGridReplays:
    WINDOWS = (200, 500, 1_000, 2_000)
    THRESHOLDS = (0.1, 0.2, 0.3, 0.4)

    def reference_points(self, app, trace):
        """Design each point on its own and simulate it directly."""
        points = []
        for window in self.WINDOWS:
            for threshold in self.THRESHOLDS:
                config = replace(
                    SynthesisConfig(),
                    window_size=window,
                    overlap_threshold=threshold,
                )
                design = CrossbarSynthesizer(config).design_from_trace(
                    trace, window
                ).design
                stats = app.simulate(
                    design.it.as_list(), design.ti.as_list(), app.sim_cycles * 4
                ).latency_stats()
                points.append(
                    DesignPoint(
                        window_size=window,
                        overlap_threshold=threshold,
                        bus_count=design.bus_count,
                        mean_latency=stats.mean,
                        max_latency=stats.maximum,
                    )
                )
        return points

    def test_one_replay_per_distinct_design(self):
        """The grid's 16 points come from 7 distinct designs on qsort:
        equal designs share one replay stage, and every point matches a
        direct simulation of its design."""
        app = build_application("qsort")
        trace = app.simulate_full_crossbar().trace
        before = metrics.REGISTRY.snapshot()
        points = explore_design_space(app, trace, self.WINDOWS, self.THRESHOLDS)
        grown = metrics.growth(
            before, metrics.REGISTRY.snapshot(), "repro_stage_events_total"
        )
        assert grown[("replay", "computed")] == 7
        assert grown[("replay", "memo_hit")] == 9
        assert points == self.reference_points(app, trace)
