"""Integration tests: the full four-phase synthesis flow on real apps."""

import pytest

from repro.apps import build_application
from repro.apps.registry import default_full_crossbar_trace
from repro.core import (
    CrossbarDesign,
    CrossbarDesignProblem,
    CrossbarSynthesizer,
    SynthesisConfig,
    audit_binding,
    average_traffic_design,
    build_conflicts,
    full_crossbar_design,
    optimize_binding,
    peak_bandwidth_design,
    search_minimum_buses,
    shared_bus_design,
)
from repro.pipeline import PipelineRunner


@pytest.fixture(scope="module")
def mat2_app():
    return build_application("mat2")


@pytest.fixture(scope="module")
def mat2_trace(mat2_app):
    return mat2_app.simulate_full_crossbar().trace


@pytest.fixture(scope="module")
def mat2_report(mat2_app, mat2_trace):
    synthesizer = CrossbarSynthesizer(SynthesisConfig())
    return synthesizer.design(mat2_app, trace=mat2_trace)


class TestMat2Synthesis:
    def test_three_buses_per_crossbar(self, mat2_report):
        # Paper Sec. 7.1: Mat2's IT crossbar uses 3 buses; the total of
        # 6 gives the 3.5x saving of Table 2.
        assert mat2_report.design.it.num_buses == 3
        assert mat2_report.design.ti.num_buses == 3
        assert mat2_report.design.bus_count == 6

    def test_each_bus_carries_three_private_memories(self, mat2_report):
        # Paper Sec. 7.1: "Each of the bus has 3 private memories and one
        # of the common memories connected to it."
        binding = mat2_report.design.it
        for bus in range(binding.num_buses):
            members = binding.targets_on_bus(bus)
            private = [t for t in members if t < 9]
            assert len(private) == 3

    def test_buses_mix_pipeline_stages(self, mat2_report):
        # Optimal binding groups cores of *different* stages (stage =
        # arm % 3), minimizing temporal overlap per bus.
        binding = mat2_report.design.it
        for bus in range(binding.num_buses):
            stages = sorted(
                t % 3 for t in binding.targets_on_bus(bus) if t < 9
            )
            assert stages == [0, 1, 2]

    def test_bindings_pass_audit(self, mat2_report):
        config = mat2_report.config
        for report in (mat2_report.it_report, mat2_report.ti_report):
            assert not audit_binding(
                report.problem,
                report.conflicts,
                report.binding.binding,
                config.max_targets_per_bus,
            )

    def test_designed_latency_close_to_full_crossbar(
        self, mat2_app, mat2_report
    ):
        synthesizer = CrossbarSynthesizer()
        validation = synthesizer.validate(
            mat2_app, mat2_report.design, max_cycles=mat2_app.sim_cycles * 3
        )
        assert validation.finished
        full = mat2_app.simulate_full_crossbar()
        ratio = validation.latency_stats().mean / full.latency_stats().mean
        assert ratio < 1.6  # paper: acceptable bounds from the minimum

    def test_summary_mentions_key_facts(self, mat2_report):
        text = mat2_report.summary()
        assert "3 IT buses + 3 TI buses = 6" in text
        assert "window size" in text

    def test_search_probed_binary_trajectory(self, mat2_report):
        probes = mat2_report.it_report.search.probes
        assert probes[3] is True
        assert all(not ok for count, ok in probes.items() if count < 3)


class TestBaselineDesigns:
    def test_average_design_is_smaller_but_valid(self, mat2_trace):
        design = average_traffic_design(mat2_trace)
        assert design.label == "average-traffic"
        assert design.bus_count < 6  # averages hide the peaks

    def test_peak_design_oversizes(self, mat2_trace):
        windowed = CrossbarSynthesizer().design_from_trace(mat2_trace, 1_000)
        peak = peak_bandwidth_design(mat2_trace, window_size=1_000)
        assert peak.bus_count > windowed.design.bus_count

    def test_reference_designs(self, mat2_trace):
        shared = shared_bus_design(mat2_trace)
        full = full_crossbar_design(mat2_trace)
        assert shared.bus_count == 2
        assert full.bus_count == 21
        # Table 1's size ratio: full / shared = 10.5
        assert shared.size_ratio_vs(full) == pytest.approx(10.5)


def reference_baseline(trace, window_size, overlap_threshold, label):
    """A designed baseline by the flow's phases called one by one,
    outside the pipeline: window, conflicts, search, Eq. 11, per side."""
    config = SynthesisConfig(
        window_size=window_size,
        overlap_threshold=overlap_threshold,
        max_targets_per_bus=None,
        use_criticality=False,
    )
    sides = []
    for side_trace in (trace, trace.mirrored()):
        problem = CrossbarDesignProblem.from_trace(side_trace, window_size)
        conflicts = build_conflicts(problem, config)
        search = search_minimum_buses(problem, conflicts, config)
        sides.append(
            optimize_binding(problem, conflicts, search.num_buses, config)
        )
    return CrossbarDesign(it=sides[0], ti=sides[1], label=label)


class TestBaselineOracle:
    """The designed baselines run through the pipeline and equal the
    phases run by hand, field for field."""

    @pytest.mark.parametrize("name", ["qsort", "mat1", "mat2", "fft", "des"])
    def test_average_traffic_matches_reference(self, name):
        trace = default_full_crossbar_trace(name)
        expected = reference_baseline(
            trace, trace.total_cycles, 0.5, "average-traffic"
        )
        assert average_traffic_design(trace) == expected
        # A shared runner answers the same design again without solving.
        runner = PipelineRunner()
        assert average_traffic_design(trace, pipeline=runner) == expected
        assert average_traffic_design(trace, pipeline=runner) == expected
        assert runner.counters.memo_hits == {"window": 2, "conflicts": 2,
                                             "bind": 2}

    @pytest.mark.parametrize("name", ["qsort", "mat2"])
    def test_peak_bandwidth_matches_reference(self, name):
        trace = default_full_crossbar_trace(name)
        window = build_application(name).default_window
        expected = reference_baseline(trace, window, 0.0, "peak-bandwidth")
        assert peak_bandwidth_design(trace, window_size=window) == expected


class TestWindowExtremes:
    def test_whole_run_window_degenerates_to_average(self, mat2_app, mat2_trace):
        config = SynthesisConfig(
            window_size=mat2_trace.total_cycles,
            overlap_threshold=0.5,
            max_targets_per_bus=None,
            use_criticality=False,
        )
        report = CrossbarSynthesizer(config).design(mat2_app, trace=mat2_trace)
        average = average_traffic_design(mat2_trace)
        assert report.design.bus_count == average.bus_count

    def test_smaller_windows_never_shrink_the_crossbar(
        self, mat2_app, mat2_trace
    ):
        sizes = {}
        for window in (500, 2_000, mat2_trace.total_cycles):
            config = SynthesisConfig(
                window_size=window, max_targets_per_bus=None
            )
            report = CrossbarSynthesizer(config).design(
                mat2_app, trace=mat2_trace
            )
            sizes[window] = report.design.bus_count
        assert sizes[500] >= sizes[2_000] >= sizes[mat2_trace.total_cycles]
