"""Execution-engine semantics: sweep equivalence and cached re-runs."""

import pytest

from repro.analysis import compare_designs, window_size_sweep
from repro.analysis.sweep import acceptable_window_search
from repro.apps import build_application
from repro.apps.synthetic import synthetic_trace
from repro.core import SOLVE_COUNTER, SynthesisConfig
from repro.core.synthesis import CrossbarSynthesizer
from repro.errors import ConfigurationError
from repro.exec import (
    ExecutionEngine,
    ResultCache,
    SynthesisTask,
    trace_fingerprint,
)

WINDOWS = [150, 2_400]
CONFIG = SynthesisConfig(max_targets_per_bus=None)


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace(
        burst_cycles=300, total_cycles=12_000, num_initiators=5,
        num_targets=5, seed=7,
    )


class TestSweepEquivalence:
    def test_matches_direct_synthesizer(self, small_trace):
        """The engine is a transport, not a solver: same designs out."""
        from dataclasses import replace

        points = window_size_sweep(
            small_trace, [600], CONFIG, engine=ExecutionEngine()
        )
        report = CrossbarSynthesizer(
            replace(CONFIG, window_size=600)
        ).design_from_trace(small_trace, 600)
        assert points[0].it_buses == report.design.it.num_buses
        assert points[0].ti_buses == report.design.ti.num_buses


class TestCacheSemantics:
    def test_warm_cache_performs_zero_solves(self, small_trace, tmp_path):
        """Acceptance: second run with a warm cache never hits a solver."""
        cold = ExecutionEngine(cache=tmp_path / "cache")
        first = window_size_sweep(small_trace, WINDOWS, CONFIG, engine=cold)
        assert cold.cache.stats.stores == len(WINDOWS)

        warm = ExecutionEngine(cache=tmp_path / "cache")
        SOLVE_COUNTER.reset()
        second = window_size_sweep(small_trace, WINDOWS, CONFIG, engine=warm)
        assert SOLVE_COUNTER.total == 0
        assert second == first
        assert warm.cache.stats.hits == len(WINDOWS)
        assert warm.cache.stats.misses == 0

    def test_config_change_misses_cache(self, small_trace, tmp_path):
        engine = ExecutionEngine(cache=tmp_path / "cache")
        window_size_sweep(small_trace, [600], CONFIG, engine=engine)
        SOLVE_COUNTER.reset()
        window_size_sweep(
            small_trace, [600],
            SynthesisConfig(max_targets_per_bus=None, overlap_threshold=0.1),
            engine=engine,
        )
        assert SOLVE_COUNTER.total > 0

    def test_trace_change_misses_cache(self, small_trace, tmp_path):
        engine = ExecutionEngine(cache=tmp_path / "cache")
        window_size_sweep(small_trace, [600], CONFIG, engine=engine)
        other = synthetic_trace(
            burst_cycles=300, total_cycles=12_000, num_initiators=5,
            num_targets=5, seed=8,
        )
        SOLVE_COUNTER.reset()
        window_size_sweep(other, [600], CONFIG, engine=engine)
        assert SOLVE_COUNTER.total > 0

    def test_duplicate_tasks_solved_once(self, small_trace):
        """Windows clamped to the trace length collapse to one solve."""
        total = small_trace.total_cycles
        SOLVE_COUNTER.reset()
        single = window_size_sweep(
            small_trace, [total], CONFIG, engine=ExecutionEngine()
        )
        solves_for_one = SOLVE_COUNTER.total
        SOLVE_COUNTER.reset()
        tripled = window_size_sweep(
            small_trace,
            [total, total * 2, total * 10],  # all clamp to total_cycles
            CONFIG,
            engine=ExecutionEngine(),
        )
        assert SOLVE_COUNTER.total == solves_for_one
        assert [p.total_buses for p in tripled] == [single[0].total_buses] * 3

    def test_synthesize_single_point(self, small_trace, tmp_path):
        engine = ExecutionEngine(cache=tmp_path / "cache")
        first = engine.synthesize(small_trace, CONFIG, window_size=600)
        SOLVE_COUNTER.reset()
        second = engine.synthesize(small_trace, CONFIG, window_size=600)
        assert SOLVE_COUNTER.total == 0
        assert first == second

    def test_cached_sweep_never_loads_its_trace(self, small_trace, tmp_path):
        engine = ExecutionEngine(cache=tmp_path / "cache")
        first = engine.synthesize(small_trace, CONFIG, window_size=600)

        def load():
            raise AssertionError("a fully cached sweep loaded its trace")

        digest = trace_fingerprint(small_trace)
        assert engine.synthesize(load, CONFIG, 600, trace_digest=digest) == first

    def test_stale_digest_restarts_under_the_loaded_trace(
        self, small_trace, tmp_path
    ):
        """A loader whose trace does not match the given digest: nothing
        is read or stored under the stale digest's key."""
        engine = ExecutionEngine(cache=tmp_path / "cache")
        result = engine.synthesize(
            lambda: small_trace, CONFIG, 600, trace_digest="0" * 64
        )
        assert result == ExecutionEngine().synthesize(small_trace, CONFIG, 600)
        assert engine.cache.stats.stores == 1
        SOLVE_COUNTER.reset()
        assert engine.synthesize(small_trace, CONFIG, 600) == result
        assert SOLVE_COUNTER.total == 0

    def test_shared_engine_under_concurrent_threads(self, small_trace, tmp_path):
        """Daemon jobs share one engine: concurrent sweeps over the same
        points agree with a serial sweep and file one record per point."""
        import sys
        import threading

        tasks = [
            SynthesisTask(config=CONFIG, window_size=window)
            for window in (150, 600, 2_400)
        ]
        expected = ExecutionEngine().run_sweep(small_trace, tasks)
        engine = ExecutionEngine(cache=tmp_path / "cache")
        outcomes = []

        def sweep(order):
            results = engine.run_sweep(small_trace, [tasks[i] for i in order])
            outcomes.append([results[order.index(i)] for i in range(len(tasks))])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=sweep, args=(order,))
                for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]) * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [expected] * len(threads)
        records = [
            path for path in (tmp_path / "cache").glob("*.json")
            if not path.name.startswith("stage-")
        ]
        assert len(records) == len(tasks)


class TestBatchExecution:
    """run_batch: one task per trace (the scenario-suite pattern)."""

    @pytest.fixture(scope="class")
    def batch(self):
        traces = [
            synthetic_trace(
                burst_cycles=300, total_cycles=12_000, num_initiators=5,
                num_targets=5, seed=seed,
            )
            for seed in (7, 8, 9)
        ]
        tasks = [SynthesisTask(config=CONFIG, window_size=600) for _ in traces]
        return list(zip(traces, tasks))

    def test_results_align_with_input_order(self, batch):
        results = ExecutionEngine().run_batch(batch)
        for (trace, task), result in zip(batch, results):
            direct = CrossbarSynthesizer(task.config).design_from_trace(
                trace, task.window_size
            )
            assert result.design == direct.design

    def test_warm_cache_performs_zero_solves(self, batch, tmp_path):
        cold = ExecutionEngine(cache=tmp_path / "cache")
        first = cold.run_batch(batch)
        assert cold.cache.stats.stores == len(batch)
        warm = ExecutionEngine(cache=tmp_path / "cache")
        SOLVE_COUNTER.reset()
        second = warm.run_batch(batch)
        assert SOLVE_COUNTER.total == 0
        assert second == first

    def test_duplicate_items_share_one_solve(self, batch):
        doubled = batch + [batch[0]]
        SOLVE_COUNTER.reset()
        results = ExecutionEngine().run_batch(doubled)
        solves_plain = SOLVE_COUNTER.total
        SOLVE_COUNTER.reset()
        ExecutionEngine().run_batch(batch)
        assert solves_plain == SOLVE_COUNTER.total  # the repeat was free
        assert results[-1] == results[0]


class TestEngineConfiguration:
    def test_cache_path_coerced(self, tmp_path):
        engine = ExecutionEngine(cache=str(tmp_path / "c"))
        assert isinstance(engine.cache, ResultCache)

    def test_task_validates_window(self):
        with pytest.raises(ConfigurationError):
            SynthesisTask(config=SynthesisConfig(), window_size=0)


class TestEvaluationFanOut:
    @pytest.fixture(scope="class")
    def qsort_setup(self):
        app = build_application("qsort")
        trace = app.simulate_full_crossbar().trace
        return app, trace

    def test_registry_key_set_only_for_default_builds(self):
        assert build_application("qsort").registry_key == "qsort"
        customized = build_application("synthetic", burst_cycles=250)
        assert customized.registry_key is None

    def test_compare_designs_matches_direct_simulation(self, qsort_setup):
        """Each evaluation is the application simulated on that design."""
        from repro.core import full_crossbar_design, shared_bus_design

        app, trace = qsort_setup
        designs = [shared_bus_design(trace), full_crossbar_design(trace)]
        evaluations = compare_designs(app, designs, max_cycles=app.sim_cycles * 6)
        for design in designs:
            direct = app.simulate(
                design.it.as_list(), design.ti.as_list(), app.sim_cycles * 6
            )
            evaluation = evaluations[design.label]
            assert evaluation.bus_count == design.bus_count
            assert evaluation.stats == direct.latency_stats()
            assert evaluation.critical_stats == direct.latency_stats(
                critical_only=True
            )

    def test_acceptable_window_search_warm_cache_matches_cold(
        self, qsort_setup, tmp_path
    ):
        app, trace = qsort_setup
        candidates = [200, 800]
        uncached = acceptable_window_search(app, trace, candidates)
        cold = acceptable_window_search(
            app, trace, candidates, engine=ExecutionEngine(cache=tmp_path)
        )
        SOLVE_COUNTER.reset()
        warm = acceptable_window_search(
            app, trace, candidates, engine=ExecutionEngine(cache=tmp_path)
        )
        assert SOLVE_COUNTER.total == 0
        assert uncached == cold == warm
