"""Incremental suite re-synthesis (the PR's acceptance criterion).

Editing one scenario of a >= 4-scenario suite and re-running
``ScenarioSuiteRunner.run`` on the *same* runner must re-execute only
that scenario's per-scenario stages -- trace build, windowing, conflict
pre-processing, individual solve -- plus the suite-level merge solve,
and still produce a report byte-identical to a cold run of the edited
suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import SOLVE_COUNTER
from repro.scenarios import (
    Scenario,
    ScenarioSuite,
    ScenarioSuiteRunner,
    build_suite,
)


def _edit_scenario(suite: ScenarioSuite, index: int, **param_overrides):
    """A copy of ``suite`` with one scenario's params changed."""
    scenarios = list(suite.scenarios)
    payload = scenarios[index].to_dict()
    payload["params"] = {**payload["params"], **param_overrides}
    scenarios[index] = Scenario.from_dict(payload)
    return ScenarioSuite(
        name=suite.name,
        scenarios=tuple(scenarios),
        description=suite.description,
    )


@pytest.fixture(scope="module")
def suite():
    built = build_suite("smoke")
    assert len(built) >= 4  # the acceptance criterion's floor
    return built


class TestIncrementalResynthesis:
    def test_identical_rerun_recomputes_nothing(self, suite):
        runner = ScenarioSuiteRunner()
        cold = runner.run(suite)
        SOLVE_COUNTER.reset()
        warm = runner.run(suite)
        assert SOLVE_COUNTER.total == 0
        assert runner.last_run_breakdown["computed"] == {}
        assert warm.to_dict() == cold.to_dict()

    def test_one_edit_reexecutes_only_that_scenario(self, suite):
        runner = ScenarioSuiteRunner()
        SOLVE_COUNTER.reset()
        runner.run(suite)
        cold_solves = SOLVE_COUNTER.total

        edited = _edit_scenario(suite, 1, seed=97)
        SOLVE_COUNTER.reset()
        warm_report = runner.run(edited)
        warm_solves = SOLVE_COUNTER.total

        # Strictly fewer solves than cold: only the edited scenario's
        # individual solve plus the merged robust solve re-ran.
        assert 0 < warm_solves < cold_solves

        computed = runner.last_run_breakdown["computed"]
        memo = runner.last_run_breakdown["memo_hits"]
        others = len(suite) - 1
        # Per-scenario stages: exactly one scenario re-executed ...
        assert computed.get("collect") == 1
        assert computed.get("window") == 2  # its IT + TI sides
        assert computed.get("conflicts") == 2
        assert computed.get("design") == 1
        # ... every other scenario was served from the store, and the
        # edited one's individual solve, on the engine's runner, reused
        # the windows and conflicts its analysis had just built ...
        assert memo.get("collect") == others
        assert memo.get("window") == 2 * others + 2
        assert memo.get("conflicts") == 2 * others + 2
        assert memo.get("design") == others
        # ... and the suite-level merge re-solved both crossbar sides.
        assert computed.get("bind-merged") == 2

        # The incremental report is identical to a cold run of the
        # edited suite.
        cold_report = ScenarioSuiteRunner().run(edited)
        warm_bytes = json.dumps(warm_report.to_dict(), sort_keys=True).encode()
        cold_bytes = json.dumps(cold_report.to_dict(), sort_keys=True).encode()
        assert warm_bytes == cold_bytes

    def test_weight_edit_reuses_all_analyses(self, suite):
        """Weight changes rebuild no traces and re-solve no individuals
        (the weight feeds only the merge policy)."""
        runner = ScenarioSuiteRunner()
        runner.run(suite)
        scenarios = list(suite.scenarios)
        payload = scenarios[0].to_dict()
        payload["weight"] = payload["weight"] + 1.0
        scenarios[0] = Scenario.from_dict(payload)
        reweighted = ScenarioSuite(
            name=suite.name, scenarios=tuple(scenarios),
            description=suite.description,
        )
        SOLVE_COUNTER.reset()
        report = runner.run(reweighted)
        computed = runner.last_run_breakdown["computed"]
        assert "collect" not in computed
        assert "window" not in computed
        assert "design" not in computed
        assert SOLVE_COUNTER.total == 0  # union policy ignores weights
        assert report.to_dict() == ScenarioSuiteRunner().run(reweighted).to_dict()

    def test_incremental_path_shares_disk_cache_across_processes_shape(
        self, suite, tmp_path
    ):
        """A fresh runner over the same cache directory serves the
        merged solves from persisted stage entries (zero solves)."""
        from repro.exec import ExecutionEngine, ResultCache

        cache_dir = tmp_path / "cache"
        cold = ScenarioSuiteRunner(
            engine=ExecutionEngine(cache=ResultCache(cache_dir))
        )
        cold_report = cold.run(suite)

        warm = ScenarioSuiteRunner(
            engine=ExecutionEngine(cache=ResultCache(cache_dir))
        )
        SOLVE_COUNTER.reset()
        warm_report = warm.run(suite)
        assert SOLVE_COUNTER.total == 0
        assert warm.last_run_breakdown["disk_hits"].get("bind-merged") == 2
        assert warm_report.to_dict() == cold_report.to_dict()


def _explain_cache_rows(cache_dir):
    """The ``--explain-cache`` rows of a fresh-process smoke suite run:
    stage -> [computed, memo-hit, disk-hit]."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro", "scenarios", "run", "smoke",
         "--cache-dir", str(cache_dir), "--explain-cache"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return {
        cells[0]: [int(cell) for cell in cells[1:]]
        for cells in (line.split() for line in out.splitlines())
        if len(cells) == 4 and cells[1].isdigit()
    }


def test_suite_runs_on_the_engines_store(suite):
    """The suite owns no store: its analyses fill the engine's runner,
    which its individual solves and the daemon's jobs share."""
    from repro.exec import ExecutionEngine

    engine = ExecutionEngine()
    runner = ScenarioSuiteRunner(engine=engine)
    runner.run(suite)
    windows = [
        (scenario, fingerprint)
        for scenario, stage, fingerprint, _ in runner.last_stage_rows
        if stage.startswith("window[")
    ]
    assert len(windows) == 2 * len(suite)
    for scenario, fingerprint in windows:
        assert fingerprint in engine.pipeline.store, scenario


def test_cold_suite_solves_on_its_own_windows(tmp_path):
    """The individual solves run on the engine's runner, which the
    suite's analyses already filled with every scenario's windows and
    conflicts: a cold fresh-process run memo-hits each one once and
    decodes no window sidecar."""
    rows = _explain_cache_rows(tmp_path)
    for stage in ("window", "conflicts"):
        computed, memo_hits, disk_hits = rows[stage]
        assert computed > 0
        assert (memo_hits, disk_hits) == (computed, 0), stage


def test_warm_suite_reads_every_design_from_disk(tmp_path):
    """A fresh-process warm run answers each scenario's individual solve
    from the engine's whole-result cache: ``design 0 0 4``."""
    _explain_cache_rows(tmp_path)
    assert _explain_cache_rows(tmp_path)["design"] == [0, 0, 4]
