"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "mat2"])
        assert args.app == "mat2"
        assert args.threshold == pytest.approx(0.3)
        assert args.maxtb == 4
        assert not args.validate

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.workers == 2
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.verbose


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("mat1", "mat2", "fft", "qsort", "des", "synthetic"):
            assert name in out
        assert "21" in out  # mat2 core count

    def test_design_qsort(self, capsys):
        assert main(["design", "qsort"]) == 0
        out = capsys.readouterr().out
        assert "designed crossbar" in out
        assert "IT binding:" in out
        assert "pm0" in out

    def test_design_unknown_app_fails_cleanly(self, capsys):
        assert main(["design", "doom"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_design_with_validation(self, capsys):
        assert main(["design", "qsort", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "validation" in out
        assert "designed" in out

    def test_design_parameter_overrides(self, capsys):
        assert main(
            ["design", "qsort", "--window", "500", "--threshold", "0.1",
             "--maxtb", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "window size: 500" in out
        assert "10%" in out

    def test_trace_dump(self, tmp_path, capsys):
        out_path = tmp_path / "qsort.jsonl"
        assert main(["trace", "qsort", "-o", str(out_path)]) == 0
        assert out_path.exists()
        assert "wrote" in capsys.readouterr().out
        from repro.traffic import load_trace_jsonl

        trace = load_trace_jsonl(out_path)
        assert trace.num_initiators == 6

    def test_sweep_window(self, capsys):
        assert main(
            ["sweep-window", "--burst", "400", "--windows", "200", "1600"]
        ) == 0
        out = capsys.readouterr().out
        assert "window sweep" in out
        assert "200" in out

    def test_compare(self, capsys):
        assert main(["compare", "qsort"]) == 0
        out = capsys.readouterr().out
        for label in ("shared", "average-traffic", "windowed", "full"):
            assert label in out


class TestScenarios:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "mixed", "loadramp", "apps"):
            assert name in out

    def test_run_smoke_suite(self, capsys):
        assert main(["scenarios", "run", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "robust crossbar over 4 scenarios" in out
        assert "replay violations: 0" in out
        assert "pareto" in out

    def test_run_writes_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert main(
            ["scenarios", "run", "smoke", "--report", str(report_path)]
        ) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-scenario-report-v1"
        assert payload["robust"]["total_violations"] == 0
        assert len(payload["scenarios"]) == 4

    def test_run_cached_matches_uncached(self, tmp_path, capsys):
        def report_lines(text):
            # Drop the cache stats, which only the cached runs print.
            return [
                line for line in text.splitlines()
                if not line.startswith("cache:")
            ]

        argv = ["scenarios", "run", "smoke"]
        assert main(argv) == 0
        uncached = report_lines(capsys.readouterr().out)
        cache = str(tmp_path / "cache")
        assert main(argv + ["--cache-dir", cache]) == 0
        cold = report_lines(capsys.readouterr().out)
        assert main(argv + ["--cache-dir", cache]) == 0
        warm = report_lines(capsys.readouterr().out)
        assert uncached == cold == warm

    def test_export_then_run_from_file(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        assert main(["scenarios", "export", "smoke", "-o", str(suite_path)]) == 0
        capsys.readouterr()
        assert main(["scenarios", "run", str(suite_path)]) == 0
        out = capsys.readouterr().out
        assert "robust crossbar over 4 scenarios" in out

    def test_weighted_policy_flag(self, capsys):
        assert main(
            ["scenarios", "run", "smoke", "--policy", "weighted",
             "--min-weight", "0.6"]
        ) == 0
        assert "policy=weighted" in capsys.readouterr().out

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert main(["scenarios", "run", "atlantis"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEngineOptions:
    def test_engine_defaults(self):
        args = build_parser().parse_args(["design", "mat2"])
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_jobs_accepts_only_one(self, capsys):
        # --jobs survives, hidden, only so scripts passing "--jobs 1"
        # still parse; any other worker count is a usage error.
        for command in (["design", "qsort"], ["scenarios", "run", "smoke"],
                        ["serve"]):
            assert build_parser().parse_args(command + ["--jobs", "1"]).jobs == 1
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(command + ["--jobs", "2"])
            assert excinfo.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["design", "--help"])
        assert "--jobs" not in capsys.readouterr().out

    def test_design_with_cache_dir_reuses_results(self, tmp_path, capsys):
        from repro.core import SOLVE_COUNTER

        argv = ["design", "qsort", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache:" in first

        SOLVE_COUNTER.reset()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert SOLVE_COUNTER.total == 0  # warm cache: no solver work
        assert "designed crossbar" in second

    def test_negative_jobs_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-window", "--jobs", "-3"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


def _report(out):
    """A design report minus its ``cache:`` statistics line."""
    return [line for line in out.splitlines() if not line.startswith("cache: ")]


class TestDesignCacheAddress:
    """``repro design --cache-dir`` files whole results under the design
    fingerprint and persists the engine's window sidecars."""

    def test_threshold_edit_reads_windows_from_disk(self, tmp_path):
        """A fresh process editing the threshold re-windows nothing."""
        import json
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cache = str(tmp_path / "cache")
        subprocess.run(
            [sys.executable, "-m", "repro", "design", "qsort", "--cache-dir", cache],
            check=True, capture_output=True, env=env,
        )
        script = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "from repro.obs import metrics\n"
            "main(['design', 'qsort', '--cache-dir', sys.argv[1],"
            " '--threshold', '0.2'])\n"
            "events = metrics.REGISTRY.get('repro_stage_events_total').collect()\n"
            "print(json.dumps({kind: events.get(('window', kind), 0)"
            " for kind in ('computed', 'disk_hit')}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, cache],
            check=True, capture_output=True, text=True, env=env,
        ).stdout
        assert json.loads(out.splitlines()[-1]) == {"computed": 0, "disk_hit": 2}

    def test_design_builds_one_stage_side_cache(self, tmp_path, capsys, monkeypatch):
        """The whole-result cache plus one stage-side instance shared by
        the engine's runner and its collector."""
        from repro.exec import ResultCache

        constructed = []
        init = ResultCache.__init__

        def counting_init(cache, *args, **kwargs):
            constructed.append(cache)
            init(cache, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "__init__", counting_init)
        assert main(["design", "qsort", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(constructed) == 2

    def test_nominal_window_shares_the_address(self, tmp_path, capsys, monkeypatch):
        """``--window <default>`` differs from the default run only in
        the nominal window, which no stage reads: a whole-result hit
        that reports exactly what a fresh solve with that config does."""
        from repro.apps import build_application
        from repro.core import SOLVE_COUNTER
        from repro.exec import ExecutionEngine, result_to_dict

        results = []
        synthesize = ExecutionEngine.synthesize

        def recording(engine, *args, **kwargs):
            results.append(synthesize(engine, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(ExecutionEngine, "synthesize", recording)
        window = str(build_application("fft").default_window)
        shared = str(tmp_path / "shared")
        assert main(["design", "fft", "--cache-dir", shared]) == 0
        capsys.readouterr()
        SOLVE_COUNTER.reset()
        argv = ["design", "fft", "--window", window, "--cache-dir"]
        assert main(argv + [shared]) == 0
        hit = capsys.readouterr().out
        assert SOLVE_COUNTER.total == 0
        assert "cache: 1/1 hits" in hit
        assert main(argv + [str(tmp_path / "fresh")]) == 0
        fresh = capsys.readouterr().out
        assert results[0].config.window_size is None
        assert results[1].config.window_size == int(window)
        assert result_to_dict(results[1]) == result_to_dict(results[2])
        assert _report(hit) == _report(fresh)


class TestPipelineCommands:
    def test_pipeline_inspect(self, capsys):
        assert main(["pipeline", "inspect", "qsort"]) == 0
        out = capsys.readouterr().out
        assert "stage artifacts for qsort" in out
        for stage in ("collect", "window[it]", "conflicts[ti]", "bind[it]",
                      "design"):
            assert stage in out
        assert "computed" in out

    def test_pipeline_inspect_cache_dir_skips_solves(self, tmp_path, capsys):
        from repro.core import SOLVE_COUNTER

        argv = ["pipeline", "inspect", "qsort",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        SOLVE_COUNTER.reset()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert SOLVE_COUNTER.total == 0  # binding stages came from disk
        assert "stage artifacts for qsort" in out

    def test_pipeline_inspect_suite_prints_per_scenario_dag(self, capsys):
        assert main(["pipeline", "inspect", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "per-scenario stage DAG for suite 'smoke'" in out
        for stage in ("scenario-trace", "window[it]", "conflicts[ti]",
                      "individual-solve", "replay", "bind-merged[it]"):
            assert stage in out
        assert "burst-sync" in out  # per-scenario rows, not just stages
        assert "(suite)" in out

    def test_pipeline_inspect_suite_json_file(self, tmp_path, capsys):
        from repro.scenarios import build_suite, save_suite

        path = tmp_path / "custom.json"
        save_suite(build_suite("smoke"), path)
        assert main(["pipeline", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-scenario stage DAG" in out

    def test_pipeline_inspect_suite_rejects_window_override(self, capsys):
        assert main(["pipeline", "inspect", "smoke", "--window", "500"]) == 1
        assert "single-application" in capsys.readouterr().err

    def test_pipeline_inspect_unknown_app_fails_cleanly(self, capsys):
        assert main(["pipeline", "inspect", "doom"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCacheCommands:
    def test_stats_and_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["pipeline", "inspect", "qsort",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        # two persisted binding stages + two windowed-tensor npz
        # sidecars + two warm-start hint slots (one per crossbar side),
        # plus the collect stage's payload and npz sidecar
        assert "8 entries" in out

        assert main(["cache", "prune", cache_dir, "--max-bytes", "0"]) == 0
        assert "pruned 8 entries" in capsys.readouterr().out

        assert main(["cache", "stats", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestScenarioPipelineFlags:
    def test_explain_cache_prints_breakdown(self, capsys):
        assert main(["scenarios", "run", "smoke", "--explain-cache"]) == 0
        out = capsys.readouterr().out
        assert "staged-pipeline cache breakdown" in out
        assert "bind-merged" in out
        assert "individual-solve" in out

    def test_replay_latency_adds_column_for_app_suites(self, capsys):
        assert main(["scenarios", "run", "apps", "--replay-latency"]) == 0
        out = capsys.readouterr().out
        assert "avg lat (cy)" in out


class TestObservabilityFlags:
    def test_trace_capture_writes_span_jsonl(self, tmp_path, capsys):
        from repro.obs import tracing
        from repro.obs.export import load_jsonl

        out_path = tmp_path / "spans.jsonl"
        assert main(["design", "qsort", "--trace", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        spans = load_jsonl(str(out_path))
        names = {span.name for span in spans}
        assert "cli.design" in names
        assert "pipeline.bind" in names
        # The capture disarms on exit: no leaked global tracing state.
        assert not tracing.tracing_enabled()

    def test_trace_span_mode_renders_tree(self, tmp_path, capsys):
        out_path = tmp_path / "spans.jsonl"
        assert main(["design", "qsort", "--trace", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "cli.design" in out
        assert "wall ms" in out

    def test_trace_span_mode_exports_chrome(self, tmp_path, capsys):
        import json

        spans_path = tmp_path / "spans.jsonl"
        chrome_path = tmp_path / "chrome.json"
        assert main(["design", "qsort", "--trace", str(spans_path)]) == 0
        capsys.readouterr()
        assert main(
            ["trace", str(spans_path), "--export-chrome", str(chrome_path)]
        ) == 0
        assert "Chrome trace events" in capsys.readouterr().out
        document = json.loads(chrome_path.read_text())
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])

    def test_trace_app_mode_still_requires_output(self, capsys):
        assert main(["trace", "qsort"]) == 1
        assert "required" in capsys.readouterr().err

    def test_profile_includes_pipeline_stage_table(self, capsys):
        assert main(["design", "qsort", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "pipeline stages (this run)" in out
        assert "bind" in out

    def test_profile_lists_suite_replays_as_a_stage(self, capsys):
        argv = ["scenarios", "run", "smoke", "--replay-latency", "--profile"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        table = out.split("pipeline stages (this run)")[1].split("\n\n")[0]
        rows = [line.split() for line in table.splitlines()]
        replay = [row for row in rows if row[:1] == ["replay"]]
        assert len(replay) == 1
        assert int(replay[0][1]) > 0

    def test_profile_reports_only_its_own_run(self, capsys):
        """Every table is the registry's growth over one command, so a
        repeat in the same process prints the same solve-phase calls and
        solver counts, not their running sum."""

        def profile():
            assert main(["design", "qsort", "--profile"]) == 0
            out = capsys.readouterr().out
            solve_row = next(
                line for line in out.splitlines() if line.startswith("  solve ")
            )
            return solve_row.split()[-1], out.split("solver backends")[1]

        first = profile()
        assert first[0] == "2x"
        assert profile() == first

    def test_serve_parser_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["serve", "--log-json", "--no-trace"]
        )
        assert args.log_json is True
        assert args.no_trace is True
