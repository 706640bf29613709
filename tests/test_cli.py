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

    def test_run_parallel_cached_matches_serial(self, tmp_path, capsys):
        def report_lines(text):
            # Drop the run banner (prints the job count) and cache stats.
            return [
                line for line in text.splitlines()
                if not line.startswith(("running scenario suite", "cache:"))
            ]

        argv = ["scenarios", "run", "smoke"]
        assert main(argv) == 0
        serial = report_lines(capsys.readouterr().out)
        cache = str(tmp_path / "cache")
        assert main(argv + ["--jobs", "2", "--cache-dir", cache]) == 0
        cold = report_lines(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2", "--cache-dir", cache]) == 0
        warm = report_lines(capsys.readouterr().out)
        assert serial == cold == warm

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

    def test_sweep_window_parallel_matches_serial(self, capsys):
        argv = ["sweep-window", "--burst", "400", "--windows", "200", "1600"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

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
        assert main(["sweep-window", "--jobs", "-3"]) == 1
        assert "error:" in capsys.readouterr().err


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

    def test_serve_parser_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["serve", "--log-json", "--no-trace"]
        )
        assert args.log_json is True
        assert args.no_trace is True
