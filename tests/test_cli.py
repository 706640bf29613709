"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def _stage_rows(out):
    """``{stage: (computed, ms, share)}`` from the ``--profile`` stage
    table, ``other`` and ``total`` included (their computed is "")."""
    table = out.split("pipeline stages (this run)")[1].split("\n\n")[0]
    rows = {}
    for line in table.strip().splitlines()[2:]:
        cells = line.split()
        computed = cells[1] if len(cells) == 4 else ""
        rows[cells[0]] = (computed, float(cells[-2]), cells[-1])
    return rows


def _stage_ms(rows):
    """The summed self time of the stage rows, in ms."""
    return sum(
        ms for name, (_, ms, _) in rows.items() if name not in ("other", "total")
    )


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

    def test_warm_compare_simulates_and_solves_nothing(self, tmp_path, capsys):
        """The baselines and every replay run on the engine's runner: a
        second cached comparison reads its replays and bindings back,
        and prints the same table a cache-less run does."""
        argv = ["compare", "qsort", "--cache-dir", str(tmp_path), "--profile"]

        def run(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        cold, warm = run(argv), run(argv)
        uncached = run(["compare", "qsort"])
        table = warm.split("\n\npipeline stages")[0]
        assert table == cold.split("\n\npipeline stages")[0]
        assert table + "\n" == uncached
        assert "replay" in _stage_rows(cold)
        assert "replay" not in _stage_rows(warm)
        assert "solves (this run)" in cold
        assert "solves (this run)" not in warm

    def test_warm_compare_loads_no_trace(self, tmp_path, capsys, monkeypatch):
        """Every design a warm comparison needs is stored, and the fixed
        reference points read only the core counts: the stored trace is
        never loaded, and the table equals the cold run's."""
        from repro.pipeline.collect import CollectStage

        argv = ["compare", "qsort", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        loads = []
        load = CollectStage._load
        monkeypatch.setattr(
            CollectStage, "_load",
            lambda self, *args: loads.append(args) or load(self, *args),
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert loads == []


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

    def test_backend_accepts_only_assignment(self, capsys):
        # --backend survives, hidden, only so scripts passing
        # "--backend assignment" still parse: the literal MILP is a test
        # oracle, not a solver the CLI can select.
        for command in (["design", "qsort"], ["pipeline", "inspect", "qsort"]):
            args = build_parser().parse_args(command + ["--backend", "assignment"])
            assert args.backend == "assignment"
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--backend", "milp"])
            assert excinfo.value.code == 2
            assert "invalid choice: 'milp'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["design", "--help"])
        assert "--backend" not in capsys.readouterr().out

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
        """One cache per directory, shared by the engine, its runner and
        its collector; its ``cache:`` line still counts whole results
        only."""
        from repro.exec import ResultCache

        constructed = []
        init = ResultCache.__init__

        def counting_init(cache, *args, **kwargs):
            constructed.append(cache)
            init(cache, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "__init__", counting_init)
        assert main(["design", "qsort", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert len(constructed) == 1
        assert (
            "cache: 0/1 hits, 1 stores, 0 invalid entries, 0 write errors"
            in out
        )

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


    def test_validate_files_the_collect_entry(self, tmp_path, capsys):
        """``--validate`` simulates the full crossbar itself and files
        that trace as the collect entry, with the digest a plain
        collection stores, so a later plain run simulates nothing and
        prints the same design report."""
        from repro.apps import build_application
        from repro.exec import ResultCache
        from repro.obs import metrics
        from repro.pipeline import ArtifactStore
        from repro.pipeline.collect import collect_key
        from repro.platform import SIMULATION_COUNTER

        def stored_digest(cache):
            store = ArtifactStore(disk=ResultCache(cache))
            return store.get_payload(collect_key(build_application("qsort")))["digest"]

        def collect_events():
            events = metrics.REGISTRY.get("repro_stage_events_total").collect()
            return {kind: events.get(("collect", kind), 0)
                    for kind in ("computed", "disk_hit")}

        validated = str(tmp_path / "validated")
        assert main(["design", "qsort", "--validate", "--cache-dir", validated]) == 0
        design_report = capsys.readouterr().out.split("\nvalidation\n")[0]
        before, runs = collect_events(), SIMULATION_COUNTER.runs
        assert main(["design", "qsort", "--cache-dir", validated]) == 0
        plain = capsys.readouterr().out
        after = collect_events()
        assert after["disk_hit"] - before["disk_hit"] == 1
        assert after["computed"] == before["computed"]
        assert SIMULATION_COUNTER.runs == runs
        assert "cache: 1/1 hits" in plain
        assert _report(plain) == _report(design_report)
        fresh = str(tmp_path / "fresh")
        assert main(["design", "qsort", "--cache-dir", fresh]) == 0
        capsys.readouterr()
        assert stored_digest(validated) == stored_digest(fresh)


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
        stages = {line.split()[1] for line in out.splitlines()
                  if len(line.split()) > 2}
        for stage in ("collect", "window[it]", "conflicts[ti]",
                      "design", "replay", "bind-merged[it]"):
            assert stage in stages
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
        # two bind reuse records and two windowed-tensor npz sidecars
        # (one each per crossbar side), plus the collect stage's payload
        # and npz sidecar; a per-point bind persists no entry of its own
        assert "6 entries" in out

        assert main(["cache", "prune", cache_dir, "--max-bytes", "0"]) == 0
        assert "pruned 6 entries" in capsys.readouterr().out

        assert main(["cache", "stats", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestScenarioPipelineFlags:
    def test_explain_cache_prints_breakdown(self, capsys):
        assert main(["scenarios", "run", "smoke", "--explain-cache"]) == 0
        out = capsys.readouterr().out
        assert "staged-pipeline cache breakdown" in out
        assert "bind-merged" in out
        assert re.search(r"^design +\d+ +\d+ +\d+$", out, re.M)

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
        repeat in the same process prints the same bind-stage count and
        solver counts, not their running sum."""

        def profile():
            assert main(["design", "qsort", "--profile"]) == 0
            out = capsys.readouterr().out
            return _stage_rows(out)["bind"][0], out.split("solves (this run)")[1]

        first = profile()
        assert first[0] == "2"
        assert profile() == first

    def test_profile_stage_rows_partition_the_run(
        self, capsys, tmp_path, monkeypatch
    ):
        """Stage self times plus ``other`` sum to ``total``: a cold
        design, a validated design and a comparison leave little outside
        the stages, and a suite whose application ``collect`` runs
        inside a scenario trace's ``collect`` counts it once."""
        from repro.apps import registry

        # Cold as a fresh process is: no trace simulated earlier.
        monkeypatch.setattr(registry, "_DEFAULT_TRACES", {})
        rounding = 0.1  # ms: every cell is rounded to 0.1 ms
        design = ["design", "qsort", "--cache-dir", str(tmp_path / "d")]
        validate = ["design", "qsort", "--validate", "--cache-dir",
                    str(tmp_path / "v")]
        for argv in (design, validate, ["compare", "qsort"]):
            assert main([*argv, "--profile"]) == 0
            rows = _stage_rows(capsys.readouterr().out)
            total = rows["total"][1]
            other = rows["other"][1]
            assert abs(_stage_ms(rows) + other - total) <= rounding * len(rows)
            assert other <= 0.10 * total, argv

        suite = ["scenarios", "run", "apps", "--cache-dir", str(tmp_path / "s")]
        assert main([*suite, "--profile"]) == 0
        rows = _stage_rows(capsys.readouterr().out)
        assert "collect" in rows
        assert _stage_ms(rows) <= rows["total"][1] + rounding * len(rows)

    def test_serve_parser_accepts_obs_flags(self):
        args = build_parser().parse_args(
            ["serve", "--log-json", "--no-trace"]
        )
        assert args.log_json is True
        assert args.no_trace is True
