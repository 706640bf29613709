"""Command-line interface.

The CLI wraps the library's main entry points for quick exploration::

    python -m repro list
    python -m repro design mat2 --window 1000 --threshold 0.3
    python -m repro compare des --trace spans.jsonl
    python -m repro trace mat2 -o mat2.jsonl
    python -m repro trace spans.jsonl --export-chrome spans.json
    python -m repro sweep-window --burst 1000 --cache-dir .cache
    python -m repro scenarios list
    python -m repro scenarios run smoke --report suite.json
    python -m repro scenarios run smoke --replay-latency --explain-cache
    python -m repro scenarios export mixed -o mixed.json
    python -m repro pipeline inspect mat2 --cache-dir .cache
    python -m repro pipeline inspect mixed --cache-dir .cache
    python -m repro cache stats .cache
    python -m repro cache prune .cache --max-bytes 1000000

All commands print plain-text tables (see :mod:`repro.analysis.report`).
Commands that solve or simulate independent points accept
``--cache-dir`` (content-addressed result cache, reused across
invocations) and route through :class:`repro.exec.ExecutionEngine`.
The same commands accept ``--profile``, which prints the run's growth
of the metrics registry as tables: the pipeline stages' self times
(with ``other`` for the time outside every stage and the run's
``total``), solve counts by kind, assignment DFS nodes per mode and
bind reuses by tier; and
``--trace FILE``, which arms span tracing around the command and writes
the captured spans as JSONL -- feed that file back to ``repro trace``
for an indented tree or a Chrome/Perfetto export.

``repro trace`` is dual-mode on its positional argument: an
application name dumps its traffic trace as JSONL (``-o`` required),
an existing span-JSONL file renders the span tree (optionally
``--export-chrome``).
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401 - argparse's gettext loads it on the first parser
import sys
import threading
import time
from typing import List, Optional

from repro.analysis.report import format_synthesis_result, format_table
from repro.apps import APPLICATIONS, build_application
from repro.core import SynthesisConfig
from repro.errors import ReproError
from repro.exec import ExecutionEngine
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.pipeline.collect import CollectStage
from repro.pipeline.runner import timed_stage

__all__ = ["main", "build_parser"]


def _add_jobs_option(subparser: argparse.ArgumentParser) -> None:
    # Kept, hidden, so existing scripts passing "--jobs 1" still parse.
    subparser.add_argument(
        "--jobs", type=int, choices=[1], default=1, help=argparse.SUPPRESS
    )


def _add_backend_option(subparser: argparse.ArgumentParser) -> None:
    # Kept, hidden, so existing scripts passing "--backend assignment"
    # still parse; the assignment DFS is the only solver.
    subparser.add_argument(
        "--backend", choices=["assignment"], default="assignment",
        help=argparse.SUPPRESS,
    )


def _add_engine_options(subparser: argparse.ArgumentParser) -> None:
    _add_jobs_option(subparser)
    subparser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; repeated runs skip "
        "already-solved points",
    )
    subparser.add_argument(
        "--profile", action="store_true",
        help="print each pipeline stage's self time and share of the "
        "run (plus the time outside every stage), solves, DFS nodes "
        "and bind reuses after the run",
    )
    subparser.add_argument(
        "--trace", dest="trace_out", default=None, metavar="FILE",
        help="arm span tracing for this run and write the captured "
        "spans as JSONL to FILE (inspect with 'repro trace FILE')",
    )


def _format_stages(stages, elapsed: float) -> str:
    """The stage table: each executed stage's computed count, self time
    and share of the run, then ``other`` (the run's time outside every
    stage) and ``total``, so the rows sum to the run's wall time."""
    rows = [
        [stage, count, f"{seconds * 1e3:.1f}", f"{seconds / elapsed:.1%}"]
        for (stage,), (count, seconds) in stages
    ]
    other = elapsed - sum(seconds for _, (_, seconds) in stages)
    rows.append(["other", "", f"{other * 1e3:.1f}", f"{other / elapsed:.1%}"])
    rows.append(["total", "", f"{elapsed * 1e3:.1f}", "100.0%"])
    return format_table(
        ["stage", "computed", "self ms", "share"],
        rows,
        title="pipeline stages (this run)",
    )


class _Profile:
    """Prints one command's share of the metrics registry.

    The registry is monotonic for the process lifetime, so every table
    is the growth (:func:`repro.obs.metrics.growth`) between the
    snapshot taken here and the one taken at :meth:`report`: pipeline
    stage self times (``repro_stage_seconds``), solves by kind
    (``repro_solves_total``), assignment DFS nodes
    (``repro_dfs_nodes_total``) and bind reuses
    (``repro_bind_reuse_total``).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        if enabled:
            self._before = _metrics.REGISTRY.snapshot()
        self._begin = time.perf_counter()

    def report(self) -> None:
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._begin
        after = _metrics.REGISTRY.snapshot()

        def grown(family):
            return sorted(_metrics.growth(self._before, after, family).items())

        print()
        print(_format_stages(grown("repro_stage_seconds"), elapsed))
        solves = [
            [kind, int(count)] for (kind,), count in grown("repro_solves_total")
        ]
        nodes = [
            [mode, int(count)]
            for (mode,), count in grown("repro_dfs_nodes_total")
        ]
        reuses = [
            [tier, int(count)]
            for (tier,), count in grown("repro_bind_reuse_total")
        ]
        tables = (
            ("solves (this run)", ["solve", "count"], solves),
            ("DFS nodes (this run)", ["mode", "nodes"], nodes),
            ("bind reuse (this run)", ["tier", "binds"], reuses),
        )
        for title, headers, rows in tables:
            if rows:
                print()
                print(format_table(headers, rows, title=title))


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Application-specific STbus crossbar generation "
        "(Murali & De Micheli, DATE 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bundled benchmark applications")

    design = sub.add_parser(
        "design", help="run the synthesis flow on an application"
    )
    design.add_argument("app", help="application name (see 'list')")
    design.add_argument(
        "--window", type=int, default=None,
        help="analysis window in cycles (default: app-specific)",
    )
    design.add_argument(
        "--threshold", type=float, default=0.3,
        help="overlap threshold as a fraction of the window (0..0.5)",
    )
    design.add_argument(
        "--maxtb", type=int, default=4,
        help="max targets per bus (0 disables the limit)",
    )
    _add_backend_option(design)
    design.add_argument(
        "--validate", action="store_true",
        help="re-simulate the designed crossbar and report latency",
    )
    _add_engine_options(design)

    compare = sub.add_parser(
        "compare",
        help="evaluate shared / average-traffic / windowed / full designs",
    )
    compare.add_argument("app", help="application name")
    _add_engine_options(compare)

    trace = sub.add_parser(
        "trace",
        help="dump an application's traffic trace, or inspect a span "
        "capture",
        description="Dual-mode: an application name dumps its "
        "full-crossbar traffic trace as JSONL (-o required); an "
        "existing span-JSONL file (from --trace FILE) prints the span "
        "tree and optionally exports Chrome trace-event JSON for "
        "chrome://tracing / Perfetto.",
    )
    trace.add_argument(
        "app",
        help="application name (see 'list') or a span-JSONL file path",
    )
    trace.add_argument(
        "-o", "--output", default=None,
        help="output path (traffic-trace mode only, required there)",
    )
    trace.add_argument(
        "--export-chrome", default=None, metavar="FILE",
        help="span mode: also write Chrome trace-event JSON to FILE",
    )

    sweep = sub.add_parser(
        "sweep-window",
        help="crossbar size vs window size on the synthetic benchmark",
    )
    sweep.add_argument("--burst", type=int, default=1_000)
    sweep.add_argument(
        "--windows", type=int, nargs="+",
        default=[200, 500, 1_000, 2_000, 4_000, 20_000],
    )
    _add_engine_options(sweep)

    scenarios = sub.add_parser(
        "scenarios",
        help="multi-use-case suites: one robust crossbar for many workloads",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command",
                                             required=True)
    scenarios_sub.add_parser(
        "list", help="list the built-in scenario suites"
    )
    run = scenarios_sub.add_parser(
        "run",
        help="synthesize every scenario plus one robust design for a suite",
    )
    run.add_argument(
        "suite",
        help="built-in suite name (see 'scenarios list') or a suite JSON file",
    )
    run.add_argument(
        "--policy", choices=("union", "worst-case", "weighted"),
        default="union", help="conflict/problem merge policy",
    )
    run.add_argument(
        "--min-weight", type=float, default=0.5,
        help="weighted policy: minimum weight fraction for a conflict "
        "pair to survive the merge",
    )
    run.add_argument(
        "--threshold", type=float, default=0.3,
        help="overlap threshold as a fraction of the window (0..0.5)",
    )
    run.add_argument(
        "--maxtb", type=int, default=4,
        help="max targets per bus (0 disables the limit)",
    )
    run.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the aggregated report as JSON",
    )
    run.add_argument(
        "--replay-latency", action="store_true",
        help="also replay the robust design through the platform "
        "simulator for every scenario (live programs for full-load "
        "app scenarios, trace-driven replay for profile-backed, "
        "load-scaled and thinned ones) and report average latency",
    )
    run.add_argument(
        "--explain-cache", action="store_true",
        help="print the per-stage computed/memo-hit/disk-hit breakdown "
        "of the staged pipeline after the run",
    )
    _add_engine_options(run)
    export = scenarios_sub.add_parser(
        "export", help="write a built-in suite as an editable JSON file"
    )
    export.add_argument("suite", help="built-in suite name")
    export.add_argument("-o", "--output", required=True, help="output path")

    pipeline = sub.add_parser(
        "pipeline",
        help="the staged synthesis flow: inspect stage artifacts",
    )
    pipeline_sub = pipeline.add_subparsers(dest="pipeline_command",
                                           required=True)
    inspect = pipeline_sub.add_parser(
        "inspect",
        help="run the staged flow on an application or a scenario suite "
        "and print every stage artifact with its content-addressed "
        "fingerprint (suites get the per-scenario DAG, including the "
        "latency-replay stage)",
    )
    inspect.add_argument(
        "app",
        help="application name (see 'list'), built-in suite name "
        "(see 'scenarios list') or a suite JSON file",
    )
    inspect.add_argument(
        "--window", type=int, default=None,
        help="analysis window in cycles (default: app-specific)",
    )
    inspect.add_argument(
        "--threshold", type=float, default=0.3,
        help="overlap threshold as a fraction of the window (0..0.5)",
    )
    inspect.add_argument(
        "--maxtb", type=int, default=4,
        help="max targets per bus (0 disables the limit)",
    )
    _add_backend_option(inspect)
    inspect.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist serializable stage artifacts here; a repeated "
        "inspect reuses the solved binding stages",
    )

    cache = sub.add_parser(
        "cache", help="maintain a result/stage cache directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry count and on-disk bytes of a cache directory"
    )
    cache_stats.add_argument("cache_dir", metavar="DIR")
    cache_prune = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used entries down to a byte budget",
    )
    cache_prune.add_argument("cache_dir", metavar="DIR")
    cache_prune.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="keep evicting oldest-used entries until the cache fits N bytes",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived synthesis daemon (HTTP/JSON API)",
        description="Serve synthesis jobs over HTTP: async job queue, "
        "request coalescing by content address, cache-backed warm "
        "paths. See docs/http-api.md for the endpoint reference.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8321, metavar="PORT",
        help="listen port (0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job slots in the queue",
    )
    _add_jobs_option(serve)
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result/stage cache; warm requests answer without "
        "re-solving, even across daemon restarts",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per request/job transition to "
        "stderr (machine-readable; default is plain text)",
    )
    serve.add_argument(
        "--no-trace", action="store_true",
        help="disable span tracing (enabled by default; traces are "
        "served at GET /v1/jobs/<id>/trace)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="fail any job that runs longer than this wall-clock bound "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--finished-ttl", type=float, default=None, metavar="SECONDS",
        help="evict finished jobs from the registries after this long; "
        "the whole-result cache still answers warmly (default: keep "
        "forever)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="shed new requests with 503 + Retry-After once N jobs are "
        "queued (default: unbounded)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="install a deterministic fault-injection plan (inline JSON "
        "or a path to a JSON file) for chaos testing; exported to "
        "child processes via REPRO_FAULTS",
    )
    return parser


def _cmd_list() -> int:
    rows = []
    for name in sorted(APPLICATIONS):
        app = build_application(name)
        rows.append(
            [name, app.num_initiators, app.num_targets, app.num_cores,
             app.description]
        )
    print(
        format_table(
            ["name", "initiators", "targets", "cores", "description"], rows
        )
    )
    return 0


def _config_from_args(args) -> SynthesisConfig:
    return SynthesisConfig(
        window_size=args.window,
        overlap_threshold=args.threshold,
        max_targets_per_bus=args.maxtb or None,
    )


def _engine_from_args(args) -> ExecutionEngine:
    return ExecutionEngine(cache=args.cache_dir)


def _cmd_design(args) -> int:
    app = build_application(args.app)
    engine = _engine_from_args(args)
    config = _config_from_args(args)
    profile = _Profile(args.profile)
    print(f"designing crossbars for {app.name} ({app.num_cores} cores) ...")
    if args.validate:
        # The reference latencies need the full-crossbar run itself,
        # which is this run's collection.
        def collect():
            run = app.simulate_full_crossbar()
            return run, engine.collector.record(app, run.trace)

        full_run, source = timed_stage("collect", "", collect)
    else:
        # Input-keyed: a warm cache answers without simulating, and a
        # whole-result hit, or a point whose windows are stored (a
        # threshold edit), without even loading the stored trace.
        source = engine.collector.source(app)
    result = engine.synthesize(
        source.trace,
        config,
        window_size=args.window or app.default_window,
        trace_digest=source.digest,
    )
    print(
        format_synthesis_result(
            result,
            target_names=source.target_names,
            initiator_names=source.initiator_names,
        )
    )
    if args.validate:
        full_stats = full_run.latency_stats()
        designed_stats = engine.pipeline.replay(
            app.driver(), result.design, app.sim_cycles * 4
        ).stats
        print(
            format_table(
                ["design", "buses", "avg lat (cy)", "max lat (cy)"],
                [
                    ["full", app.num_cores, full_stats.mean,
                     full_stats.maximum],
                    ["designed", result.design.bus_count,
                     designed_stats.mean, designed_stats.maximum],
                ],
                title="\nvalidation",
            )
        )
    if engine.cache is not None:
        print(f"cache: {engine.cache.stats}")
    profile.report()
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.compare import compare_designs
    from repro.core.baselines import (
        average_traffic_design,
        full_crossbar_design,
        shared_bus_design,
    )

    app = build_application(args.app)
    engine = _engine_from_args(args)
    profile = _Profile(args.profile)

    def collect():
        # Input-keyed, as in ``design``: a warm cache loads the stored
        # trace instead of simulating it.
        source = engine.collector.source(app)
        return source.trace(), source.digest

    trace, digest = timed_stage("collect", "", collect)
    windowed = engine.synthesize(
        trace,
        SynthesisConfig(),
        window_size=app.default_window,
        trace_digest=digest,
    ).design
    designs = [
        shared_bus_design(trace),
        average_traffic_design(trace, pipeline=engine.pipeline),
        windowed,
        full_crossbar_design(trace),
    ]
    evaluations = compare_designs(app, designs, pipeline=engine.pipeline)
    full_stats = evaluations["full"].stats
    rows = [
        [
            label,
            evaluations[label].bus_count,
            evaluations[label].stats.mean,
            evaluations[label].stats.maximum,
            evaluations[label].stats.mean / full_stats.mean,
        ]
        for label in ("shared", "average-traffic", "windowed", "full")
    ]
    print(
        format_table(
            ["design", "buses", "avg lat (cy)", "max lat (cy)", "avg vs full"],
            rows,
            title=f"design comparison on {app.name}",
        )
    )
    profile.report()
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    if args.app not in APPLICATIONS and Path(args.app).exists():
        return _cmd_trace_spans(args)
    from repro.errors import ConfigurationError

    if args.output is None:
        raise ConfigurationError(
            "trace: -o/--output is required when dumping an "
            "application's traffic trace (span mode needs an existing "
            "span-JSONL file instead)"
        )
    from repro.traffic.io import save_trace_jsonl

    app = build_application(args.app)
    result = app.simulate_full_crossbar()
    save_trace_jsonl(result.trace, args.output)
    print(
        f"wrote {len(result.trace)} records "
        f"({result.trace.total_cycles} cycles) to {args.output}"
    )
    return 0


def _cmd_trace_spans(args) -> int:
    """Span mode of ``repro trace``: render/export a span capture."""
    from repro.errors import ConfigurationError
    from repro.obs import export as _export

    try:
        spans = _export.load_jsonl(args.app)
    except (ValueError, KeyError, TypeError) as error:
        raise ConfigurationError(
            f"{args.app} is not a span-JSONL file: {error}"
        )
    traces = sorted({span.trace_id for span in spans})
    print(
        f"{len(spans)} span(s) across {len(traces)} trace(s) "
        f"from {args.app}"
    )
    print()
    print(_export.format_span_tree(spans))
    if args.export_chrome:
        events = _export.write_chrome_trace(spans, args.export_chrome)
        print(
            f"\nwrote {events} Chrome trace events to "
            f"{args.export_chrome} (open in chrome://tracing or "
            f"https://ui.perfetto.dev)"
        )
    return 0


def _cmd_sweep_window(args) -> int:
    from repro.analysis.sweep import window_size_sweep
    from repro.apps.synthetic import synthetic_trace

    engine = _engine_from_args(args)
    profile = _Profile(args.profile)
    trace = synthetic_trace(
        burst_cycles=args.burst, total_cycles=max(80_000, args.burst * 40)
    )
    points = window_size_sweep(
        trace,
        args.windows,
        SynthesisConfig(max_targets_per_bus=None),
        engine=engine,
    )
    print(
        format_table(
            ["window (cy)", "IT buses", "TI buses", "total"],
            [
                [int(point.value), point.it_buses, point.ti_buses,
                 point.total_buses]
                for point in points
            ],
            title=f"window sweep (synthetic, burst ~{args.burst} cy)",
        )
    )
    if engine.cache is not None:
        print(f"cache: {engine.cache.stats}")
    profile.report()
    return 0


def _resolve_suite(name: str):
    """A built-in suite by name, or a suite loaded from a JSON file."""
    from pathlib import Path

    from repro.scenarios import SUITES, build_suite, load_suite

    if name in SUITES:
        return build_suite(name)
    if Path(name).exists():
        return load_suite(name)
    return build_suite(name)  # raises with the list of known suites


def _cmd_scenarios_list() -> int:
    from repro.scenarios import SUITES, build_suite

    rows = []
    for name in sorted(SUITES):
        suite = build_suite(name)
        rows.append([name, len(suite), suite.description])
    print(format_table(["suite", "scenarios", "description"], rows))
    return 0


def _cmd_scenarios_run(args) -> int:
    from repro.scenarios import ScenarioSuiteRunner

    suite = _resolve_suite(args.suite)
    engine = _engine_from_args(args)
    profile = _Profile(args.profile)
    config = SynthesisConfig(
        overlap_threshold=args.threshold,
        max_targets_per_bus=args.maxtb or None,
    )
    print(
        f"running scenario suite '{suite.name}' "
        f"({len(suite)} scenarios, policy={args.policy}) ..."
    )
    runner = ScenarioSuiteRunner(
        engine=engine,
        config=config,
        policy=args.policy,
        min_weight=args.min_weight,
        replay_latency=args.replay_latency,
    )
    report = runner.run(suite)
    print(report.summary())
    if args.explain_cache:
        print()
        print("staged-pipeline cache breakdown:")
        print(runner.explain_cache())
    if args.report:
        import json

        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote aggregated JSON report to {args.report}")
    if engine.cache is not None:
        print(f"cache: {engine.cache.stats}")
    profile.report()
    return 0


def _cmd_scenarios_export(args) -> int:
    from repro.scenarios import build_suite, save_suite

    suite = build_suite(args.suite)
    save_suite(suite, args.output)
    print(f"wrote suite '{suite.name}' ({len(suite)} scenarios) to {args.output}")
    return 0


def _cmd_pipeline_inspect_suite(args) -> int:
    from repro.errors import ConfigurationError
    from repro.scenarios import ScenarioSuiteRunner

    if args.window is not None:
        raise ConfigurationError(
            "--window applies to single-application inspection only; "
            "suite scenarios carry their own analysis windows "
            "(edit the suite's window_size fields instead)"
        )
    suite = _resolve_suite(args.app)
    engine = ExecutionEngine(cache=args.cache_dir)
    config = SynthesisConfig(
        overlap_threshold=args.threshold,
        max_targets_per_bus=args.maxtb or None,
    )
    # Replay is part of the suite's stage DAG: inspect always runs it so
    # the replay stage rows (and their cache behaviour) are visible.
    runner = ScenarioSuiteRunner(
        engine=engine, config=config, replay_latency=True
    )
    print(
        f"running the staged suite flow for '{suite.name}' "
        f"({len(suite)} scenarios, with latency replay) ..."
    )
    runner.run(suite)
    rows = [
        [scenario, stage, fingerprint[:12], summary]
        for scenario, stage, fingerprint, summary in runner.last_stage_rows
    ]
    print(
        format_table(
            ["scenario", "stage", "fingerprint", "artifact"],
            rows,
            title=f"per-scenario stage DAG for suite '{suite.name}'",
        )
    )
    print()
    print(runner.explain_cache())
    return 0


def _cmd_pipeline_inspect(args) -> int:
    from pathlib import Path

    from repro.exec.cache import ResultCache
    from repro.pipeline import (
        ArtifactStore,
        CollectedTraffic,
        PipelineRunner,
        describe_stages,
    )
    from repro.pipeline.artifacts import TraceDigestMismatch
    from repro.pipeline.store import format_stage_tables, stage_tables
    from repro.scenarios import SUITES

    if args.app not in APPLICATIONS and (
        args.app in SUITES or Path(args.app).exists()
    ):
        return _cmd_pipeline_inspect_suite(args)
    app = build_application(args.app)
    config = _config_from_args(args)
    disk = ResultCache(args.cache_dir) if args.cache_dir else None
    runner = PipelineRunner(store=ArtifactStore(disk=disk))
    window = args.window or app.default_window
    print(
        f"running the staged flow for {app.name} "
        f"(window {window}, threshold {config.overlap_threshold:.0%}) ..."
    )
    # The breakdown below is this run's share of the registry's stage
    # tallies: collection shows whether it simulated (computed) or read
    # (disk-hit).
    before = _metrics.REGISTRY.snapshot()
    source = CollectStage(runner.store).source(app)

    def design():
        collected = CollectedTraffic(source, source.digest, label=app.name)
        return runner.design(collected, config, window, label=app.name)

    try:
        outcome = design()
    except TraceDigestMismatch:
        # The stored digest was stale: the source now carries the
        # re-collected trace's own.
        outcome = design()
    rows = [
        [stage, fingerprint[:12], summary]
        for stage, fingerprint, summary in describe_stages(outcome)
    ]
    print(
        format_table(
            ["stage", "fingerprint", "artifact"],
            rows,
            title=f"stage artifacts for {app.name}",
        )
    )
    print()
    print(format_stage_tables(stage_tables(before)))
    return 0


def _cmd_pipeline(args) -> int:
    if args.pipeline_command == "inspect":
        return _cmd_pipeline_inspect(args)
    raise AssertionError(
        f"unhandled pipeline command {args.pipeline_command!r}"
    )


def _cmd_cache(args) -> int:
    from repro.exec.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        print(f"cache {cache.cache_dir}: {cache.usage()}")
        return 0
    if args.cache_command == "prune":
        removed = cache.prune(args.max_bytes)
        print(
            f"pruned {removed} entries; cache {cache.cache_dir} now holds "
            f"{cache.usage()}"
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_scenarios(args) -> int:
    if args.scenarios_command == "list":
        return _cmd_scenarios_list()
    if args.scenarios_command == "run":
        return _cmd_scenarios_run(args)
    if args.scenarios_command == "export":
        return _cmd_scenarios_export(args)
    raise AssertionError(f"unhandled scenarios command {args.scenarios_command!r}")


def _cmd_serve(args) -> int:
    import gc
    import signal

    from repro.server import serve as start_server

    if args.faults:
        from repro.resilience import install_from_spec

        plan = install_from_spec(args.faults)
        print(
            f"repro serve: fault injection ACTIVE "
            f"(seed={plan.seed}, points={', '.join(sorted(plan.rules))})"
        )

    # Everything alive now (modules, classes, registries) lives as long
    # as the daemon: freeze it, so the collector's full passes over
    # request-time garbage never re-walk it.
    gc.freeze()
    server = start_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.workers,
        verbose=args.verbose,
        job_timeout=args.job_timeout,
        finished_ttl=args.finished_ttl,
        max_queue_depth=args.max_queue_depth,
        trace=not args.no_trace,
        log_json=args.log_json,
    )
    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    # SIGINT/SIGTERM both mean "drain and exit"; a second Ctrl-C during
    # the drain falls through to KeyboardInterrupt and exits hard.
    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    print(f"repro serve: listening on {server.address}")
    print(f"  workers={args.workers} cache={args.cache_dir or '(none)'}")
    try:
        stop.wait()
        print("repro serve: draining queue ...")
        server.stop(drain=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("repro serve: stopped")
    return 0


def _captured_trace(args, run) -> int:
    """Run a command with span tracing armed; export spans as JSONL.

    The capture gets a synthetic ``cli.<command>`` root so every span
    recorded during the run hangs off one tree in the export.
    """
    from repro.obs import export as _export

    armed_here = not _tracing.tracing_enabled()
    if armed_here:
        _tracing.arm_tracing()
    try:
        with _tracing.root_span(f"cli.{args.command}"):
            code = run(args)
        count = _export.write_jsonl(
            _tracing.collect_spans(), args.trace_out
        )
        print(
            f"wrote {count} span(s) to {args.trace_out} "
            f"(inspect with 'repro trace {args.trace_out}')"
        )
    finally:
        if armed_here:
            _tracing.disarm_tracing()
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": lambda _args: _cmd_list(),
        "design": _cmd_design,
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "sweep-window": _cmd_sweep_window,
        "scenarios": _cmd_scenarios,
        "pipeline": _cmd_pipeline,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
    }
    handler = handlers.get(args.command)
    if handler is None:
        raise AssertionError(f"unhandled command {args.command!r}")
    try:
        if getattr(args, "trace_out", None):
            return _captured_trace(args, handler)
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
