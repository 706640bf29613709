"""Cold-chain bench: the five paper apps collected, persisted and windowed.

A cold ``repro design <app> --cache-dir D`` simulates the application
on a full crossbar, hashes and stores the trace (the collect stage's
persist step), then windows both crossbar sides: the
initiator->target side on the trace and the target->initiator side on
its mirror. The trace is one integer matrix plus a stream table from
the kernel onwards, so none of these steps builds a ``TraceRecord``.

``test_columnar_trace_cold_chain`` times that chain in-process for all
five apps, each on a fresh :class:`~repro.exec.ExecutionEngine` over an
empty cache directory with the per-process simulation memo cleared:
what a new process does after its imports. Every round asserts that
each stored digest equals a fresh simulation's, that a second engine on
the filled directory decodes the same digest, and that the design
solved from the stored windows prints the report a cache-less solve
prints. It reports per-app collect and window seconds.
"""

import itertools
import time

from repro.analysis.report import format_synthesis_result
from repro.apps import build_application, registry
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine
from repro.exec.fingerprint import trace_fingerprint
from repro.pipeline.artifacts import CollectedTraffic

from _bench_utils import PAPER_APPS, emit

CONFIG = SynthesisConfig()


def report(app, result):
    return format_synthesis_result(
        result,
        target_names=[target.name for target in app.config.targets],
        initiator_names=list(app.config.initiator_names),
    )


def test_columnar_trace_cold_chain(benchmark, results_dir, tmp_path):
    apps = {name: build_application(name) for name in PAPER_APPS}
    expected = {}
    for name, app in apps.items():
        trace = app.simulate_full_crossbar().trace
        result = ExecutionEngine().synthesize(trace, CONFIG, app.default_window)
        expected[name] = (trace_fingerprint(trace), report(app, result))

    copies = itertools.count()
    seconds = {name: {"collect": [], "window": []} for name in PAPER_APPS}
    chains = {}

    def check_round():
        """The last round's digests and designs against the fresh run."""
        for name, (cache, engine, source) in chains.items():
            app = apps[name]
            assert source.digest == expected[name][0], f"{name}: digest differs"
            result = engine.synthesize(
                source.trace, CONFIG, app.default_window, trace_digest=source.digest
            )
            assert report(app, result) == expected[name][1], f"{name}: report"
            stored = ExecutionEngine(cache=cache).collector.source(app)
            assert trace_fingerprint(stored.trace()) == source.digest
        chains.clear()

    def empty_cache():
        check_round()
        registry._DEFAULT_TRACES.clear()
        return (tmp_path / f"cache{next(copies)}",), {}

    def cold_chain(cache):
        for name, app in apps.items():
            engine = ExecutionEngine(cache=cache)
            begin = time.perf_counter()
            source = engine.collector.source(app)
            collected = CollectedTraffic(source, source.digest, name)
            middle = time.perf_counter()
            for mirrored in (False, True):
                engine.pipeline.window(
                    collected, CONFIG, app.default_window, mirrored
                )
            end = time.perf_counter()
            seconds[name]["collect"].append(middle - begin)
            seconds[name]["window"].append(end - middle)
            chains[name] = (cache, engine, source)

    benchmark.pedantic(cold_chain, setup=empty_cache, rounds=3, iterations=1)
    check_round()

    means = {
        name: {step: sum(runs) / len(runs) for step, runs in steps.items()}
        for name, steps in seconds.items()
    }
    for name, steps in means.items():
        for step, mean in steps.items():
            benchmark.extra_info[f"{name}_{step}_s"] = round(mean, 4)
    total = sum(sum(steps.values()) for steps in means.values())
    emit(
        results_dir,
        "columnar_trace",
        "\n".join(
            ["cold chain per app: collect + persist, both sides' windows"]
            + [
                f"  {name:<5} collect {steps['collect'] * 1e3:7.1f} ms"
                f"  windows {steps['window'] * 1e3:6.1f} ms"
                for name, steps in means.items()
            ]
            + [f"  total {total * 1e3:7.1f} ms (mean of 3 rounds)"]
        ),
    )
