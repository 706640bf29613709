"""Trace-collection bench: the five seed apps on the kernel and the DES.

The paper's flow starts from each application's traffic trace,
collected by simulating its programs on a full crossbar. That
collection runs on the simulation kernel (:mod:`repro.platform.kernel`)
behind :meth:`Application.simulate_full_crossbar
<repro.apps.descriptor.Application.simulate_full_crossbar>`; the
general DES (:class:`~repro.platform.SoC`) it mirrors is the reference.

``test_program_kernel_vs_des`` collects all five traces both ways --
the kernel timed over three rounds, the DES once -- and requires equal
trace fingerprints, equal event counts and a kernel at least 2.5x
faster. It reports microseconds per simulated event for both.
"""

import time

from repro.apps import build_application
from repro.exec.fingerprint import trace_fingerprint
from repro.platform import SoC, full_crossbar_binding

from _bench_utils import PAPER_APPS, emit


def test_program_kernel_vs_des(benchmark, results_dir):
    apps = [build_application(name) for name in PAPER_APPS]

    def des_collections():
        results = []
        for app in apps:
            soc = SoC(
                app.config,
                full_crossbar_binding(app.num_targets),
                full_crossbar_binding(app.num_initiators),
                app.build_programs(),
            )
            result = soc.run(app.sim_cycles)
            result.trace  # collection keeps the trace: build it
            results.append(result)
        return results

    def kernel_collections():
        results = []
        for app in apps:
            result = app.simulate_full_crossbar()
            result.trace
            results.append(result)
        return results

    des_begin = time.perf_counter()
    des = des_collections()
    des_seconds = time.perf_counter() - des_begin
    kernel = benchmark.pedantic(kernel_collections, rounds=3, iterations=1)
    kernel_seconds = benchmark.stats.stats.mean

    for reference, collected in zip(des, kernel):
        assert trace_fingerprint(collected.trace) == trace_fingerprint(reference.trace)
        assert collected.events == reference.events
    speedup = des_seconds / kernel_seconds
    assert speedup >= 2.5, f"kernel only {speedup:.2f}x faster than the DES"

    events = sum(result.events for result in kernel)
    benchmark.extra_info["des_seconds"] = round(des_seconds, 4)
    benchmark.extra_info["kernel_vs_des_speedup"] = round(speedup, 2)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["kernel_us_per_event"] = round(
        kernel_seconds / events * 1e6, 3
    )
    rows = "\n".join(
        f"  {app.name:<6} {result.num_transactions:6d} transactions, "
        f"{result.events:7d} events"
        for app, result in zip(apps, kernel)
    )
    emit(
        results_dir,
        "collect_kernel",
        "\n".join(
            [
                "five seed apps collected on their full crossbars",
                f"  DES    : {des_seconds:.3f}s "
                f"({des_seconds / events * 1e6:.2f} us/event)",
                f"  kernel : {kernel_seconds:.3f}s "
                f"({kernel_seconds / events * 1e6:.2f} us/event), "
                f"{speedup:.1f}x faster",
                "",
                rows,
            ]
        ),
    )
