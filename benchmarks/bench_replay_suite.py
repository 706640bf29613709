"""Latency-replay bench: cold vs warm replay of the mixed suite.

The cold phase runs the ``mixed`` suite with ``replay_latency=True`` on
a fresh :class:`ScenarioSuiteRunner`: every scenario's trace replays
through the platform simulator on the robust design (the mixed suite is
all profile-backed, so every replay takes the trace-driven path). The
*same* runner then re-runs the suite -- the timed kernel -- and every
replay must come back from the pipeline's replay-artifact store.

This bench doubles as the CI gate for replay caching: it asserts the
warm run performs **zero** fabric simulations (the platform-level
:data:`~repro.platform.soc.SIMULATION_COUNTER`) and still produces a
report byte-identical to the cold run.

``test_replay_kernel_vs_des`` times the simulation underneath a cold
replay: the five ``mixed`` scenario traces replayed on their full
crossbars by the simulation kernel (:mod:`repro.platform.kernel`, the
timed kernel) and by the general DES it mirrors. Latency statistics
must be equal and the kernel at least twice as fast.
"""

import json
import time

from repro.platform import (
    SIMULATION_COUNTER,
    SoC,
    TraceDrivenInitiator,
    full_crossbar_binding,
    simulate_workload,
)
from repro.scenarios import ScenarioSuiteRunner, build_suite

from _bench_utils import emit


def test_replay_suite_warm(benchmark, results_dir):
    suite = build_suite("mixed")
    runner = ScenarioSuiteRunner(replay_latency=True)

    SIMULATION_COUNTER.reset()
    cold_begin = time.perf_counter()
    cold_report = runner.run(suite)
    cold_seconds = time.perf_counter() - cold_begin
    cold_sims = SIMULATION_COUNTER.runs
    assert cold_sims >= len(suite)  # one replay per scenario (plus none hidden)

    SIMULATION_COUNTER.reset()
    warm_report = benchmark.pedantic(
        lambda: runner.run(suite), rounds=1, iterations=1
    )
    warm_sims = SIMULATION_COUNTER.runs

    # CI gate: a warm replay re-simulates nothing...
    assert warm_sims == 0

    # ... and reproduces the cold report byte for byte.
    cold_bytes = json.dumps(cold_report.to_dict(), sort_keys=True)
    warm_bytes = json.dumps(warm_report.to_dict(), sort_keys=True)
    assert warm_bytes == cold_bytes

    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["cold_simulations"] = cold_sims
    benchmark.extra_info["warm_simulations"] = warm_sims
    benchmark.extra_info["warm_vs_cold_speedup"] = (
        round(cold_seconds / warm_seconds, 2) if warm_seconds else None
    )

    latency_rows = "\n".join(
        f"  {outcome.scenario.name:<22} "
        f"{outcome.latency.mean:8.1f} cy over {outcome.latency.count} packets"
        for outcome in warm_report.outcomes
    )
    emit(
        results_dir,
        "replay_suite",
        "\n".join(
            [
                "latency replay of the mixed suite (trace-driven drivers)",
                f"  cold run : {cold_sims} fabric simulations, "
                f"{cold_seconds:.3f}s",
                f"  warm run : {warm_sims} fabric simulations, "
                f"{warm_seconds:.3f}s",
                "",
                "replayed latency of the robust design:",
                latency_rows,
            ]
        ),
    )


def _full_crossbar(trace):
    return (
        full_crossbar_binding(trace.num_targets),
        full_crossbar_binding(trace.num_initiators),
    )


def test_replay_kernel_vs_des(benchmark, results_dir):
    drivers = [
        TraceDrivenInitiator(scenario.build_trace(), label=scenario.name)
        for scenario in build_suite("mixed").scenarios
    ]

    def des_replays():
        results = []
        for driver in drivers:
            soc = SoC(
                driver.platform,
                *_full_crossbar(driver.trace),
                driver.build_programs(),
                start_cycles=driver.start_cycles(),
            )
            results.append(soc.run(driver.sim_cycles))
        return results

    def kernel_replays():
        return [
            simulate_workload(driver, *_full_crossbar(driver.trace))
            for driver in drivers
        ]

    des_begin = time.perf_counter()
    des = des_replays()
    des_seconds = time.perf_counter() - des_begin
    kernel = benchmark.pedantic(kernel_replays, rounds=3, iterations=1)
    kernel_seconds = benchmark.stats.stats.mean

    for reference, replayed in zip(des, kernel):
        assert replayed.latency_stats() == reference.latency_stats()
        assert replayed.latency_stats(critical_only=True) == (
            reference.latency_stats(critical_only=True)
        )
        assert replayed.events == reference.events
    speedup = des_seconds / kernel_seconds
    assert speedup >= 2.0, f"kernel only {speedup:.2f}x faster than the DES"

    events = sum(result.events for result in kernel)
    benchmark.extra_info["des_seconds"] = round(des_seconds, 4)
    benchmark.extra_info["kernel_vs_des_speedup"] = round(speedup, 2)
    benchmark.extra_info["events"] = events
    rows = "\n".join(
        f"  {driver.label:<22} {result.latency_stats().mean:8.1f} cy over "
        f"{result.num_transactions} packets, {result.events} events"
        for driver, result in zip(drivers, kernel)
    )
    emit(
        results_dir,
        "replay_kernel",
        "\n".join(
            [
                "mixed-suite traces replayed on their full crossbars",
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
