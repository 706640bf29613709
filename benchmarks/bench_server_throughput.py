"""Server throughput bench: warm vs cold request latency over HTTP.

The bench stands up a real ``repro serve`` daemon (in-process threads,
real sockets, a temporary cache directory) and measures three request
paths end to end:

* **cold** -- first design request for a fingerprint: full pipeline
  solve on a worker thread;
* **warm** -- the identical request resubmitted: answered from the
  finished-job registry / whole-result cache without queueing a solve;
* **coalesced burst** -- N identical requests submitted concurrently
  against a fresh fingerprint: single-flight admission shares ONE
  solve across all of them (asserted via the solver-invocation
  counter).

The timed kernel is the warm path -- the daemon's steady-state answer
latency -- and the CI gate asserts warm stays well under cold, i.e.
that the coalescing/caching layers actually short-circuit the solver.

A second bench (``test_server_fault_injected_burst``) times the same
coalesced-burst shape against a daemon whose cache writes fail on
every first attempt (a seeded ``repro.resilience`` plan): the cost of
failed write -> retried write, end to end over HTTP, with the answer
asserted byte-identical to a fault-free daemon's.
"""

import json
import tempfile
import threading
import time
import urllib.request

from repro.core import SOLVE_COUNTER

from _bench_utils import emit


def _post(base, payload):
    request = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}") as response:
        return json.loads(response.read())


def _submit_and_wait(base, payload):
    job = _post(base, payload)["job"]
    done = _get(base, f"/v1/jobs/{job}?wait=120")
    assert done["state"] == "done", done.get("error")
    return done


def test_server_throughput(benchmark, results_dir):
    from repro.server import SynthesisServer

    with tempfile.TemporaryDirectory() as cache_dir:
        server = SynthesisServer(port=0, cache_dir=cache_dir, workers=2)
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            cold_request = {"kind": "design", "app": "qsort"}

            SOLVE_COUNTER.reset()
            cold_begin = time.perf_counter()
            _submit_and_wait(base, cold_request)
            cold_seconds = time.perf_counter() - cold_begin
            cold_solves = SOLVE_COUNTER.total
            assert cold_solves > 0

            # Warm path: identical request, no solver work.
            SOLVE_COUNTER.reset()
            warm = benchmark.pedantic(
                lambda: _submit_and_wait(base, cold_request),
                rounds=5,
                iterations=1,
            )
            assert warm["state"] == "done"
            assert SOLVE_COUNTER.total == 0

            # Coalesced burst against a fresh fingerprint: N concurrent
            # identical submissions, ONE solve.
            burst_request = {
                "kind": "design", "app": "qsort", "threshold": 0.25,
            }
            SOLVE_COUNTER.reset()
            burst = 8
            job_ids = []
            lock = threading.Lock()

            def submit():
                response = _post(base, burst_request)
                with lock:
                    job_ids.append(response["job"])

            burst_begin = time.perf_counter()
            threads = [
                threading.Thread(target=submit) for _ in range(burst)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(job_ids)) == 1  # every submitter shares one job
            done = _get(base, f"/v1/jobs/{job_ids[0]}?wait=120")
            burst_seconds = time.perf_counter() - burst_begin
            assert done["state"] == "done"
            burst_solves = SOLVE_COUNTER.total
            # The acceptance property: the burst cost one request's
            # solves, not eight requests' worth.
            assert burst_solves == cold_solves

            stats = _get(base, "/v1/stats")
            assert stats["coalescing"]["coalesced"] >= burst - 1
        finally:
            server.stop()

    warm_mean = benchmark.stats.stats.mean
    # CI gate: the warm path must short-circuit the solver. Cold runs
    # a full pipeline solve; warm answers from the finished-job
    # registry, so an order-of-magnitude gap is expected -- gate at 2x
    # to stay robust against scheduler noise on slow CI hosts.
    assert warm_mean < cold_seconds / 2, (
        f"warm request mean {warm_mean:.4f}s not well under cold "
        f"{cold_seconds:.4f}s"
    )

    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["cold_solves"] = cold_solves
    benchmark.extra_info["burst_size"] = burst
    benchmark.extra_info["burst_seconds"] = round(burst_seconds, 4)
    benchmark.extra_info["burst_solves"] = burst_solves
    benchmark.extra_info["warm_over_cold"] = round(
        warm_mean / cold_seconds, 4
    )

    emit(
        results_dir,
        "server_throughput",
        "\n".join(
            [
                "repro serve request paths (design qsort)",
                f"  cold solve        {cold_seconds * 1e3:9.1f} ms "
                f"({cold_solves} solver calls)",
                f"  warm request      {warm_mean * 1e3:9.1f} ms "
                "(0 solver calls)",
                f"  coalesced burst   {burst_seconds * 1e3:9.1f} ms "
                f"({burst} submitters, {burst_solves} solver calls)",
            ]
        ),
    )


def test_server_multi_fingerprint_burst(benchmark, results_dir):
    """Disk-tier SLO: a burst of design requests that differ only in
    overlap threshold.

    Threshold lives in the *conflict* stage spec, so these requests
    share window-stage fingerprints while remaining distinct jobs with
    distinct solves. The timed kernel is the warm burst: K
    fresh-threshold requests against a daemon whose cache directory
    already holds the window tensors as ``.npz`` sidecars. The gates:

    * zero re-windowing on the warm burst -- every job's ``window``
      progress row shows ``disk_hit`` (2 per job: both crossbar sides)
      and no ``computed``;
    * every warm report byte-identical to a fresh daemon's answering
      the same thresholds cold;
    * the warm burst is not slower than that cold burst.
    """
    from repro.server import SynthesisServer

    cold_thresholds = (0.10, 0.20, 0.30, 0.40)
    warm_thresholds = (0.15, 0.25, 0.35, 0.45)

    def burst(base, thresholds):
        """Submit one design request per threshold concurrently."""
        payloads = {}
        lock = threading.Lock()

        def one(threshold):
            done = _submit_and_wait(
                base,
                {"kind": "design", "app": "qsort", "threshold": threshold},
            )
            with lock:
                payloads[threshold] = done

        threads = [
            threading.Thread(target=one, args=(t,)) for t in thresholds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return payloads

    def window_tallies(payloads):
        totals = {"computed": 0, "memo_hit": 0, "disk_hit": 0}
        for done in payloads.values():
            row = done.get("progress", {}).get("window", {})
            for kind in totals:
                totals[kind] += row.get(kind, 0)
        return totals

    def reports(payloads):
        return {
            threshold: json.dumps(done["result"], sort_keys=True)
            for threshold, done in payloads.items()
        }

    with tempfile.TemporaryDirectory() as cache_dir:
        server = SynthesisServer(port=0, cache_dir=cache_dir, workers=2)
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            cold_begin = time.perf_counter()
            cold = burst(base, cold_thresholds)
            cold_seconds = time.perf_counter() - cold_begin
            cold_windows = window_tallies(cold)
            # Concurrent cold jobs may each window the trace before the
            # first sidecar lands; every lookup is accounted either way.
            assert cold_windows["computed"] >= 2, cold_windows
            assert (
                cold_windows["computed"] + cold_windows["disk_hit"]
                == 2 * len(cold_thresholds)
            ), cold_windows

            warm = benchmark.pedantic(
                lambda: burst(base, warm_thresholds),
                rounds=1,
                iterations=1,
            )
            warm_seconds = benchmark.stats.stats.mean
            warm_windows = window_tallies(warm)
            # The acceptance property: zero re-windowing on the warm
            # burst -- every window served by its .npz sidecar.
            assert warm_windows["computed"] == 0, warm_windows
            assert warm_windows["disk_hit"] == 2 * len(warm_thresholds)
            warm_reports = reports(warm)
        finally:
            server.stop()

    # Reference: a fresh daemon on an empty cache answers the same
    # thresholds cold. Reports must be byte-identical.
    with tempfile.TemporaryDirectory() as cache_dir:
        server = SynthesisServer(port=0, cache_dir=cache_dir, workers=2)
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            fresh_begin = time.perf_counter()
            fresh = burst(base, warm_thresholds)
            fresh_seconds = time.perf_counter() - fresh_begin
            assert window_tallies(fresh)["computed"] >= 2
        finally:
            server.stop()
    for threshold, report in reports(fresh).items():
        assert warm_reports[threshold] == report, (
            f"report for threshold {threshold} diverged"
        )

    # SLO: reading sidecars must not lose to re-windowing (a generous
    # bound -- solver time dominates both sides; the real teeth are
    # the zero-re-windowing tallies above).
    assert warm_seconds < max(fresh_seconds, 0.05) * 1.5, (
        f"warm burst {warm_seconds:.4f}s vs fresh daemon "
        f"{fresh_seconds:.4f}s"
    )

    benchmark.extra_info["burst_size"] = len(warm_thresholds)
    benchmark.extra_info["cold_burst_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["fresh_burst_seconds"] = round(fresh_seconds, 4)
    benchmark.extra_info["cold_window_computed"] = cold_windows["computed"]
    benchmark.extra_info["warm_window_disk_hits"] = warm_windows["disk_hit"]

    emit(
        results_dir,
        "server_multi_fingerprint_burst",
        "\n".join(
            [
                "repro serve multi-fingerprint burst (design qsort, "
                f"{len(warm_thresholds)} thresholds/burst)",
                f"  cold burst        {cold_seconds * 1e3:9.1f} ms "
                f"({cold_windows['computed']} windows computed)",
                f"  warm burst        {warm_seconds * 1e3:9.1f} ms "
                f"({warm_windows['disk_hit']} npz sidecar hits, "
                "0 re-windowed)",
                f"  fresh daemon      {fresh_seconds * 1e3:9.1f} ms "
                "(same thresholds, cold)",
                "  warm reports byte-identical to the fresh daemon's",
            ]
        ),
    )


def test_server_fault_injected_burst(benchmark, results_dir):
    """Chaos burst: coalesced suite solve under injected write failures.

    Every cache write's *first* attempt raises a transient ``OSError``
    (seeded ``io.transient`` plan, match ``*:a0``), so the timed request
    pays a retried write for every result it stores -- and must still
    return a report byte-identical to a fault-free daemon's. The gate is
    correctness-under-chaos plus the faults being *visible* (fired
    tallies in ``/v1/stats``); the timing records what recovery costs
    end to end over HTTP.
    """
    from repro.resilience import (
        FaultPlan,
        FaultRule,
        clear_plan,
        install_plan,
    )
    from repro.server import SynthesisServer

    # A suite job stores one result per scenario plus its stage
    # entries, so every one of those writes meets the fault.
    request = {"kind": "suite", "suite": "smoke"}

    # Fault-free reference: the same request on a clean daemon.
    with tempfile.TemporaryDirectory() as cache_dir:
        server = SynthesisServer(port=0, cache_dir=cache_dir, workers=2)
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            clean_begin = time.perf_counter()
            clean = _submit_and_wait(base, request)
            clean_seconds = time.perf_counter() - clean_begin
        finally:
            server.stop()
    clean_bytes = json.dumps(clean["result"], sort_keys=True)

    install_plan(
        FaultPlan(
            seed=7,
            rules={"io.transient": FaultRule(rate=1.0, match=("*:a0",))},
        )
    )
    try:
        with tempfile.TemporaryDirectory() as cache_dir:
            server = SynthesisServer(port=0, cache_dir=cache_dir, workers=2)
            server.start()
            base = f"http://127.0.0.1:{server.server_address[1]}"
            try:
                burst = 6
                lock = threading.Lock()

                def chaos_burst():
                    job_ids = []

                    def submit():
                        response = _post(base, request)
                        with lock:
                            job_ids.append(response["job"])

                    threads = [
                        threading.Thread(target=submit)
                        for _ in range(burst)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    assert len(set(job_ids)) == 1  # still single-flight
                    done = _get(base, f"/v1/jobs/{job_ids[0]}?wait=120")
                    assert done["state"] == "done", done.get("error")
                    return done

                done = benchmark.pedantic(
                    chaos_burst, rounds=1, iterations=1
                )
                # The acceptance property: chaos may cost latency, never
                # answers.
                assert json.dumps(done["result"], sort_keys=True) == (
                    clean_bytes
                )

                stats = _get(base, "/v1/stats")
                assert stats["coalescing"]["coalesced"] >= burst - 1
                faults = stats["faults"]
                assert faults is not None
                assert faults["points"] == ["io.transient"]
                assert faults["seed"] == 7
                # Every stored result failed once and landed on retry.
                fired = faults["fired"]["io.transient"]
                assert stats["cache"]["stores"] >= 1
                assert fired >= stats["cache"]["stores"]
                assert stats["cache"]["write_errors"] == 0
            finally:
                server.stop()
    finally:
        clear_plan()

    chaos_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["clean_seconds"] = round(clean_seconds, 4)
    benchmark.extra_info["burst_size"] = burst
    benchmark.extra_info["faults_fired"] = fired
    benchmark.extra_info["fault_points"] = faults["points"]
    benchmark.extra_info["chaos_over_clean"] = round(
        chaos_seconds / clean_seconds, 4
    )

    emit(
        results_dir,
        "server_fault_injected_burst",
        "\n".join(
            [
                "repro serve chaos burst (suite smoke, fail-first-write"
                " plan)",
                f"  fault-free solve  {clean_seconds * 1e3:9.1f} ms",
                f"  chaos burst       {chaos_seconds * 1e3:9.1f} ms "
                f"({burst} submitters, {fired} failed writes retried)",
                "  report byte-identical to the fault-free daemon's",
            ]
        ),
    )
