"""Shared constants and output helpers for the experiment benches."""

import json
import os
from pathlib import Path

from repro.exec import ExecutionEngine

PAPER_APPS = ("mat1", "mat2", "fft", "qsort", "des")

RESULTS_DIR = Path(__file__).parent / "results"

TIMINGS_FILE = RESULTS_DIR / "timings.json"

PRE_KERNEL_REFERENCE_S = {
    # Mean wall-clock of the pure-Python interval pipeline (pre columnar
    # kernels), measured on the reference machine with a cold result
    # cache. The kernel benches report their speedup against
    # these so the bench JSON carries the before/after trajectory.
    "test_fig5a_window_size_sweep": 3.15,
    "test_fig6_overlap_threshold_sweep": 2.20,
}


def note_kernel_speedup(benchmark) -> None:
    """Attach the pre-kernel reference and measured speedup to the bench.

    The values land in ``extra_info`` inside ``results/timings.json``.
    The speedup divides a *reference-machine* pre-kernel wall-clock by
    this host's measured mean, so it conflates host speed with the
    kernel change on any other machine -- ``speedup_basis`` flags that,
    and only same-host runs should be compared across commits.
    """
    reference = PRE_KERNEL_REFERENCE_S.get(benchmark.name)
    if reference is None:
        return
    benchmark.extra_info["pre_kernel_reference_s"] = reference
    benchmark.extra_info["speedup_basis"] = (
        "pre-kernel reference measured on the baseline.json reference "
        "machine; ratio is only meaningful on comparable hosts"
    )
    try:
        mean = benchmark.stats.stats.mean
    except AttributeError:  # stats API shifted; speedup is best-effort
        return
    if mean:
        benchmark.extra_info["kernel_speedup_vs_reference"] = round(
            reference / mean, 2
        )


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a bench's table and persist it under results/."""
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def engine_from_env() -> ExecutionEngine:
    """Execution engine configured from the environment.

    ``REPRO_BENCH_CACHE_DIR`` points at a result cache; unset gives an
    uncached engine, so default timings stay comparable across runs.
    """
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR") or None
    return ExecutionEngine(cache=cache_dir)


def write_timings(entries, path: Path = TIMINGS_FILE) -> None:
    """Persist benchmark timing stats as machine-readable JSON.

    ``entries`` is a list of flat per-bench stat dictionaries (name,
    mean, min, max, rounds, ...). CI archives the file as a per-run
    perf artifact.
    """
    path.parent.mkdir(exist_ok=True)
    payload = {"format": "repro-bench-timings-v1", "benchmarks": list(entries)}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
