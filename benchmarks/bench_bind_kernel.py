"""Bind-kernel bench: fft's Eq. 11 solve on the kernel and the reference.

The second step of the paper's Sec. 6 flow binds targets to the minimum
bus count so that the maximum per-bus summed overlap (Eq. 11) is
minimal. The default solver is the packed-integer assignment DFS in
:mod:`repro.core.assignment`; ``tests/oracles/assignment_reference.py``
keeps the numpy DFS it replaced as the exactness oracle.

``test_bind_kernel_vs_reference`` solves fft's initiator->target Eq. 11
problem (the seed apps' largest: 19,794 DFS nodes) both ways -- the
kernel timed over five rounds, the reference once -- and requires equal
results, node counts included, and a kernel at least 3.5x faster. It
reports microseconds per DFS node for both.
"""

import time

from repro.apps import build_application
from repro.core import CrossbarSynthesizer, SynthesisConfig
from repro.core.assignment import solve_assignment

from _bench_utils import emit
from tests.oracles.assignment_reference import solve_assignment_reference


def test_bind_kernel_vs_reference(benchmark, results_dir):
    config = SynthesisConfig()
    side = CrossbarSynthesizer(config).design(build_application("fft")).it_report
    args = (side.problem, side.conflicts, side.search.num_buses)
    kwargs = dict(
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=True,
        node_limit=config.node_limit,
    )

    begin = time.perf_counter()
    reference = solve_assignment_reference(*args, **kwargs)
    reference_seconds = time.perf_counter() - begin
    kernel = benchmark.pedantic(
        solve_assignment, args=args, kwargs=kwargs, rounds=5, iterations=1
    )
    kernel_seconds = benchmark.stats.stats.mean

    assert kernel == reference
    assert kernel.nodes == 19_794
    speedup = reference_seconds / kernel_seconds
    assert speedup >= 3.5, f"kernel only {speedup:.2f}x faster than the reference"

    reference_us = reference_seconds / kernel.nodes * 1e6
    kernel_us = kernel_seconds / kernel.nodes * 1e6
    benchmark.extra_info["nodes"] = kernel.nodes
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 4)
    benchmark.extra_info["kernel_vs_reference_speedup"] = round(speedup, 2)
    benchmark.extra_info["kernel_us_per_node"] = round(kernel_us, 3)
    benchmark.extra_info["reference_us_per_node"] = round(reference_us, 3)
    emit(
        results_dir,
        "bind_kernel",
        "\n".join(
            [
                f"fft initiator->target Eq. 11 solve: {kernel.nodes} DFS nodes, "
                f"{side.search.num_buses} buses, objective {kernel.objective}",
                f"  reference : {reference_seconds:.3f}s ({reference_us:.2f} us/node)",
                f"  kernel    : {kernel_seconds:.3f}s ({kernel_us:.2f} us/node), "
                f"{speedup:.1f}x faster",
            ]
        ),
    )
