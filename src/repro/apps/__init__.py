"""Benchmark application suite (MPARM benchmark stand-ins).

Five MPSoC applications reconstruct the traffic structure of the paper's
benchmarks, with matching core counts (N ARM initiators, N private
memories, one shared memory, one semaphore memory, one interrupt device
-- 2N + 3 cores):

=========  ====  ==========  =========================================
benchmark  ARMs  total cores  traffic character
=========  ====  ==========  =========================================
Mat1       11    25          pipelined matmul, 4 temporal stages
Mat2        9    21          pipelined matmul, 3 temporal stages
FFT        13    29          data-parallel butterfly stages, heavy
                             synchronized bursts (hard to compact)
QSort       6    15          desynchronized divide-and-conquer phases
DES         8    19          block pipeline with round-key exchanges
=========  ====  ==========  =========================================

Every application is an :class:`~repro.apps.descriptor.Application`: a
platform description plus per-core program builders, directly consumable
by :class:`repro.platform.SoC` and the synthesis flow.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.apps.descriptor": ("Application", "standard_platform"),
        "repro.apps.registry": (
            "APPLICATIONS",
            "build_application",
            "default_full_crossbar_trace",
        ),
    },
)

__all__ = [
    "Application",
    "standard_platform",
    "APPLICATIONS",
    "build_application",
    "default_full_crossbar_trace",
]
