"""Host-speed probe.

A fixed piece of pure-Python work, timed. On a shared cloud VM the
speed a vCPU gives one process can swing by 2x within a second
(presumably a co-tenant on the same physical core), so every benchmark
timing is corrected by probes taken in the process that runs the timed
work: a full probe (``probe()``, 5-10 ms) just before and just after it,
and a short slice of the same work (``Sampler``) every 20 ms while it
runs. A timing is reported at the reference host speed::

    normalized = (wall - sampler time) * probe_ref_s * mean(1 / reading)

The probe imports nothing from ``repro`` and runs with the cyclic GC
disabled, so neither the program's heap nor its allocations can change
what it reads: only the speed the host gives this process.
"""

import gc
import signal
import time

_REPS = 5
_ITERATIONS = 4_000
_SLICE_ITERATIONS = 400
_SLICE_SCALE = _REPS * _ITERATIONS / _SLICE_ITERATIONS


def _work(n):
    acc = 0
    table = {}
    items = []
    for i in range(n):
        acc = (acc * 1_103_515_245 + i) & 0xFFFFFFFF
        table[acc & 127] = i
        items.append(acc >> 7)
        if len(items) > 64:
            items.sort()
            del items[:32]
    return acc + len(table)


def _timed(n):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(n)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def probe():
    """Seconds the fixed work takes now (median of five slices, scaled
    to the whole), 5-10 ms on a 2-vCPU cloud VM."""
    slices = sorted(_timed(_ITERATIONS) for _ in range(_REPS))
    return slices[_REPS // 2] * _REPS


class Sampler:
    """Runs a 1/50 slice of the probe on SIGALRM every ``interval``
    seconds, in the main thread, between the program's own bytecodes.

    ``samples`` holds ``(start, end, reading)``: monotonic start and end
    of the slice, and its time scaled to a full probe. Callers subtract
    the slices' own time from the wall time they fall in.
    """

    def __init__(self, interval=0.02):
        self.interval = interval
        self.samples = []

    def _tick(self, _signum, _frame):
        start = time.monotonic()
        reading = _timed(_SLICE_ITERATIONS) * _SLICE_SCALE
        self.samples.append((start, time.monotonic(), reading))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
