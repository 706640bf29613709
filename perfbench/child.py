"""One user command in a fresh interpreter, timed from the inside.

Usage: ``python3 perfbench/child.py SPAWN_T SPEC_JSON``

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it spawned
this process (CLOCK_MONOTONIC is system-wide, so the two clocks agree).
The spec names the CLI argv, whether to capture stdout, whether to
install the layer tracer, and where to write the result JSON.

Sequence: probe, ``import repro.cli`` (timed), probe,
``repro.cli.main(argv)`` (timed), probe, with the probe's sampler
running throughout. Setup (interpreter start plus the import) and the
command are reported separately, with their monotonic intervals, the
probes and the samples, so the parent can normalize both to the
reference host speed. Nothing here resets a process memo: the process
is new. ``pin`` in the spec binds the process to one CPU, so a daemon's
worker threads run where its main thread samples the host speed.
"""

import sys
import time

ENTRY_T = time.monotonic()

from probe import Sampler, probe  # noqa: E402 - timed entry comes first


def main():
    spawn_t = float(sys.argv[1])
    spec_path = sys.argv[2]
    sampler = Sampler()
    sampler.start()
    probes = [probe()]
    before = set(sys.modules)
    import_start = time.monotonic()
    import repro.cli

    import_end = time.monotonic()
    modules = len(set(sys.modules) - before)
    scipy_loaded = "scipy.optimize" in sys.modules
    probes.append(probe())

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec.get("pin"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    recorder = None
    if spec.get("trace"):
        import layers

        recorder = layers.Recorder()
        recorder.install()

    stdout = io.StringIO()
    error = None
    op_start = time.monotonic()
    try:
        if spec.get("capture", True):
            with contextlib.redirect_stdout(stdout):
                code = repro.cli.main(spec["argv"])
        else:
            code = repro.cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        code = 1
        error = traceback.format_exc()
    op_end = time.monotonic()
    probes.append(probe())
    sampler.stop()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "interp_s": ENTRY_T - spawn_t,
        "import": [import_start, import_end],
        "op": [op_start, op_end],
        "modules": modules,
        "scipy": scipy_loaded,
        "probes": probes,
        "samples": sampler.samples,
        "code": code,
        "error": error,
        "stdout": stdout.getvalue(),
        "rss_mb": rss_kb / 1024.0,
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
        recorder.write_spans(spec["spans"])
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, spec["out"])
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
