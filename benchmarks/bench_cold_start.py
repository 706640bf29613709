"""Cold-start bench: ``import repro.cli`` in a fresh interpreter.

Every ``repro`` command is a new process, and before the command runs
it pays the interpreter start plus ``import repro.cli``. The package
``__init__`` modules re-export lazily and each CLI handler imports the
subsystem it drives, so the import loads what ``repro design`` uses
and nothing else: not networkx (a test-only oracle), not the scenario
suites, the daemon or the sweeps.

``test_cold_start_import`` starts five fresh interpreters. Each times
its own ``import repro.cli`` and lists the modules it loaded; the bench
reports the median import seconds and fails above 320 modules, above
70 ``repro`` modules, or when networkx is loaded. The pytest-benchmark
timing is the whole child process, interpreter start included.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from _bench_utils import emit

SRC = str(Path(__file__).resolve().parents[1] / "src")
MAX_MODULES = 320
MAX_REPRO_MODULES = 70

PROBE = """
import json, sys, time
before = set(sys.modules)
begin = time.perf_counter()
import repro.cli
seconds = time.perf_counter() - begin
loaded = set(sys.modules) - before
print(json.dumps({
    "seconds": seconds,
    "modules": len(loaded),
    "repro": sum(name.split(".")[0] == "repro" for name in loaded),
    "networkx": "networkx" in sys.modules,
}))
"""


def test_cold_start_import(benchmark, results_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    samples = []

    def start():
        completed = subprocess.run(
            [sys.executable, "-c", PROBE],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        samples.append(json.loads(completed.stdout))

    benchmark.pedantic(start, rounds=5, iterations=1)
    import_s = statistics.median(sample["seconds"] for sample in samples)
    modules = max(sample["modules"] for sample in samples)
    repro_modules = max(sample["repro"] for sample in samples)
    assert not any(sample["networkx"] for sample in samples)
    assert modules <= MAX_MODULES, modules
    assert repro_modules <= MAX_REPRO_MODULES, repro_modules

    benchmark.extra_info["import_s"] = round(import_s, 4)
    benchmark.extra_info["modules"] = modules
    benchmark.extra_info["repro_modules"] = repro_modules
    emit(
        results_dir,
        "cold_start",
        "\n".join([
            "import repro.cli in a fresh interpreter (median of 5)",
            f"  import   {import_s * 1e3:7.1f} ms",
            f"  modules  {modules:7d} (limit {MAX_MODULES})",
            f"  repro    {repro_modules:7d} (limit {MAX_REPRO_MODULES})",
        ]),
    )
