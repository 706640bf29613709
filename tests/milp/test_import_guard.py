"""Heavy or unused modules stay off the import path of a default run.

scipy loads only when a MILP is actually solved, and nothing loads
``multiprocessing`` (its ``shared_memory`` included) or
``concurrent.futures`` at all: every command runs in one process. Each check runs in a fresh
interpreter: the test process itself has long since imported scipy
through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBE = """
import contextlib, io, json, sys
import repro.cli

GUARDED = (
    "scipy",
    "multiprocessing.shared_memory",
    "multiprocessing",
    "concurrent.futures",
)

def loaded():
    return sorted(
        guarded for guarded in GUARDED
        if any(name == guarded or name.startswith(guarded + ".")
               for name in sys.modules)
    )

print(json.dumps(loaded()))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["design", "qsort", *sys.argv[1:]])
assert code == 0, code
print(json.dumps(loaded()))
sys.stdout.write(out.getvalue())
"""


def run_design(*argv):
    """The guarded modules loaded after ``import repro.cli`` and after
    ``repro design qsort *argv``, plus the printed report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    after_import, after_design, report = completed.stdout.split("\n", 2)
    return set(json.loads(after_import)), set(json.loads(after_design)), report


@pytest.fixture(scope="module")
def default_run():
    return run_design()


def test_cli_import_and_default_design_load_no_scipy(default_run):
    after_import, after_design, _ = default_run
    assert "scipy" not in after_import
    assert "scipy" not in after_design


def test_cli_import_and_default_design_load_no_shared_memory(default_run):
    after_import, after_design, _ = default_run
    assert "multiprocessing.shared_memory" not in after_import
    assert "multiprocessing.shared_memory" not in after_design


def test_cli_import_and_default_design_load_no_process_pool(default_run):
    after_import, after_design, _ = default_run
    for module in ("multiprocessing", "concurrent.futures"):
        assert module not in after_import
        assert module not in after_design


def test_milp_design_loads_scipy_and_prints_the_default_report(default_run):
    after_import, after_design, milp_report = run_design("--backend", "milp")
    assert "scipy" not in after_import
    assert "scipy" in after_design
    assert milp_report == default_run[2]
