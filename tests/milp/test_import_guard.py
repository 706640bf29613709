"""scipy stays off the import path until a MILP is actually solved.

Each check runs in a fresh interpreter: the test process itself has
long since imported scipy through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBE = """
import contextlib, io, sys
import repro.cli

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

print(scipy_loaded())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["design", "qsort", *sys.argv[1:]])
assert code == 0, code
print(scipy_loaded())
sys.stdout.write(out.getvalue())
"""


def run_design(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    after_import, after_design, report = completed.stdout.split("\n", 2)
    return after_import == "True", after_design == "True", report


@pytest.fixture(scope="module")
def default_run():
    return run_design()


def test_cli_import_and_default_design_load_no_scipy(default_run):
    after_import, after_design, _ = default_run
    assert not after_import
    assert not after_design


def test_milp_design_loads_scipy_and_prints_the_default_report(default_run):
    after_import, after_design, milp_report = run_design("--backend", "milp")
    assert not after_import
    assert after_design
    assert milp_report == default_run[2]
