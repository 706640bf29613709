"""The design and suite paths build no trace record objects.

A trace is one integer matrix plus a stream table; the kernel, the
collect stage's persist and decode steps, the digest, the mirror and the
window kernels all read and write its columns. ``TraceRecord`` objects
exist only at the edges (JSONL export, the DES reference model, tests).
Each command below runs in a fresh interpreter that counts every
``TraceRecord`` construction by wrapping ``__post_init__``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")

COUNTING = """
import contextlib, io, json, sys
import repro.cli
from repro.traffic.events import TraceRecord

count = 0
post_init = TraceRecord.__post_init__
def counting(self):
    global count
    count += 1
    post_init(self)
TraceRecord.__post_init__ = counting
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(sys.argv[1:]) == 0
print(json.dumps(count))
"""


def constructions(argv):
    """``TraceRecord`` objects one fresh ``repro`` process builds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_counter_sees_edge_objects(tmp_path):
    """The count is live: a JSONL export builds one object per record."""
    out = tmp_path / "qsort.jsonl"
    assert constructions(["trace", "qsort", "-o", str(out)]) > 0


def test_design_builds_no_records(tmp_path):
    """A cold design, its warm rerun and its threshold edit."""
    argv = ["design", "qsort", "--cache-dir", str(tmp_path / "cache")]
    counts = {
        "cold": constructions(argv),
        "warm": constructions(argv),
        "edit": constructions(argv + ["--threshold", "0.2"]),
    }
    assert counts == {"cold": 0, "warm": 0, "edit": 0}


def test_warm_suite_builds_no_records(tmp_path, capsys):
    cache = str(tmp_path / "suite-cache")
    assert main(["scenarios", "run", "smoke", "--cache-dir", cache]) == 0
    capsys.readouterr()
    argv = ["scenarios", "run", "smoke", "--cache-dir", cache]
    assert constructions(argv) == 0
