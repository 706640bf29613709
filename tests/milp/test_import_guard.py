"""Heavy or unused modules stay off the import path of every command.

The literal MILP is a test oracle (``tests/oracles/milp``): no ``repro``
module imports it or scipy, and ``--backend milp`` is rejected. Nothing
loads ``multiprocessing`` (its ``shared_memory`` included) or
``concurrent.futures`` either: every command runs in one process. The
import checks run in a fresh interpreter: the test process itself has
long since imported scipy through other tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBE = """
import contextlib, io, json, sys
import repro.cli

GUARDED = (
    "scipy",
    "repro.milp",
    "repro.core.formulation",
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


def test_cli_import_and_default_design_load_no_milp(default_run):
    after_import, after_design, _ = default_run
    for module in ("repro.milp", "repro.core.formulation"):
        assert module not in after_import
        assert module not in after_design


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_repro_module_imports_scipy_or_the_milp():
    offenders = []
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        for module in _imported_modules(path):
            top = module.split(".")
            if top[0] == "scipy" or top[:2] == ["repro", "milp"]:
                offenders.append(f"{path.relative_to(SRC)}: {module}")
    assert offenders == []
    assert not Path(SRC, "repro", "milp").exists()
    assert not Path(SRC, "repro", "core", "formulation.py").exists()


def test_milp_backend_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        repro.cli.main(["design", "qsort", "--backend", "milp"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'milp'" in capsys.readouterr().err
