"""Heavy or unused modules stay off the import path of every command.

The literal MILP is a test oracle (``tests/oracles/milp``): no ``repro``
module imports it or scipy, and ``--backend milp`` is rejected. Nothing
loads ``multiprocessing`` (its ``shared_memory`` included) or
``concurrent.futures`` either: every command runs in one process.
networkx is a test-only dependency, and the subsystems other commands
use (scenario suites, the daemon, the robust merge, sweeps) stay
unloaded by ``import repro.cli`` and ``repro design``: the package
``__init__`` modules re-export lazily (PEP 562) and the CLI imports a
subsystem inside the handler that uses it. The import checks run in a
fresh interpreter: the test process itself has long since imported
scipy through other tests.
"""

import ast
import importlib
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
    "networkx",
    "repro.scenarios",
    "repro.server",
    "repro.core.multi",
    "repro.analysis.sweep",
)

def loaded():
    return sorted(
        guarded for guarded in GUARDED
        if any(name == guarded or name.startswith(guarded + ".")
               for name in sys.modules)
    )

print(json.dumps(loaded()))
before = set(sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["design", "qsort", *sys.argv[1:]])
assert code == 0, code
print(json.dumps(loaded()))
print(json.dumps(sorted(set(sys.modules) - before)))
sys.stdout.write(out.getvalue())
"""

NOT_FOR_DESIGN = (
    "networkx",
    "repro.scenarios",
    "repro.server",
    "repro.core.multi",
    "repro.analysis.sweep",
)
"""Loaded by neither ``import repro.cli`` nor ``repro design``.
(``repro.sim`` still is: the platform's reference model imports it.)"""

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.core",
    "repro.exec",
    "repro.obs",
    "repro.pipeline",
    "repro.platform",
    "repro.resilience",
    "repro.scenarios",
    "repro.server",
    "repro.sim",
    "repro.traffic",
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_design(*argv):
    """The guarded modules loaded after ``import repro.cli`` and after
    ``repro design qsort *argv``, every module ``main()`` itself loaded,
    and the printed report."""
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=_env(), timeout=120, check=True,
    )
    after_import, after_design, in_main, report = completed.stdout.split("\n", 3)
    return (
        set(json.loads(after_import)),
        set(json.loads(after_design)),
        json.loads(in_main),
        report,
    )


@pytest.fixture(scope="module")
def default_run():
    return run_design()


def test_cli_import_and_default_design_load_no_scipy(default_run):
    after_import, after_design, *_ = default_run
    assert "scipy" not in after_import
    assert "scipy" not in after_design


def test_cli_import_and_default_design_load_no_shared_memory(default_run):
    after_import, after_design, *_ = default_run
    assert "multiprocessing.shared_memory" not in after_import
    assert "multiprocessing.shared_memory" not in after_design


def test_cli_import_and_default_design_load_no_process_pool(default_run):
    after_import, after_design, *_ = default_run
    for module in ("multiprocessing", "concurrent.futures"):
        assert module not in after_import
        assert module not in after_design


def test_cli_import_and_default_design_load_no_milp(default_run):
    after_import, after_design, *_ = default_run
    for module in ("repro.milp", "repro.core.formulation"):
        assert module not in after_import
        assert module not in after_design


def test_cli_import_and_default_design_load_only_the_design_path(default_run):
    after_import, after_design, *_ = default_run
    for module in NOT_FOR_DESIGN:
        assert module not in after_import
        assert module not in after_design


def test_warm_design_imports_nothing_inside_main(tmp_path):
    """Every module a warm ``repro design`` uses is loaded with
    ``repro.cli``, so none is compiled inside the timed command (numpy's
    ``.npz`` reader may still pull in a codec from ``encodings``)."""
    cache = str(tmp_path)
    cold = run_design("--cache-dir", cache)
    warm = run_design("--cache-dir", cache)
    assert "cache: 1/1 hits" in warm[3]
    assert [name for name in warm[2] if not name.startswith("encodings.")] == []
    assert [name for name in cold[2] if name.startswith("repro")] == []


SUITE_PROBE = """
import contextlib, io, json, sys
import repro.cli

with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["scenarios", "run", *sys.argv[1:]]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def run_suite(*argv):
    """Every module loaded after ``repro scenarios run *argv``."""
    completed = subprocess.run(
        [sys.executable, "-c", SUITE_PROBE, *argv],
        capture_output=True, text=True, env=_env(), timeout=300, check=True,
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_suite_runs_load_no_masked_arrays_and_warm_ones_no_generator(tmp_path):
    """A replaying suite computes its p95 without ``np.percentile``
    (which imports ``numpy.ma``), and a warm one reads every scenario
    trace from its stored entry, so no profile generator is imported."""
    argv = ["smoke", "--replay-latency", "--cache-dir", str(tmp_path)]
    cold = run_suite(*argv)
    assert "repro.traffic.profiles" in cold  # the cold run generated
    warm = run_suite(*argv)
    for loaded in (cold, warm):
        assert "numpy.ma" not in loaded
    assert "repro.traffic.profiles" not in warm


def test_cli_import_loads_a_bounded_module_set():
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_env(), timeout=120, check=True,
    )
    loaded = json.loads(completed.stdout)
    assert len(loaded) <= 320
    assert len([name for name in loaded if name.startswith("repro")]) <= 70


@pytest.mark.parametrize("package", PACKAGES)
def test_package_reexports_resolve_lazily(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        namespace = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is getattr(module, name)
        assert name in listing
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_export", {})


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
