"""Workload scenarios and multi-use-case robust synthesis.

The paper designs one crossbar per application; a shipping SoC serves
many use-cases. This subpackage turns the reproduction into a
fleet-scale design service:

* :mod:`~repro.scenarios.model` -- the :class:`Scenario` record (a
  named workload binding a traffic source to load scaling, weights and
  QoS constraints) and the :class:`ScenarioSuite` container with JSON
  round-trip,
* :mod:`~repro.scenarios.library` -- built-in suites stamped out from
  the synthetic profile generators and the registered applications,
* :mod:`~repro.scenarios.runner` -- the suite runner: per-scenario
  synthesis fanned out through the
  :class:`~repro.exec.engine.ExecutionEngine`, one robust design via
  :class:`~repro.core.multi.RobustSynthesizer`, per-scenario replay
  validation and an aggregated report with a Pareto view.

Contracts
---------
* **Content addressing.** Scenario traffic is content-addressed like
  any trace: per-scenario window/conflict/bind stages and the
  suite-level merged bind carry pipeline fingerprints, and individual
  solves are whole-result-keyed through the execution engine.
* **Caching.** The suite runner keeps its artifact store alive across
  :meth:`~repro.scenarios.runner.ScenarioSuiteRunner.run` calls --
  editing a suite re-executes only the changed scenarios' stages
  (incremental re-synthesis) -- and persists serializable stages into
  the engine's cache directory when one is configured.
* **Determinism.** Suites and scenarios are deterministic given their
  seeds and weights; a warm rerun's report is byte-identical to a cold
  run (asserted by the incremental and replay-determinism suites).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.scenarios.model": (
            "SUITE_FORMAT",
            "Scenario",
            "ScenarioSuite",
            "load_suite",
            "save_suite",
            "suite_from_dict",
            "suite_to_dict",
        ),
        "repro.scenarios.library": ("SUITES", "build_suite"),
        "repro.scenarios.runner": (
            "ScenarioOutcome",
            "SuiteParetoPoint",
            "SuiteRunReport",
            "ScenarioSuiteRunner",
        ),
    },
)

__all__ = [
    "Scenario",
    "ScenarioSuite",
    "SUITE_FORMAT",
    "suite_to_dict",
    "suite_from_dict",
    "save_suite",
    "load_suite",
    "SUITES",
    "build_suite",
    "ScenarioSuiteRunner",
    "ScenarioOutcome",
    "SuiteParetoPoint",
    "SuiteRunReport",
]
