"""The fault-injection framework itself: purity, scoping, inheritance.

Everything downstream (the chaos cache/server tests) leans on
the properties proved here: decisions are a pure function of
``(seed, point, key)``, plans round-trip losslessly through JSON and
the environment, and child processes inherit the active plan without
explicit plumbing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.resilience import (
    FAULT_POINTS,
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_summary,
    install_from_spec,
    install_plan,
    maybe_io_error,
    should_inject,
)
from repro.resilience import faults as faults_module


KEYS = [f"{i}:a{a}" for i in range(100) for a in range(2)]


class TestDecisions:
    def test_decisions_pure_in_seed_point_key(self):
        a = FaultPlan(seed=42, rules={"cache.corrupt": FaultRule(rate=0.5)})
        b = FaultPlan(seed=42, rules={"cache.corrupt": FaultRule(rate=0.5)})
        assert [a.decide("cache.corrupt", k) for k in KEYS] == [
            b.decide("cache.corrupt", k) for k in KEYS
        ]

    def test_different_seeds_decide_differently(self):
        a = FaultPlan(seed=1, rules={"io.transient": FaultRule(rate=0.5)})
        b = FaultPlan(seed=2, rules={"io.transient": FaultRule(rate=0.5)})
        assert [a.decide("io.transient", k) for k in KEYS] != [
            b.decide("io.transient", k) for k in KEYS
        ]

    def test_rate_zero_never_fires_rate_one_always(self):
        never = FaultPlan(rules={"cache.corrupt": FaultRule(rate=0.0)})
        always = FaultPlan(rules={"cache.corrupt": FaultRule(rate=1.0)})
        assert not any(never.decide("cache.corrupt", k) for k in KEYS)
        assert all(always.decide("cache.corrupt", k) for k in KEYS)

    def test_rate_is_approximately_honoured(self):
        plan = FaultPlan(seed=0, rules={"cache.corrupt": FaultRule(rate=0.25)})
        fired = sum(
            plan.decide("cache.corrupt", str(i)) for i in range(4000)
        )
        assert 0.20 < fired / 4000 < 0.30

    def test_match_restricts_to_first_attempts(self):
        plan = FaultPlan(
            rules={"io.transient": FaultRule(rate=1.0, match=("*:a0",))}
        )
        assert plan.decide("io.transient", "3:a0")
        assert not plan.decide("io.transient", "3:a1")

    def test_max_hits_caps_firing(self):
        plan = FaultPlan(
            rules={"io.transient": FaultRule(rate=1.0, max_hits=3)}
        )
        fired = [plan.decide("io.transient", str(i)) for i in range(10)]
        assert fired == [True] * 3 + [False] * 7
        assert plan.fired() == {"io.transient": 3}

    def test_unconfigured_point_never_fires(self):
        plan = FaultPlan(rules={"cache.corrupt": FaultRule()})
        assert not plan.decide("solver.slow", "1")


class TestValidation:
    def test_unknown_point_rejected(self):
        # "worker.crash" named a point of the deleted process pool: a
        # stale plan that still names it must fail loudly.
        for point in ("disk.melt", "worker.crash"):
            with pytest.raises(ConfigurationError, match="unknown fault point"):
                FaultPlan(rules={point: FaultRule()})
            with pytest.raises(ConfigurationError, match="unknown fault point"):
                FaultPlan.from_dict({"rules": {point: {"rate": 1.0}}})

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            FaultRule(rate=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError, match="delay_s"):
            FaultRule(delay_s=-0.1)

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault rule"):
            FaultRule.from_dict({"rate": 1.0, "wibble": 1})

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan"):
            FaultPlan.from_dict({"seed": 1, "chaos": True})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_known_points_are_the_documented_three(self):
        assert FAULT_POINTS == ("cache.corrupt", "solver.slow", "io.transient")


class TestSerialization:
    def test_json_roundtrip_preserves_decisions(self):
        plan = FaultPlan(
            seed=7,
            rules={
                "io.transient": FaultRule(rate=0.4, match=("*:a0",)),
                "solver.slow": FaultRule(rate=1.0, delay_s=0.25, max_hits=2),
            },
        )
        revived = FaultPlan.from_json(plan.to_json())
        assert revived.to_dict() == plan.to_dict()
        assert [revived.decide("io.transient", k) for k in KEYS] == [
            plan.decide("io.transient", k) for k in KEYS
        ]

    def test_install_from_spec_inline_json(self):
        plan = install_from_spec('{"seed": 5, "rules": {"io.transient": {}}}')
        assert plan.seed == 5
        assert active_plan() is plan

    def test_install_from_spec_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            FaultPlan(seed=11, rules={"cache.corrupt": FaultRule()}).to_json()
        )
        plan = install_from_spec(str(path))
        assert plan.seed == 11
        assert "cache.corrupt" in plan.rules

    def test_install_from_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            install_from_spec(str(tmp_path / "absent.json"))


class TestInstallation:
    def test_install_exports_env_and_clear_removes_it(self):
        plan = FaultPlan(seed=3, rules={"cache.corrupt": FaultRule()})
        install_plan(plan)
        assert os.environ[FAULTS_ENV_VAR] == plan.to_json()
        assert active_plan() is plan
        clear_plan()
        assert FAULTS_ENV_VAR not in os.environ
        assert active_plan() is None

    def test_active_plan_resolves_lazily_from_env(self, monkeypatch):
        spec = FaultPlan(seed=9, rules={"io.transient": FaultRule()})
        monkeypatch.setenv(FAULTS_ENV_VAR, spec.to_json())
        # Simulate a fresh process (e.g. a CLI subprocess): unresolved
        # module state, plan only present in the environment.
        monkeypatch.setattr(faults_module, "_ACTIVE", None)
        monkeypatch.setattr(faults_module, "_RESOLVED", False)
        plan = active_plan()
        assert plan is not None
        assert plan.seed == 9
        assert "io.transient" in plan.rules

    def test_child_process_inherits_plan_through_env(self):
        install_plan(
            FaultPlan(seed=21, rules={"solver.slow": FaultRule(delay_s=1.0)})
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "from repro.resilience import active_plan\n"
            "plan = active_plan()\n"
            "print(plan.seed, sorted(plan.rules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "21 ['solver.slow']"


class TestHelpers:
    def test_should_inject_false_without_plan(self):
        assert not should_inject("io.transient", "0:a0")

    def test_maybe_io_error_raises_oserror_subclass(self):
        install_plan(FaultPlan(rules={"io.transient": FaultRule(rate=1.0)}))
        with pytest.raises(InjectedFault) as excinfo:
            maybe_io_error("k:a0")
        assert isinstance(excinfo.value, OSError)

    def test_fault_summary_none_without_plan(self):
        assert fault_summary() is None

    def test_fault_summary_reports_fired_tallies(self):
        install_plan(
            FaultPlan(seed=4, rules={"io.transient": FaultRule(rate=1.0)})
        )
        with pytest.raises(InjectedFault):
            maybe_io_error("k:a0")
        summary = fault_summary()
        assert summary == {
            "seed": 4,
            "points": ["io.transient"],
            "fired": {"io.transient": 1},
        }
