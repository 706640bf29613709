"""Scenario traces are stored collect entries, read by digest and shape.

Every scenario trace but a default full-load ``app:`` one (which reads
its application's collection) is filed by the collect stage under the
scenario's spec. A warm suite run therefore reads each trace's digest
and shape and never builds, decodes or hashes a trace: its later stages
are all stored. A stored entry, when a stage does load it, is the trace
a fresh build makes, record for record.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionEngine
from repro.exec.fingerprint import trace_fingerprint
from repro.obs.metrics import REGISTRY
from repro.pipeline.store import stage_tables
from repro.scenarios import Scenario, ScenarioSuiteRunner

SRC = str(Path(__file__).resolve().parents[2] / "src")

COUNTING_RUN = """
import contextlib, io, json, sys
import repro.cli
import repro.exec.fingerprint as fingerprint
import repro.traffic.profiles as profiles
import repro.traffic.synthetic as synthetic
from repro.pipeline import collect
from repro.traffic.events import TraceRecord

counts = {"generate": 0, "decode": 0, "records": 0, "hashes": 0}

def counted(name, function):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return wrapper

for module, names in (
    (synthetic, ["generate_synthetic_trace"]),
    (profiles, ["generate_hotspot_trace", "generate_poisson_trace",
                "generate_pipeline_trace"]),
):
    for name in names:
        setattr(module, name, counted("generate", getattr(module, name)))
collect._decode = counted("decode", collect._decode)
TraceRecord.__init__ = counted("records", TraceRecord.__init__)
original = fingerprint.trace_fingerprint
def counting_fingerprint(trace):
    if "_fingerprint" not in trace.__dict__:
        counts["hashes"] += 1
    return original(trace)
for module in list(sys.modules.values()):
    if getattr(module, "trace_fingerprint", None) is original:
        module.trace_fingerprint = counting_fingerprint
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(sys.argv[1:]) == 0
print(json.dumps(counts))
"""

SHAPE = {"num_initiators": 4, "num_targets": 4, "total_cycles": 6_000}

PROFILE_PARAMS = {
    "burst": {"burst_cycles": 300, "gap_cycles": 900},
    "hotspot": {"hotspot_targets": (0,), "hotspot_fraction": 0.5,
                "mean_gap": 120},
    "poisson": {"rate": 0.004, "spread": 0.3},
    "pipeline": {"frame_cycles": 2_000, "slot_cycles": 500,
                 "stage_lag": 200},
}


def _counting_run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_RUN, *argv],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_warm_suite_builds_decodes_and_hashes_no_trace(tmp_path):
    cache = str(tmp_path / "cache")
    argv = ["scenarios", "run", "smoke", "--replay-latency",
            "--cache-dir", cache]
    cold = _counting_run([*argv, "--report", str(tmp_path / "cold.json")])
    assert cold["generate"] == 4  # the run under test is not vacuous
    warm = _counting_run([*argv, "--report", str(tmp_path / "warm.json")])
    assert warm == {"generate": 0, "decode": 0, "records": 0, "hashes": 0}
    cold_report = (tmp_path / "cold.json").read_bytes()
    assert (tmp_path / "warm.json").read_bytes() == cold_report


def _stored_then_loaded(scenario, cache_dir):
    """The scenario's source from a runner that built and filed it, and
    from a fresh runner on the same cache directory, which loads it."""
    built = ScenarioSuiteRunner(
        engine=ExecutionEngine(cache=cache_dir)
    )._scenario_source(scenario)
    runner = ScenarioSuiteRunner(engine=ExecutionEngine(cache=cache_dir))
    cut = REGISTRY.snapshot()
    loaded = runner._scenario_source(scenario)
    assert stage_tables(cut)["disk_hits"] == {"collect": 1}
    return built, loaded


def _assert_equal_to_a_fresh_build(scenario):
    fresh = scenario.build_trace()
    with tempfile.TemporaryDirectory() as cache_dir:
        built, loaded = _stored_then_loaded(scenario, cache_dir)
        assert loaded.digest == built.digest == trace_fingerprint(fresh)
        assert tuple(loaded.shape) == tuple(built.shape)
        trace = loaded.trace()
    assert trace is not fresh
    assert trace.records == fresh.records
    assert trace.initiator_names == fresh.initiator_names
    assert trace.target_names == fresh.target_names
    assert (trace.num_initiators, trace.num_targets, trace.total_cycles) == (
        fresh.num_initiators, fresh.num_targets, fresh.total_cycles,
    )
    assert trace_fingerprint(trace) == trace_fingerprint(fresh)


@settings(max_examples=24, deadline=None)
@given(
    profile=st.sampled_from(sorted(PROFILE_PARAMS)),
    load_scale=st.sampled_from([0.4, 0.75, 1.0, 1.6, 2.5]),
    seed=st.integers(0, 2**16),
    critical=st.lists(st.integers(0, 3), max_size=2, unique=True),
)
def test_stored_profile_entry_equals_a_fresh_generation(
    profile, load_scale, seed, critical
):
    _assert_equal_to_a_fresh_build(
        Scenario(
            name=f"{profile}-{seed}",
            source=f"profile:{profile}",
            params={**SHAPE, **PROFILE_PARAMS[profile], "seed": seed},
            load_scale=load_scale,
            critical_targets=tuple(critical),
        )
    )


@settings(max_examples=6, deadline=None)
@given(
    load_scale=st.sampled_from([0.2, 0.5, 0.9]),
    name=st.sampled_from(["qsort-light", "qsort-thin", "q"]),
)
def test_stored_thinned_app_entry_equals_a_fresh_thinning(load_scale, name):
    _assert_equal_to_a_fresh_build(
        Scenario(name=name, source="app:qsort", load_scale=load_scale)
    )
