"""Fingerprint canonicality: stability across processes and sensitivity."""

import os
import subprocess
import sys
from dataclasses import replace

from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig
from repro.exec import task_key, trace_fingerprint

TRACE_KWARGS = dict(
    burst_cycles=200, total_cycles=8_000, num_initiators=4, num_targets=4,
    seed=11,
)


def _make_trace():
    return synthetic_trace(**TRACE_KWARGS)


class TestTraceFingerprint:
    def test_deterministic_within_process(self):
        assert trace_fingerprint(_make_trace()) == trace_fingerprint(
            _make_trace()
        )

    def test_sensitive_to_traffic(self):
        base = trace_fingerprint(_make_trace())
        other = synthetic_trace(**{**TRACE_KWARGS, "seed": 12})
        assert trace_fingerprint(other) != base

    def test_sensitive_to_platform_shape(self):
        base = trace_fingerprint(_make_trace())
        wider = synthetic_trace(**{**TRACE_KWARGS, "num_targets": 5})
        assert trace_fingerprint(wider) != base

    def test_stable_across_processes(self):
        """The digest must not depend on interpreter hash randomization."""
        here = trace_fingerprint(_make_trace())
        script = (
            "from repro.apps.synthetic import synthetic_trace\n"
            "from repro.exec import trace_fingerprint\n"
            f"trace = synthetic_trace(**{TRACE_KWARGS!r})\n"
            "print(trace_fingerprint(trace))\n"
        )
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src_dir = os.path.join(
                os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                "src",
            )
            env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
            output = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()
            assert output == here


class TestTaskKey:
    def test_covers_every_config_field(self):
        base = SynthesisConfig()
        base_key = task_key("0" * 64, base, 500)
        variants = [
            replace(base, window_size=123),
            replace(base, overlap_threshold=0.1),
            replace(base, max_targets_per_bus=None),
            replace(base, backend="milp"),
            replace(base, use_criticality=False),
            replace(base, node_limit=10),
            replace(base, variable_windows=True),
            replace(base, variable_window_ratio=2),
        ]
        keys = {task_key("0" * 64, variant, 500) for variant in variants}
        assert base_key not in keys
        assert len(keys) == len(variants)

    def test_distinguishes_window_and_application(self):
        config = SynthesisConfig()
        digest = trace_fingerprint(_make_trace())
        base = task_key(digest, config, 500)
        assert task_key(digest, config, 501) != base
        assert task_key(digest, config, 500, application="mat2") != base
        assert task_key("0" * 64, config, 500) != base

    def test_key_predates_the_single_milp_backend(self):
        config = SynthesisConfig(overlap_threshold=0.2, backend="milp")
        assert task_key("0" * 64, config, 800, application="qsort") == (
            "af8f345be74e16f41616e73fd743179f4e127a12b5cdf1b2091ca8f9065b1c20"
        )

    def test_repeatable(self):
        config = SynthesisConfig(overlap_threshold=0.2)
        digest = trace_fingerprint(_make_trace())
        assert task_key(digest, config, 800) == task_key(digest, config, 800)
