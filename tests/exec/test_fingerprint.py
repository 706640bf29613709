"""Fingerprint canonicality: stability across processes and sensitivity."""

import os
import subprocess
import sys
from dataclasses import replace

from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig
from repro.exec import trace_fingerprint
from repro.pipeline import PipelineRunner

TRACE_KWARGS = dict(
    burst_cycles=200, total_cycles=8_000, num_initiators=4, num_targets=4,
    seed=11,
)


design_fingerprint = PipelineRunner.design_fingerprint


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


class TestDesignFingerprint:
    """The whole-result cache address of one synthesis point."""

    def test_covers_every_config_field(self):
        """Every field a stage reads moves the address; the nominal
        ``window_size`` (the effective window is a separate argument)
        is read by no stage and does not."""
        base = SynthesisConfig()
        base_key = design_fingerprint("0" * 64, base, 500)
        nominal_window = replace(base, window_size=123)
        variants = [
            replace(base, overlap_threshold=0.1),
            replace(base, max_targets_per_bus=None),
            replace(base, use_criticality=False),
            replace(base, node_limit=10),
            replace(base, variable_windows=True),
            replace(base, variable_window_ratio=2),
        ]
        assert design_fingerprint("0" * 64, nominal_window, 500) == base_key
        keys = {design_fingerprint("0" * 64, variant, 500) for variant in variants}
        assert base_key not in keys
        assert len(keys) == len(variants)

    def test_distinguishes_window_and_trace(self):
        config = SynthesisConfig()
        digest = trace_fingerprint(_make_trace())
        base = design_fingerprint(digest, config, 500)
        assert design_fingerprint(digest, config, 501) != base
        assert design_fingerprint("0" * 64, config, 500) != base

    def test_pinned_value(self):
        # The default-solver address every cache directory holds; the
        # retired ``backend`` field is hashed at its constant value.
        config = SynthesisConfig(overlap_threshold=0.2)
        assert design_fingerprint("0" * 64, config, 800) == (
            "27953f0fec9b5fdc22e5c60666d9741e16f9b260fae57cc36c4aa80fcfdc20c9"
        )

    def test_repeatable(self):
        config = SynthesisConfig(overlap_threshold=0.2)
        digest = trace_fingerprint(_make_trace())
        assert design_fingerprint(digest, config, 800) == design_fingerprint(
            digest, config, 800
        )
