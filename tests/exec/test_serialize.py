"""JSON round-trip of the portable synthesis result."""

import json

import pytest

from repro.core import BusBinding, CrossbarDesign, SynthesisConfig
from repro.errors import ReproError
from repro.exec import SynthesisResult, result_from_dict, result_to_dict


def _sample_result() -> SynthesisResult:
    return SynthesisResult(
        design=CrossbarDesign(
            it=BusBinding(
                binding=(0, 1, 0, 2), num_buses=3, max_bus_overlap=37,
                optimal=True,
            ),
            ti=BusBinding(
                binding=(0, 0, 1), num_buses=2, max_bus_overlap=5,
                optimal=False,
            ),
            label="windowed",
        ),
        window_size=500,
        config=SynthesisConfig(window_size=500, overlap_threshold=0.2),
        it_conflicts=4,
        ti_conflicts=1,
        it_probes={2: False, 3: True, 4: True},
        ti_probes={1: False, 2: True},
    )


class TestRetiredConfigFields:
    def test_records_keep_the_retired_fields_at_their_only_values(self):
        config = result_to_dict(_sample_result())["config"]
        assert config["backend"] == "assignment"
        assert config["lp_engine"] == "scipy"
        assert config["milp_backend"] is None
        # ``backend`` keeps the slot it had while it was a field.
        assert list(config) == [
            "window_size",
            "overlap_threshold",
            "max_targets_per_bus",
            "backend",
            "use_criticality",
            "node_limit",
            "variable_windows",
            "variable_window_ratio",
            "lp_engine",
            "milp_backend",
        ]


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        result = _sample_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_json_round_trip_is_exact(self):
        result = _sample_result()
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(payload) == result

    def test_encoding_is_deterministic(self):
        a = json.dumps(result_to_dict(_sample_result()), sort_keys=True)
        b = json.dumps(result_to_dict(_sample_result()), sort_keys=True)
        assert a == b

    def test_bus_count_property(self):
        assert _sample_result().bus_count == 5


class TestValidation:
    def test_rejects_unknown_format(self):
        payload = result_to_dict(_sample_result())
        payload["format"] = "repro-result-v999"
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_rejects_non_dict(self):
        with pytest.raises(ReproError):
            result_from_dict(["not", "a", "result"])

    def test_rejects_missing_design(self):
        payload = result_to_dict(_sample_result())
        del payload["design"]
        with pytest.raises(ReproError):
            result_from_dict(payload)
