"""Unit tests for synthesis configuration and result objects."""

import pytest

from repro.core import BusBinding, CrossbarDesign, SynthesisConfig
from repro.errors import ConfigurationError


class TestSynthesisConfig:
    def test_defaults_valid(self):
        config = SynthesisConfig()
        assert config.overlap_threshold == pytest.approx(0.3)

    def test_threshold_beyond_half_rejected(self):
        # Sec. 7.4: beyond 50% the bandwidth constraint fails anyway.
        with pytest.raises(ConfigurationError):
            SynthesisConfig(overlap_threshold=0.6)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(overlap_threshold=-0.1)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(window_size=0)

    def test_bad_maxtb_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesisConfig(max_targets_per_bus=0)


class TestBusBinding:
    def test_valid_binding(self):
        binding = BusBinding(binding=(0, 1, 0, 2), num_buses=3)
        assert binding.targets_on_bus(0) == (0, 2)
        assert binding.as_list() == [0, 1, 0, 2]

    def test_sparse_numbering_rejected(self):
        with pytest.raises(ConfigurationError):
            BusBinding(binding=(0, 2), num_buses=3)

    def test_bus_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BusBinding(binding=(0, 0), num_buses=2)

    def test_more_buses_than_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            BusBinding(binding=(0,), num_buses=2)


class TestCrossbarDesign:
    def test_bus_count_sums_both_sides(self):
        design = CrossbarDesign(
            it=BusBinding(binding=(0, 1, 0), num_buses=2),
            ti=BusBinding(binding=(0, 0), num_buses=1),
        )
        assert design.bus_count == 3

    def test_size_ratio(self):
        small = CrossbarDesign(
            it=BusBinding(binding=(0, 0, 0), num_buses=1),
            ti=BusBinding(binding=(0, 0), num_buses=1),
        )
        full = CrossbarDesign(
            it=BusBinding(binding=(0, 1, 2), num_buses=3),
            ti=BusBinding(binding=(0, 1), num_buses=2),
        )
        assert small.size_ratio_vs(full) == pytest.approx(2.5)
