"""Parameter derivation and validation tests.

The frozen reference numbers come from the hardware configuration the
package defaults reproduce: 60.15 GHz carrier, 100 MHz bandwidth, 21 tones
per transmitter, two transmitters on interleaved grids, 212-fold averaging.
"""

import dataclasses
import math

import numpy as np
import pytest

from ddsounder.params import (
    ConfigError,
    default_config,
    derive_config,
    free_space_path_loss,
    max_doppler,
    narrowband_config,
    processing_gain,
    validate_config,
)


class TestDerivedQuantities:
    def test_tone_spacing_partitions_bandwidth(self, fullscale):
        assert fullscale.tone_spacing == pytest.approx(100e6 / 21)

    def test_interleave_offset_is_quarter_spacing(self, fullscale):
        assert fullscale.tx_tone_offset == pytest.approx(fullscale.tone_spacing / 4)
        assert fullscale.tx_tone_offset == pytest.approx(1.19e6, rel=5e-3)

    def test_sequence_period_inverse_of_offset(self, fullscale):
        assert fullscale.sequence_period == pytest.approx(1 / fullscale.tx_tone_offset)
        assert fullscale.sequence_period == pytest.approx(840e-9)

    def test_period_is_integer_number_of_samples(self, fullscale, narrowband):
        for cfg in (fullscale, narrowband):
            assert cfg.samples_per_period == 105

    def test_max_excess_delay_is_half_grid_period(self, fullscale):
        # two interleaved combs share the 1/(2 tone_spacing) window
        assert fullscale.max_excess_delay == pytest.approx(105e-9)

    def test_snapshot_time(self, fullscale):
        assert fullscale.snapshot_time == pytest.approx(178.08e-6, abs=0.01e-6)

    def test_snapshot_count_fills_recording(self, fullscale):
        assert fullscale.snapshot_count == math.floor(
            fullscale.recording_time / fullscale.snapshot_time * (1 + 1e-9)
        )
        assert fullscale.snapshot_count == 20215

    def test_processing_gain_212(self):
        assert processing_gain(212) == pytest.approx(23.2634, abs=5e-4)

    def test_doppler_at_max_speed(self):
        # 14 m/s at 60.15 GHz
        nu = max_doppler(14.0, 60.15e9)
        assert nu == pytest.approx(2808.94, abs=0.01)

    def test_narrowband_scaling(self, narrowband):
        assert narrowband.bandwidth == pytest.approx(1e6)
        assert narrowband.sample_rate == pytest.approx(1.25e6)
        assert narrowband.averaging_count == 2
        assert narrowband.snapshot_time == pytest.approx(168e-6)
        assert narrowband.snapshot_count == 19047
        # Doppler ambiguity at the snapshot rate comfortably covers max speed
        alias = 0.5 / narrowband.snapshot_time
        assert alias == pytest.approx(2976.19, abs=0.01)
        assert alias > max_doppler(narrowband.max_speed, narrowband.center_frequency)


class TestFreeSpacePathLoss:
    def test_reference_distance(self):
        expected = 20 * math.log10(4 * math.pi * 1.0 * 60.15e9 / 299792458.0)
        assert free_space_path_loss(1.0, 60.15e9) == pytest.approx(expected)

    def test_six_db_per_doubling(self):
        a = free_space_path_loss(10.0, 60.15e9)
        b = free_space_path_loss(20.0, 60.15e9)
        assert b - a == pytest.approx(20 * math.log10(2))

    def test_array_of_distances(self):
        distances = np.array([[1.0, 10.0], [20.0, 41.0]])
        loss = free_space_path_loss(distances, 60.15e9)
        assert loss.shape == (2, 2)
        np.testing.assert_allclose(
            loss, [[free_space_path_loss(d, 60.15e9) for d in row] for row in distances]
        )
        assert loss[1, 0] - loss[0, 1] == pytest.approx(20 * math.log10(2))

    @pytest.mark.parametrize(
        "distance",
        [0.0, -1.0, pytest.param(np.array([5.0, 0.0, 41.0]), id="array-with-zero")],
    )
    def test_nonpositive_distance_rejected(self, distance):
        with pytest.raises(ValueError):
            free_space_path_loss(distance, 60.15e9)


class TestValidation:
    def test_default_config_passes(self, fullscale):
        report = validate_config(fullscale)
        assert report.passed
        assert all(c.passed for c in report.checks)

    def test_report_text_lists_every_check(self, fullscale):
        text = validate_config(fullscale).to_text()
        assert "overall: PASS" in text
        assert "delay_sampling" in text
        assert "doppler_sampling" in text
        assert "processing_gain_db" in text

    def test_excess_delay_violation_fails(self, fullscale):
        # a 200 ns delay target cannot be met by the 4.76 MHz tone spacing
        cfg = dataclasses.replace(fullscale, max_excess_delay=200e-9)
        report = validate_config(cfg)
        assert not report.passed
        assert not next(c for c in report.checks if c.name == "delay_sampling").passed

    def test_doppler_violation_fails(self, fullscale):
        cfg = dataclasses.replace(fullscale, max_doppler=5e3)
        report = validate_config(cfg)
        assert not report.passed

    def test_comb_collision_detected(self):
        # ratio 1 leaves no offset slots for the second TX
        cfg = derive_config(grid_ratio=1)
        report = validate_config(cfg)
        assert not next(
            c for c in report.checks if c.name == "tx_combs_collision_free"
        ).passed

    def test_to_text_marks_failures(self, fullscale):
        cfg = dataclasses.replace(fullscale, max_doppler=5e3)
        text = validate_config(cfg).to_text()
        assert "FAIL" in text
        assert "overall: FAIL" in text


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tone_count": -3},
            {"tx_count": 0},
            {"bandwidth": -1.0},
            {"averaging_count": 0},
            {"recording_time": 0.0},
            {"center_frequency": float("nan")},
        ],
    )
    def test_invalid_inputs_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            derive_config(**kwargs)

    def test_fractional_sample_period_rejected(self):
        # 840 ns at 124 MS/s is 104.16 samples
        cfg = derive_config(sample_rate=124e6)
        with pytest.raises(ConfigError):
            cfg.samples_per_period

    def test_configs_are_frozen(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tone_count = 5

    def test_narrowband_default_equivalent(self):
        assert narrowband_config() == narrowband_config(bandwidth_scale=0.01)

    def test_grid_ratio_property(self, fullscale, narrowband):
        assert fullscale.grid_ratio == 4
        assert narrowband.grid_ratio == 4
