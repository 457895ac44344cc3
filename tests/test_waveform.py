"""Waveform synthesis tests: ZC weights, tone combs, crest factor."""

import numpy as np
import pytest

from ddsounder.params import ConfigError, SounderConfig
from ddsounder.waveform import (
    SampledSignal,
    multitone_waveform,
    tone_plan,
    zadoff_chu,
)


def crest_factor(signal: SampledSignal) -> float:
    """Peak magnitude over RMS of a sampled signal."""
    magnitude = np.abs(signal.samples)
    return float(np.max(magnitude) / np.sqrt(np.mean(magnitude**2)))


class TestZadoffChu:
    def test_unit_modulus(self):
        for root, length in [(1, 21), (5, 21), (1, 16), (3, 16)]:
            w = zadoff_chu(root, length)
            np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)

    def test_odd_length_formula(self):
        n = np.arange(21)
        expected = np.exp(-1j * np.pi * 1 * n * (n + 1) / 21)
        np.testing.assert_allclose(zadoff_chu(1, 21), expected, atol=1e-15)

    def test_even_length_formula(self):
        n = np.arange(16)
        expected = np.exp(-1j * np.pi * 3 * n * n / 16)
        np.testing.assert_allclose(zadoff_chu(3, 16), expected, atol=1e-15)

    def test_impulsive_periodic_autocorrelation(self):
        w = zadoff_chu(1, 21)
        acf = np.fft.ifft(np.abs(np.fft.fft(w)) ** 2)
        assert abs(acf[0]) == pytest.approx(21.0)
        assert np.max(np.abs(acf[1:])) < 1e-9

    def test_root_must_be_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            zadoff_chu(3, 21)

    @pytest.mark.parametrize("root,length", [(1, 0), (1, -4), (1.5, 21)])
    def test_bad_arguments(self, root, length):
        with pytest.raises(ValueError):
            zadoff_chu(root, length)


class TestTonePlan:
    def test_comb_geometry(self, narrowband, nb_plans):
        for i, plan in enumerate(nb_plans):
            f = plan.tone_frequencies
            assert f.size == narrowband.tone_count
            np.testing.assert_allclose(np.diff(f), narrowband.tone_spacing)
            # comb i sits i offset slots above the DC-centered comb
            assert np.mean(f) == pytest.approx(i * narrowband.tx_tone_offset, abs=1e-6)

    def test_combs_interleave_without_collision(self, narrowband, nb_plans):
        f0, f1 = (p.tone_frequencies for p in nb_plans)
        gap = np.min(np.abs(f0[:, None] - f1[None, :]))
        assert gap == pytest.approx(narrowband.tx_tone_offset)

    def test_weights_are_zc(self, narrowband, nb_plans):
        np.testing.assert_allclose(
            nb_plans[0].tone_weights, zadoff_chu(1, narrowband.tone_count)
        )

    def test_tx_index_out_of_range(self, narrowband):
        with pytest.raises(ConfigError):
            tone_plan(narrowband, 2)
        with pytest.raises(ConfigError):
            tone_plan(narrowband, -1)


class TestMultitoneWaveform:
    def test_one_period_length(self, narrowband, nb_plans):
        sig = multitone_waveform(narrowband, nb_plans[0])
        assert sig.samples.size == narrowband.samples_per_period == 105
        assert sig.sample_rate == narrowband.sample_rate
        assert sig.t0 == 0.0

    @pytest.mark.parametrize("tx", [0, 1])
    def test_spectrum_places_weights_on_comb(self, narrowband, nb_plans, tx):
        """DFT over one period puts weight w_k exactly on tone bin f_k * T."""
        sig = multitone_waveform(narrowband, nb_plans[tx])
        n = sig.samples.size
        spectrum = np.fft.fft(sig.samples) / n
        bins = np.round(
            nb_plans[tx].tone_frequencies * narrowband.sequence_period
        ).astype(int)
        np.testing.assert_allclose(
            spectrum[bins % n], nb_plans[tx].tone_weights, atol=1e-12
        )
        # everything off the comb is empty
        mask = np.ones(n, bool)
        mask[bins % n] = False
        assert np.max(np.abs(spectrum[mask])) < 1e-12

    def test_tx_combs_orthogonal_over_period(self, narrowband, nb_plans):
        a = multitone_waveform(narrowband, nb_plans[0]).samples
        b = multitone_waveform(narrowband, nb_plans[1]).samples
        overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert overlap < 1e-12

    def test_zc_weighting_beats_flat_weighting(self, narrowband, nb_plans):
        import dataclasses

        zc = crest_factor(multitone_waveform(narrowband, nb_plans[0]))
        flat_plan = dataclasses.replace(
            nb_plans[0], tone_weights=np.ones(narrowband.tone_count, complex)
        )
        flat = crest_factor(multitone_waveform(narrowband, flat_plan))
        assert zc < flat
        assert zc < 2.5  # loose bound; flat weighting reaches sqrt(21) ~ 4.6

    def test_tones_above_nyquist_rejected(self):
        cfg = SounderConfig(sample_rate=50e6)  # comb extends past 25 MHz
        with pytest.raises(ValueError, match="Nyquist"):
            multitone_waveform(cfg, tone_plan(cfg, 0))


class TestSampledSignal:
    def test_duration(self):
        sig = SampledSignal(np.ones(100, complex), 1e3)
        assert sig.duration == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "samples,rate",
        [
            (np.ones(0, complex), 1e3),
            (np.ones((3, 3), complex), 1e3),
            (np.ones(4, complex), 0.0),
        ],
    )
    def test_validation(self, samples, rate):
        with pytest.raises(ValueError):
            SampledSignal(samples, rate)
