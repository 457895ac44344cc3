"""Synthesis kernel tests: periodic interpolation and path superposition.

The reference is an independent direct evaluation of a band-limited periodic
signal at fractional sample positions; the kernel's trigonometric polynomial
must reproduce it, and every sample, to round-off.
"""

import numpy as np
import pytest

from ddsounder import _kernels


def _bandlimited_period(rng, length, max_mode):
    """Random periodic signal with spectral support |m| <= max_mode.

    Returns the sampled period and a callable evaluating the underlying
    continuous signal at arbitrary (fractional) sample positions.
    """
    modes = np.arange(-max_mode, max_mode + 1)
    coef = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)

    def evaluate(u):
        u = np.atleast_1d(np.asarray(u, float))
        return np.exp(2j * np.pi * np.outer(u, modes) / length) @ coef

    return evaluate(np.arange(length)), evaluate


class TestInterpolatePeriodic:
    @pytest.mark.parametrize("length,max_mode", [(7, 3), (105, 50), (8, 3), (16, 7)])
    def test_exact_for_bandlimited_signals(self, length, max_mode):
        rng = np.random.default_rng(5)
        samples, evaluate = _bandlimited_period(rng, length, max_mode)
        u = rng.uniform(0, length, 300)
        np.testing.assert_allclose(
            _kernels.interpolate_periodic(samples, u), evaluate(u), atol=1e-9
        )

    @pytest.mark.parametrize("length", [105, 8])
    def test_on_sample_points_are_identity(self, length):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        u = np.arange(length, dtype=float)
        np.testing.assert_allclose(
            _kernels.interpolate_periodic(samples, u), samples, atol=1e-12
        )

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        samples, _ = _bandlimited_period(rng, 7, 3)
        u = rng.uniform(0, 7, 50)
        np.testing.assert_allclose(
            _kernels.interpolate_periodic(samples, u),
            _kernels.interpolate_periodic(samples, u + 3 * 7),
            atol=1e-9,
        )


class TestSynthesizePaths:
    def _direct(self, evaluate, gains, tau0, dtau, n, t_start, fs, fc):
        t = t_start + np.arange(n) / fs
        out = np.zeros(n, complex)
        for g, a, b in zip(gains, tau0, dtau):
            tau = a + b * (t - t_start)
            out += g * np.exp(-2j * np.pi * fc * tau) * evaluate((t - tau) * fs)
        return out

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        length = 7
        samples, evaluate = _bandlimited_period(rng, length, 3)
        fs, fc = 1.25e6, 60.15e9
        gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        tau0 = rng.uniform(0, 4e-6, 4)
        dtau = rng.uniform(-5e-8, 5e-8, 4)
        got = _kernels.synthesize_paths(
            samples[None, :], np.zeros(4, np.int64), gains, tau0, dtau,
            n_samples=64, t_start=1e-3, sample_rate=fs, carrier_frequency=fc,
        )
        want = self._direct(evaluate, gains, tau0, dtau, 64, 1e-3, fs, fc)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_waveform_index_selects_period(self):
        rng = np.random.default_rng(12)
        p0, _ = _bandlimited_period(rng, 7, 3)
        p1, _ = _bandlimited_period(rng, 7, 3)
        periods = np.stack([p0, p1])
        kw = dict(
            gains=np.array([1.0 + 0j]),
            tau0=np.array([0.0]),
            dtau=np.array([0.0]),
            n_samples=7,
            t_start=0.0,
            sample_rate=1.0,
            carrier_frequency=0.0,
        )
        got0 = _kernels.synthesize_paths(periods, np.array([0]), **kw)
        got1 = _kernels.synthesize_paths(periods, np.array([1]), **kw)
        np.testing.assert_allclose(got0, p0, atol=1e-10)
        np.testing.assert_allclose(got1, p1, atol=1e-10)

    def test_doppler_shift_from_delay_slope(self):
        """A linear delay slope rotates the carrier at -fc * dtau Hz."""
        fs, fc = 1e6, 60e9
        n = 1024
        periods = np.ones((1, 105), complex)  # constant envelope isolates the carrier
        dtau = -1e-8  # approaching: delay shrinks, Doppler +600 Hz
        out = _kernels.synthesize_paths(
            periods, np.array([0]), np.array([1.0 + 0j]), np.array([1e-6]),
            np.array([dtau]), n, 0.0, fs, fc,
        )
        spec = np.fft.fftshift(np.fft.fft(out * np.hanning(n)))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(-fc * dtau, abs=fs / n)

    def test_zero_paths_give_silence(self):
        out = _kernels.synthesize_paths(
            np.ones((1, 7), complex), np.zeros(0, np.int64), np.zeros(0, complex),
            np.zeros(0), np.zeros(0), 16, 0.0, 1.0, 1.0,
        )
        np.testing.assert_array_equal(out, np.zeros(16, complex))

