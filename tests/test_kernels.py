"""Synthesis kernel tests: periodic interpolation and path superposition.

The reference is an independent direct evaluation of a band-limited periodic
signal at fractional sample positions; the kernel's trigonometric polynomial
must reproduce it, and every sample, to round-off.  For the sounder's own
tone combs a 40-digit tone sum is the oracle.
"""

import mpmath
import numpy as np
import pytest
from scipy.constants import c as SPEED_OF_LIGHT

from ddsounder import _kernels
from ddsounder.params import default_config, narrowband_config
from ddsounder.waveform import multitone_waveform, tone_plan


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


def _interpolate(samples, u):
    """The period at fractional indices ``u``: one static path with fc = 0
    per one-sample block, block ``i`` delayed to land on ``u[i]``."""
    u = np.atleast_1d(np.asarray(u, float))
    return _kernels.synthesize_paths(
        np.asarray(samples, complex)[None, :], np.array([0]), np.ones((1, u.size)),
        (np.arange(u.size) - u)[None, :], np.zeros((1, u.size)),
        n_samples=u.size, first_sample=0, sample_rate=1.0, carrier_frequency=0.0,
        block_length=1,
    )


class TestInterpolatePeriodic:
    @pytest.mark.parametrize("length,max_mode", [(7, 3), (105, 50), (8, 3), (16, 7)])
    def test_exact_for_bandlimited_signals(self, length, max_mode):
        rng = np.random.default_rng(5)
        samples, evaluate = _bandlimited_period(rng, length, max_mode)
        u = rng.uniform(0, length, 300)
        np.testing.assert_allclose(
            _interpolate(samples, u), evaluate(u), atol=1e-9
        )

    @pytest.mark.parametrize("length", [105, 8])
    def test_on_sample_points_are_identity(self, length):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        u = np.arange(length, dtype=float)
        np.testing.assert_allclose(
            _interpolate(samples, u), samples, atol=1e-12
        )

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        samples, _ = _bandlimited_period(rng, 7, 3)
        u = rng.uniform(0, 7, 50)
        np.testing.assert_allclose(
            _interpolate(samples, u),
            _interpolate(samples, u + 3 * 7),
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
            samples[None, :], np.zeros(4, np.int64),
            gains[:, None], tau0[:, None], dtau[:, None],
            n_samples=64, first_sample=1250, sample_rate=fs, carrier_frequency=fc,
            block_length=64,
        )
        want = self._direct(evaluate, gains, tau0, dtau, 64, 1250 / fs, fs, fc)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_full_scale_block_matches_direct_evaluation(self):
        """A whole 100 MHz snapshot block at 14 m/s: the drift phase reaches
        about 3e-3 rad across the block, so a drift series taken over the
        whole block instead of over each period misses this tolerance."""
        cfg = default_config()
        fs, fc = cfg.sample_rate, cfg.center_frequency
        length, block = cfg.samples_per_period, cfg.samples_per_snapshot
        rng = np.random.default_rng(13)
        samples, evaluate = _bandlimited_period(rng, length, length // 2)
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        tau0 = rng.uniform(1e-7, 2e-7, 3)
        dtau = np.array([-1.0, 1.0, -0.5]) * 14.0 / 299_792_458.0
        got = _kernels.synthesize_paths(
            samples[None, :], np.zeros(3, np.int64),
            gains[:, None], tau0[:, None], dtau[:, None], block, block, fs, fc, block,
        )
        want = self._direct(evaluate, gains, tau0, dtau, block, block / fs, fs, fc)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))

    def test_blocks_match_one_call_per_block(self):
        rng = np.random.default_rng(14)
        periods = np.stack([_bandlimited_period(rng, 7, 3)[0] for _ in range(2)])
        wf_index = np.array([0, 1, 1])
        gains = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        tau0 = rng.uniform(0, 4e-6, (3, 4))
        dtau = rng.uniform(-5e-8, 5e-8, (3, 4))
        kw = dict(sample_rate=1.25e6, carrier_frequency=60.15e9)
        got = _kernels.synthesize_paths(
            periods, wf_index, gains, tau0, dtau, 3 * 16 + 5, 3, block_length=16, **kw
        )
        want = np.concatenate([
            _kernels.synthesize_paths(
                periods, wf_index, gains[:, b:b + 1], tau0[:, b:b + 1], dtau[:, b:b + 1],
                16, 3 + 16 * b, block_length=16, **kw,
            )
            for b in range(4)
        ])[: 3 * 16 + 5]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_waveform_index_selects_period(self):
        rng = np.random.default_rng(12)
        p0, _ = _bandlimited_period(rng, 7, 3)
        p1, _ = _bandlimited_period(rng, 7, 3)
        periods = np.stack([p0, p1])
        kw = dict(
            gains=np.array([[1.0 + 0j]]),
            tau0=np.array([[0.0]]),
            dtau=np.array([[0.0]]),
            n_samples=7,
            first_sample=0,
            sample_rate=1.0,
            carrier_frequency=0.0,
            block_length=7,
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
            periods, np.array([0]), np.array([[1.0 + 0j]]), np.array([[1e-6]]),
            np.array([[dtau]]), n, 0, fs, fc, n,
        )
        spec = np.fft.fftshift(np.fft.fft(out * np.hanning(n)))
        freqs = np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(-fc * dtau, abs=fs / n)

    def test_zero_paths_give_silence(self):
        out = _kernels.synthesize_paths(
            np.ones((1, 7), complex), np.zeros(0, np.int64), np.zeros((0, 1), complex),
            np.zeros((0, 1)), np.zeros((0, 1)), 16, 0, 1.0, 1.0, 16,
        )
        np.testing.assert_array_equal(out, np.zeros(16, complex))


def _kernel_inputs(rng, cfg, n_blocks):
    """The sounder's two TX periods and five random rays per TX over ``n_blocks``."""
    plans = [tone_plan(cfg, tx) for tx in range(cfg.tx_count)]
    periods = np.stack([multitone_waveform(cfg, plan).samples for plan in plans])
    wf_index = np.repeat(np.arange(cfg.tx_count), 5)
    shape = (wf_index.size, n_blocks)
    gains = 1e-4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tau0 = rng.uniform(40.0, 90.0, shape) / SPEED_OF_LIGHT
    dtau = rng.choice([-14.0, 14.0], shape) / SPEED_OF_LIGHT
    return periods, wf_index, gains, tau0, dtau


class TestPowerTables:
    @pytest.mark.parametrize(
        "make_config,calls",
        [
            # a record's full 12-block calls, then its short last call
            (narrowband_config, [(12, 12.0), (12, 12.0), (12, 12.0), (5, 4.3)]),
            # the full-scale standstill's one-block calls, the last one partial
            (default_config, [(1, 1.0), (1, 1.0), (1, 0.6)]),
        ],
        ids=["desk-record", "full-scale-standstill"],
    )
    def test_reused_tables_match_fresh_calls(self, make_config, calls):
        """Calls of varying block counts through one set of tables give, bit
        for bit, what each gives with fresh tables."""
        cfg = make_config()
        block = cfg.samples_per_snapshot
        rng = np.random.default_rng(21)
        tables = _kernels._PowerTables()
        first = 0
        for n_blocks, blocks_out in calls:
            args = _kernel_inputs(rng, cfg, n_blocks)
            n = round(blocks_out * block)
            kw = dict(n_samples=n, first_sample=first, sample_rate=cfg.sample_rate,
                      carrier_frequency=cfg.center_frequency, block_length=block)
            reused = _kernels.synthesize_paths(*args, **kw, tables=tables)
            fresh = _kernels.synthesize_paths(*args, **kw)
            assert reused.size == n
            np.testing.assert_array_equal(reused, fresh)
            first += n_blocks * block

    def test_doubling_no_worse_than_cumprod(self):
        """Against the exact powers of the rounded base, the doubled tables are
        at least as close as ``cumprod``'s, at counts around powers of two, the
        desk tables' 14 and 15, and up to the full-scale head's 150
        (isqrt(22260) + 1)."""
        rng = np.random.default_rng(22)
        base = np.exp(1j * rng.uniform(-np.pi, np.pi, (12, 210)))
        top = 150
        exact = base.astype(np.clongdouble)[:, None, :] ** np.arange(top)[:, None]
        running = np.empty((12, top, 210), dtype=np.complex128)
        running[:, 0] = 1.0
        running[:, 1:] = base[:, None]
        np.cumprod(running, axis=1, out=running)
        for count in (1, 2, 3, 4, 5, 8, 9, 14, 15, 16, 17, 33, 64, 100, 149, 150):
            doubled = np.empty((12, count, 210), dtype=np.complex128)
            _kernels._powers(base, doubled)
            error = np.max(np.abs(doubled - exact[:, :count]))
            assert error <= np.max(np.abs(running[:, :count] - exact[:, :count])), count


class TestToneSumOracle:
    @pytest.mark.parametrize(
        "make_config,n_blocks",
        [(narrowband_config, 12), (default_config, 1)],
        ids=["desk-chunk", "full-scale-block"],
    )
    def test_matches_40_digit_tone_sum(self, make_config, n_blocks):
        """Five rays per TX at +-14 m/s, mid-drive: at 40 instants the record
        is the exact tone sum to within 1e-11 of its peak."""
        cfg = make_config()
        fs, fc = cfg.sample_rate, cfg.center_frequency
        length, block = cfg.samples_per_period, cfg.samples_per_snapshot
        plans = [tone_plan(cfg, tx) for tx in range(cfg.tx_count)]
        periods = np.stack([multitone_waveform(cfg, plan).samples for plan in plans])
        wf_index = np.repeat(np.arange(cfg.tx_count), 5)
        rng = np.random.default_rng(17)
        shape = (wf_index.size, n_blocks)
        gains = 1e-4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        tau0 = rng.uniform(40.0, 90.0, shape) / SPEED_OF_LIGHT
        dtau = rng.choice([-14.0, 14.0], shape) / SPEED_OF_LIGHT
        first, n = 1000 * block, n_blocks * block
        got = _kernels.synthesize_paths(
            periods, wf_index, gains, tau0, dtau, n, first, fs, fc, block
        )

        with mpmath.workdps(40):
            # the exact harmonics b fs / L of the period, with the plans' weights
            tones = [
                [(mpmath.mpf(round(f * length / fs)) * fs / length, mpmath.mpc(w))
                 for f, w in zip(plan.tone_frequencies, plan.tone_weights)]
                for plan in plans
            ]
            instants = np.unique(np.r_[0, n - 1, rng.choice(n, 38, replace=False)])
            assert instants.size >= 30
            worst = 0.0
            for i in instants.tolist():
                b, u = divmod(i, block)
                t = mpmath.mpf(first + i) / fs
                want = mpmath.mpc(0)
                for p, wf in enumerate(wf_index.tolist()):
                    tau = mpmath.mpf(tau0[p, b]) + mpmath.mpf(dtau[p, b]) * u / fs
                    want += mpmath.mpc(gains[p, b]) * mpmath.fsum(
                        w * mpmath.expjpi(2 * (f * (t - tau) - fc * tau))
                        for f, w in tones[wf]
                    )
                worst = max(worst, abs(complex(want) - got[i]))
        assert worst <= 1e-11 * np.max(np.abs(got))
