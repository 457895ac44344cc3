"""Delay-Doppler transform and multitaper estimator tests.

The symplectic transform has two independent oracles: a planted single tap
whose (delay, Doppler) bin is known in closed form, and the Kronecker
factorization of the vectorized transform matrix.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ddsounder import tfanalysis
from ddsounder.params import ConfigError
from ddsounder.sbl import _UPSAMPLING, sbl_fit
from ddsounder.tfanalysis import (
    DelayDopplerGrid,
    _grid,
    _ranked_maxima,
    dpss_tapers,
    dsd,
    isfft,
    lsf_estimate,
    sfft,
    top_peaks_2d,
    _strict_local_maxima,
)


def _planted_tap(k_count, m_count, delay_bin, doppler_bin):
    """Channel of a single on-grid tap; argmax lands on the planted bin."""
    k = np.arange(k_count)[:, None]
    l = np.arange(m_count)[None, :]
    return np.exp(-2j * np.pi * k * delay_bin / k_count) * np.exp(
        2j * np.pi * l * doppler_bin / m_count
    )


def _strict_maxima(values):
    """Row-major list of the cells above all their in-bounds 8 neighbours."""
    rows, cols = values.shape
    return [
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if all(
            values[i, j] > values[a, b]
            for a in range(max(i - 1, 0), min(i + 2, rows))
            for b in range(max(j - 1, 0), min(j + 2, cols))
            if (a, b) != (i, j)
        )
    ]


def _slice_maxima(values):
    """Strict 8-neighbourhood maxima by shifted 2-D slices, as if padded with
    -inf: the reference for the flat-offset ``_strict_local_maxima``."""
    rows, cols = values.shape
    mask = values > -np.inf
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            here = (
                slice(max(-di, 0), rows - max(di, 0)),
                slice(max(-dj, 0), cols - max(dj, 0)),
            )
            there = (
                slice(max(di, 0), rows - max(-di, 0)),
                slice(max(dj, 0), cols - max(-dj, 0)),
            )
            mask[here] &= values[here] > values[there]
    return mask


def _rand_h(rng, k, m):
    return rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))


class TestSfft:
    @pytest.mark.parametrize("shape", [(3, 4), (21, 32), (21, 360)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(3)
        h = _rand_h(rng, *shape)
        back = isfft(sfft(h))
        assert np.max(np.abs(back - h)) < 1e-10

    @pytest.mark.parametrize("shape", [(3, 4), (21, 32)])
    def test_unitary(self, shape):
        rng = np.random.default_rng(4)
        h = _rand_h(rng, *shape)
        grid = sfft(h)
        assert np.linalg.norm(grid.values) == pytest.approx(np.linalg.norm(h))

    @pytest.mark.parametrize("shape", [(3, 4), (21, 32)])
    def test_kronecker_factorization(self, shape):
        """vec of the (unshifted) transform equals the Kronecker operator."""
        k, m = shape
        rng = np.random.default_rng(5)
        h = _rand_h(rng, k, m)
        grid = sfft(h)
        unshifted = np.fft.ifftshift(grid.values, axes=1)
        f_k = np.fft.fft(np.eye(k)) / np.sqrt(k)
        f_m = np.fft.fft(np.eye(m)) / np.sqrt(m)
        op = np.kron(f_m, f_k.conj().T)
        want = op @ h.flatten(order="F")
        assert np.max(np.abs(unshifted.flatten(order="F") - want)) < 1e-12

    def test_planted_tap_lands_on_its_bin(self):
        k, m = 21, 32
        h = _planted_tap(k, m, delay_bin=5, doppler_bin=3)
        grid = sfft(h)
        row, col = np.unravel_index(np.argmax(np.abs(grid.values)), grid.values.shape)
        assert (row, col) == (5, 3 + m // 2)

    def test_axes_scaling(self, narrowband):
        k, m = 21, 360
        grid = sfft(
            np.ones((k, m), complex),
            tone_spacing=narrowband.tone_spacing,
            snapshot_time=narrowband.snapshot_time,
        )
        assert grid.delay_axis[1] == pytest.approx(1 / (k * narrowband.tone_spacing))
        assert grid.delay_axis[0] == 0.0
        # Doppler axis is fftshift-centered
        assert grid.doppler_axis[m // 2] == 0.0
        step = 1 / (m * narrowband.snapshot_time)
        np.testing.assert_allclose(np.diff(grid.doppler_axis), step)
        assert grid.doppler_axis[0] == pytest.approx(-(m // 2) * step)

    def test_window_start_time_carried(self):
        grid = sfft(np.ones((3, 4), complex), window_start_time=1.25)
        assert grid.window_start_time == 1.25

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            sfft(np.ones(12, complex))


class TestDpss:
    def test_orthonormal(self):
        tapers = dpss_tapers(360, time_bandwidth=2.0, count=3)
        gram = tapers @ tapers.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize(
        "length,count,error,match",
        [(360, 5, ValueError, "tapers exceed"), (4, 3, ConfigError, "taper length 4")],
        ids=["count", "length"],
    )
    def test_count_capped_by_bandwidth(self, length, count, error, match):
        with pytest.raises(error, match=match):
            dpss_tapers(length, time_bandwidth=2.0, count=count)

    def test_shape(self):
        assert dpss_tapers(21, 2.0, 3).shape == (3, 21)

    @pytest.mark.parametrize(
        "length,time_bandwidth,count",
        [(360, 2.0, 3), (21, 2.0, 3), (8, 2.0, 3), (10, 2.0, 4), (128, 2.0, 4),
         (361, 2.0, 1), (1000, 3.5, 7), (5, 1.5, 2)],
    )
    def test_equals_scipy_dpss(self, length, time_bandwidth, count):
        """Bit for bit scipy's tapers: the same eigenproblem, signs and norm."""
        from scipy.signal.windows import dpss

        np.testing.assert_array_equal(
            dpss_tapers(length, time_bandwidth, count),
            dpss(length, time_bandwidth, Kmax=count),
        )

    @staticmethod
    def _lapack(monkeypatch, calls, dstebz_info=0, dstein_info=0):
        """Route the taper solve through a LAPACK handle that records each
        routine it calls and may override its ``info``; the cache starts
        empty."""
        real = tfanalysis._LAPACK

        def routine(name, info):
            def call(*args):
                calls.append(name)
                *out, real_info = getattr(real, name)(*args)
                return (*out, info or real_info)
            return call

        monkeypatch.setattr(tfanalysis, "_LAPACK", SimpleNamespace(
            dstebz=routine("dstebz", dstebz_info), dstein=routine("dstein", dstein_info),
        ))
        tfanalysis._taper_set.cache_clear()

    def test_lsf_solves_each_taper_set_once(self, monkeypatch):
        """Three windows of one shape solve one taper set per side."""
        calls = []
        self._lapack(monkeypatch, calls)
        rng = np.random.default_rng(9)
        for _ in range(3):
            lsf_estimate(_rand_h(rng, 21, 32))
        assert calls == ["dstebz", "dstein"] * 2

    def test_each_call_returns_a_fresh_copy(self):
        """The cached set is read-only; each caller gets its own writable copy."""
        first = dpss_tapers(21, 2.0, 3)
        expected = first.copy()
        first[:] = 0.0
        second = dpss_tapers(21, 2.0, 3)
        assert second.flags.writeable
        np.testing.assert_array_equal(second, expected)
        assert not tfanalysis._taper_set(21, 2.0, 3).flags.writeable

    @pytest.mark.parametrize(
        "info,error,match",
        [({"dstebz_info": -3}, ValueError, "illegal value in argument 3 of internal dstebz"),
         ({"dstein_info": 2}, np.linalg.LinAlgError, "dstein did not converge")],
        ids=["illegal-argument", "no-convergence"],
    )
    def test_lapack_failure_raises_what_scipy_raises(self, monkeypatch, info, error, match):
        self._lapack(monkeypatch, [], **info)
        with pytest.raises(error, match=match):
            dpss_tapers(37, 2.0, 3)

    def test_missing_lapack_extension_names_the_directory(self, tmp_path):
        from importlib.metadata import version

        with pytest.raises(ImportError, match=r"_flapack") as caught:
            tfanalysis._load_lapack(str(tmp_path))
        assert str(tmp_path) in str(caught.value)
        assert f"scipy {version('scipy')}" in str(caught.value)


class TestLsf:
    def test_planted_tap_recovered(self):
        h = _planted_tap(21, 360, delay_bin=4, doppler_bin=10)
        grid = lsf_estimate(h)
        row, col = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert (row, col) == (4, 10 + 180)

    def test_output_real_nonnegative(self):
        rng = np.random.default_rng(6)
        grid = lsf_estimate(_rand_h(rng, 21, 360))
        assert grid.values.dtype == np.float64
        assert np.all(grid.values >= 0)

    def test_taper_leakage_concentrated(self):
        """Multitaper smears a tap over a few bins but keeps >=87% of the
        mass within +-1 bin (frozen against the 3x3 taper pair set)."""
        h = _planted_tap(21, 360, delay_bin=10, doppler_bin=0)
        grid = lsf_estimate(h)
        power = grid.values / grid.values.sum()
        row, col = 10, 180
        joint = power[row - 1 : row + 2, col - 1 : col + 2].sum()
        assert joint > 0.87
        delay_marginal = power.sum(axis=1)
        assert delay_marginal[row - 1 : row + 2].sum() > 0.93

    @pytest.mark.parametrize("shape", [(21, 4), (4, 360)])
    def test_side_too_short_for_tapers_is_config_error(self, shape):
        """Either side of 4 points is at most 2 NW: no Slepian tapers."""
        with pytest.raises(ConfigError, match="taper length 4"):
            lsf_estimate(np.ones(shape, complex))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            lsf_estimate(np.ones(360, complex))

    def test_shares_the_sbl_grid(self, narrowband):
        """On one 21 x 32 desk window the LSF and the SBL fit lay out one
        grid: the same Doppler axis, and every U-th SBL delay bin is an LSF
        delay bin, bit for bit."""
        h = _rand_h(np.random.default_rng(8), 21, 32)
        spacings = (narrowband.tone_spacing, narrowband.snapshot_time)
        lsf = lsf_estimate(h, *spacings)
        gamma = sbl_fit(h, *spacings).gamma
        np.testing.assert_array_equal(gamma.doppler_axis, lsf.doppler_axis)
        np.testing.assert_array_equal(gamma.delay_axis[::_UPSAMPLING], lsf.delay_axis)


class TestDsdAndPeaks:
    def test_dsd_is_delay_marginal(self):
        rng = np.random.default_rng(7)
        grid = lsf_estimate(_rand_h(rng, 21, 360))
        np.testing.assert_allclose(dsd(grid), grid.values.sum(axis=0))

    def test_top_peaks_strict_local_maxima(self):
        values = np.zeros((5, 7))
        values[1, 2] = 5.0
        values[3, 5] = 3.0
        values[0, 0] = 10.0  # edge: padded with -inf, still a local max
        grid = DelayDopplerGrid(values, np.arange(5.0), np.arange(7.0) - 3)
        peaks = top_peaks_2d(grid, 3)
        assert peaks.count == 3
        assert [(p.delay, p.doppler) for p in peaks.entries] == [
            (0.0, -3.0),
            (1.0, -1.0),
            (3.0, 2.0),
        ]
        assert [p.power for p in peaks.entries] == [10.0, 5.0, 3.0]

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (9, 10), (84, 360)]
    )
    @pytest.mark.parametrize("surface", ["normal", "quantized", "with_inf"])
    def test_strict_local_maxima_match_slice_oracle(self, shape, surface):
        """Random surfaces, ties and plateaus (values in {0..3}), and -inf and
        NaN cells: the flat-offset mask equals the 2-D slice mask."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            if surface == "normal":
                values = rng.standard_normal(shape)
            else:
                values = rng.integers(0, 4, shape).astype(float)
            if surface == "with_inf":
                values[rng.random(shape) < 0.3] = -np.inf
                values[rng.random(shape) < 0.05] = np.nan
            got = _strict_local_maxima(values)
            assert got.shape == shape
            np.testing.assert_array_equal(got, _slice_maxima(values))

    def test_plateau_is_not_a_peak(self):
        values = np.zeros((4, 4))
        values[1, 1] = values[1, 2] = 2.0  # flat top: not strictly greater
        grid = DelayDopplerGrid(values, np.arange(4.0), np.arange(4.0))
        assert top_peaks_2d(grid, 4).count == 0

    def test_constant_surface_has_no_peaks(self):
        grid = DelayDopplerGrid(np.ones((4, 4)), np.arange(4.0), np.arange(4.0))
        assert top_peaks_2d(grid, 2).count == 0

    def test_count_caps_result(self):
        rng = np.random.default_rng(8)
        grid = DelayDopplerGrid(
            rng.standard_normal((20, 20)), np.arange(20.0), np.arange(20.0)
        )
        assert top_peaks_2d(grid, 4).count == 4

    @pytest.mark.parametrize("surface", ["planted", "quantized"])
    def test_tie_order_matches_sorted_oracle(self, surface):
        delay = np.arange(9.0)
        doppler = np.arange(10.0) - 5  # -5..4: offsets -k and +k tie in |Doppler|
        if surface == "planted":
            values = np.zeros((9, 10))
            values[2, 5 - 3] = 5.0  # ties (6, 0) in value, wins on delay
            values[6, 5] = 5.0
            values[4, 5 - 2] = 5.0  # ties (4, +2) in value, delay and |Doppler|
            values[4, 5 + 2] = 5.0
            values[0, 5 + 4] = 7.0
            values[8, 5 - 1] = 5.0  # ties (8, +1) likewise; row-major keeps -1 first
            values[8, 5 + 1] = 4.0
        else:
            values = np.random.default_rng(9).integers(0, 4, (9, 10)).astype(float)
        grid = DelayDopplerGrid(values, delay, doppler)
        maxima = _strict_maxima(values)
        oracle = sorted(
            maxima, key=lambda ij: (-values[ij], delay[ij[0]], abs(doppler[ij[1]]))
        )
        expected = [(delay[i], doppler[j], values[i, j]) for i, j in oracle]
        # every count cuts the ranking somewhere, through ties or not
        for count in range(1, len(maxima) + 2):
            got = top_peaks_2d(grid, count).entries
            assert [(p.delay, p.doppler, p.power) for p in got] == expected[:count]
        if surface == "planted":
            assert [(p.delay, p.doppler) for p in got[:4]] == [
                (0.0, 4.0), (2.0, -3.0), (4.0, -2.0), (4.0, 2.0)
            ]

    def test_peak_select_tie_order_on_sbl_sized_surface(self):
        """An SBL-sized surface (84 delay bins x 360 Doppler bins) quantized
        to {0..3}: hundreds of maxima share each value, so most counts cut
        through a tie."""
        values = np.random.default_rng(10).integers(0, 4, (84, 360)).astype(float)
        maxima = _strict_maxima(values)
        oracle = sorted(maxima, key=lambda ij: (-values[ij], ij[0], abs(ij[1] - 180)))
        assert len(oracle) > 500
        grid = _grid(values, 1.0, 1.0, 0.0)
        for count in range(1, len(maxima) + 2):
            assert _ranked_maxima(grid, count) == oracle[:count]

    def test_complex_values_rejected(self):
        grid = sfft(np.ones((3, 4), complex))
        with pytest.raises(ValueError):
            top_peaks_2d(grid, 1)


class TestGridType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DelayDopplerGrid(np.ones((3, 4)), np.arange(5.0), np.arange(4.0))
        with pytest.raises(ValueError):
            DelayDopplerGrid(np.ones(4), np.arange(4.0), np.arange(4.0))
        for transform in (sfft, lsf_estimate):
            for spacings in ({"tone_spacing": 0.0}, {"snapshot_time": -1.0}):
                with pytest.raises(ValueError, match="spacings must be positive"):
                    transform(np.ones((21, 32), complex), **spacings)
