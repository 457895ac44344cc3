"""Sparse Bayesian delay-Doppler recovery tests.

Single-window planted-tap cases with known atoms; the 20-trial
super-resolution statistics live in the acceptance suite.
"""

import numpy as np
import pytest

from ddsounder import sbl
from ddsounder.channel import default_scenario, transfer_function
from ddsounder.params import ConfigError
from ddsounder.sbl import (
    _GAMMA_INIT,
    _NOISE_VAR_INIT,
    _UPSAMPLING,
    SparseModel,
    _levinson,
    sbl_fit,
)
from ddsounder.tfanalysis import (
    _grid,
    _ranked_maxima,
    _signal_columns,
    lsf_estimate,
    top_peaks_2d,
)
from ddsounder.waveform import tone_plan

K, M, U = 21, 32, _UPSAMPLING


@pytest.fixture(scope="module")
def model():
    return SparseModel(tone_count=K, window_length=M)


def _window_from_atoms(model, entries, noise=None):
    """(K, M) window holding sum of c * atom(n, j) plus optional noise."""
    vec = sum(c * model.column(n, j) for c, n, j in entries)
    h = vec.reshape(M, K).T.copy()
    if noise is not None:
        h = h + noise
    return h


def _dense_gamma_update(atoms, gamma, noise_var, h_hat):
    """One fixed-point update from explicit covariance blocks (test oracle).

    Forms every Doppler block ``sigma^2 I + A diag(gamma_m) A^H`` densely,
    solves it against the data and all delay atoms at once, and applies
    ``gamma *= |a^H S^-1 h|^2 / a^H S^-1 a``.
    """
    n_tones = atoms.shape[0]
    blocks = np.einsum(
        "kn,mn,jn->mkj", atoms, gamma, atoms.conj(), optimize=True
    )
    blocks[:, np.arange(n_tones), np.arange(n_tones)] += noise_var
    rhs = np.concatenate(
        [h_hat[:, :, None], np.broadcast_to(atoms, (len(gamma),) + atoms.shape)],
        axis=2,
    )
    solved = np.linalg.solve(blocks, rhs)
    filtered = np.einsum("kn,mk->mn", atoms.conj(), solved[:, :, 0])
    self_response = np.einsum(
        "kn,mkn->mn", atoms.conj(), solved[:, :, 1:], optimize=True
    ).real
    return gamma * np.abs(filtered) ** 2 / np.clip(self_response, 1e-300, None)


def _reference_fit(h, active_set_size=10, iterations=10):
    """``sbl_fit``'s loop with the dense update: (gamma surface, peaks, noise_var)."""
    n_tones, n_snapshots = h.shape
    total = n_tones * n_snapshots
    energy = np.vdot(h, h).real
    model = SparseModel(n_tones, n_snapshots)
    atoms = model.delay_atoms()
    h_hat = (np.fft.fft(h, axis=1) / np.sqrt(n_snapshots)).T
    h_vec = h.flatten(order="F")
    gamma = np.full((n_snapshots, model.delay_bins), _GAMMA_INIT)
    noise_var = _NOISE_VAR_INIT
    noise_floor = 1e-9 * energy / total
    for _ in range(iterations):
        gamma = _dense_gamma_update(atoms, gamma, noise_var, h_hat)
        surface = np.fft.fftshift(gamma.T, axes=1)
        selected = _ranked_maxima(_grid(surface, 1.0, 1.0, 0.0), active_set_size)
        basis = np.stack(
            [
                model.column(n, (j - n_snapshots // 2) % n_snapshots)
                for n, j in selected
            ],
            axis=1,
        )
        amplitudes, *_ = np.linalg.lstsq(basis, h_vec, rcond=None)
        residual = h_vec - basis @ amplitudes
        noise_var = np.vdot(residual, residual).real / (total - len(selected))
        noise_var = max(noise_var, noise_floor)
    return surface, selected, noise_var


class TestSparseModel:
    def test_atom_columns_unit_norm(self, model):
        atoms = model.delay_atoms()
        np.testing.assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-12)
        assert atoms.shape == (K, U * K)

    def test_column_unit_norm(self, model):
        col = model.column(17, 5)
        assert np.linalg.norm(col) == pytest.approx(1.0)
        assert col.size == K * M

    def test_column_is_doppler_dft_times_delay_atom(self, model):
        """A column is the Kronecker product that sbl_fit's least squares
        builds from ``delay_atoms`` after its unitary Doppler FFT."""
        doppler = np.exp(2j * np.pi * np.arange(M) * 5 / M) / np.sqrt(M)
        expected = np.kron(doppler, model.delay_atoms()[:, 17])
        np.testing.assert_allclose(model.column(17, 5), expected, atol=1e-12)

    def test_axes(self):
        assert SparseModel(K, M).delay_bins == U * K

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tone_count": 1, "window_length": M},
            {"tone_count": K, "window_length": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SparseModel(**kwargs)

    def test_column_index_bounds(self, model):
        with pytest.raises(ValueError):
            model.column(U * K, 0)
        with pytest.raises(ValueError):
            model.column(0, M)


class TestPeakSelect:
    def test_indices_of_largest_maxima(self):
        values = np.zeros((6, 8))
        values[2, 3] = 4.0
        values[4, 6] = 9.0
        assert _ranked_maxima(_grid(values, 1.0, 1.0, 0.0), 5) == [(4, 6), (2, 3)]

    def test_tie_prefers_center_column(self):
        # equal peaks symmetric around the center column: the one closer
        # to zero Doppler offset (col 4 on an 8-wide grid) wins
        values = np.zeros((5, 8))
        values[2, 3] = 1.0
        values[2, 6] = 1.0
        first = _ranked_maxima(_grid(values, 1.0, 1.0, 0.0), 1)[0]
        assert first == (2, 3)  # offset -1 beats offset +2


class TestSblFit:
    def test_single_tap_noiseless(self, model):
        h = _window_from_atoms(model, [(3.0 + 1j, 40, 5)])
        result = sbl_fit(h)
        assert result.peaks.count >= 1
        top = result.peaks.entries[0]
        # normalized axes: delay bin 40 of 84, Doppler bin 5 -> +5/32
        assert top.delay == pytest.approx(40 / (U * K))
        assert top.doppler == pytest.approx(5 / M)
        assert result.amplitudes[0] == pytest.approx(3.0 + 1j, rel=1e-6)
        assert result.residual_power < 1e-12 * np.vdot(h, h).real

    def test_two_taps_half_native_bin_apart(self, model):
        """5 ns at 100 MHz scale = 2 upsampled bins; both must survive."""
        rng = np.random.default_rng(100)
        taps = [(1.0, 40, 5), (1.0j, 42, 5)]
        clean = _window_from_atoms(model, taps)
        snr = 10 ** (25 / 10)
        nv = np.mean(np.abs(clean) ** 2) / snr
        noise = np.sqrt(nv / 2) * (
            rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        )
        result = sbl_fit(clean + noise)
        got = {
            int(round(p.delay * U * K))
            for p in result.peaks.entries
            if abs(p.doppler - 5 / M) < 0.5 / M
        }
        assert any(abs(b - 40) <= 1 for b in got)
        assert any(abs(b - 42) <= 1 for b in got)

    def test_noise_variance_calibrated(self, model):
        rng = np.random.default_rng(200)
        clean = _window_from_atoms(model, [(2.0, 12, 3)])
        nv = np.mean(np.abs(clean) ** 2) / 10 ** (20 / 10)
        noise = np.sqrt(nv / 2) * (
            rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        )
        result = sbl_fit(clean + noise)
        error_db = abs(10 * np.log10(result.noise_var / nv))
        assert error_db < 3.0

    def test_native_grid_reconstruction(self, model):
        """Taps on native delay bins: the active atoms reproduce the window
        within the noise."""
        rng = np.random.default_rng(7)
        taps = [(2.0, 4 * U, 3), (1.5j, 9 * U, 28), (0.8, 15 * U, 0)]
        clean = _window_from_atoms(model, taps)
        nv = 1e-4
        noise = np.sqrt(nv / 2) * (
            rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        )
        h = clean + noise
        result = sbl_fit(h)
        # rebuild the fitted window from the reported peaks and amplitudes
        rebuilt = np.zeros_like(h)
        for amp, peak in zip(result.amplitudes, result.peaks.entries):
            n = int(round(peak.delay * U * K))
            j = int(round(peak.doppler * M)) % M
            rebuilt += amp * model.column(n, j).reshape(M, K).T
        residual = np.vdot(h - rebuilt, h - rebuilt).real
        noise_energy = np.vdot(noise, noise).real
        assert residual <= 2.0 * noise_energy
        assert result.residual_power == pytest.approx(residual, rel=1e-9)

    def test_gamma_surface_axes(self):
        h = np.ones((K, M), complex)
        result = sbl_fit(h, tone_spacing=47619.0, snapshot_time=168e-6)
        grid = result.gamma
        assert grid.values.shape == (U * K, M)
        assert grid.delay_axis[1] == pytest.approx(1 / (U * K * 47619.0))
        assert grid.doppler_axis[M // 2] == 0.0
        assert grid.doppler_axis[0] == pytest.approx(-(M // 2) / (M * 168e-6))

    @pytest.mark.parametrize("window", ["pass-by", "noise"])
    def test_active_set_is_the_ranked_peaks_of_gamma(self, narrowband, window):
        """The fit's peaks are ``top_peaks_2d`` of its own variance surface:
        SBL and the LSF rank their surfaces by one rule."""
        shape = (narrowband.tone_count, 64)
        rng = np.random.default_rng(302)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if window == "pass-by":
            times = 2.5 + np.arange(64) * narrowband.snapshot_time
            plan = tone_plan(narrowband, 0)
            h = transfer_function(default_scenario(), narrowband, plan, times).T
            h = h + 0.1 * np.sqrt(np.mean(np.abs(h) ** 2) / 2) * noise
            iterations = 10
        else:
            h, iterations = noise, 1
        spacings = (narrowband.tone_spacing, narrowband.snapshot_time)
        fit = sbl_fit(h, *spacings, active_set_size=10, iterations=iterations)
        assert fit.peaks.count == 10
        assert fit.peaks.entries == top_peaks_2d(fit.gamma, 10).entries

    def test_runs_configured_iterations(self):
        h = np.ones((K, M), complex)
        result = sbl_fit(h, iterations=3)
        assert result.iterations == 3

    @pytest.mark.parametrize(
        "window,err",
        [
            (np.ones(8, complex), "2-D"),
            (np.full((K, M), np.nan, complex), "non-finite"),
            (np.zeros((K, M), complex), "zero"),
            (np.ones((3, 3), complex), "active set"),
        ],
    )
    def test_input_guards(self, window, err):
        with pytest.raises(ValueError, match=err):
            sbl_fit(window)

    @pytest.mark.parametrize(
        "spacings", [{"tone_spacing": -1.0}, {"snapshot_time": 0.0}]
    )
    def test_non_positive_spacing_rejected_before_any_pass(self, monkeypatch, spacings):
        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(sbl, "_atom_responses", no_pass)
        with pytest.raises(ValueError, match="spacings must be positive"):
            sbl_fit(np.ones((K, M), complex), **spacings)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sbl_fit(np.ones((K, M), complex), iterations=0)

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            ({"active_set_size": 2.5}, "active_set_size"),
            ({"iterations": 2.5}, "iterations"),
            ({"active_set_size": True}, "active_set_size"),
            ({"iterations": True}, "iterations"),
        ],
    )
    def test_config_rejects_non_finite_and_non_integer(self, kwargs, named):
        with pytest.raises(ConfigError, match=named):
            sbl_fit(np.ones((K, M), complex), **kwargs)

    @pytest.mark.parametrize("iterations", [1, 6])
    def test_per_pass_trace(self, model, iterations):
        rng = np.random.default_rng(300)
        noise = 0.05 * (rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M)))
        h = _window_from_atoms(model, [(2.0, 12, 3), (1.0j, 50, 20)], noise)
        result = sbl_fit(h, iterations=iterations, active_set_size=4)
        for trace in (
            result.noise_var_trace,
            result.residual_power_trace,
            result.churn_trace,
        ):
            assert trace.shape == (iterations,)
        assert result.noise_var_trace[-1] == result.noise_var
        assert result.residual_power_trace[-1] == result.residual_power
        # every atom of the first pass is new; later passes swap at most all
        assert result.churn_trace[0] == result.peaks.count == 4
        assert np.all((result.churn_trace >= 0) & (result.churn_trace <= 4))


    def test_repeat_fit_is_bitwise_and_keeps_first_result(self, model):
        """Each call's work buffers are its own: a second fit of the same window
        repeats the first bit for bit and leaves the first result as it was."""
        rng = np.random.default_rng(301)
        noise = 0.05 * (rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M)))
        h = _window_from_atoms(model, [(2.0, 12, 3), (1.0j, 50, 20)], noise)
        settings = {"iterations": 4, "active_set_size": 4}
        first = sbl_fit(h, **settings)
        kept = first.gamma.values.copy()
        second = sbl_fit(h, **settings)
        assert second.gamma.values is not first.gamma.values
        assert first.gamma.values.tobytes() == kept.tobytes()
        assert second.gamma.values.tobytes() == kept.tobytes()
        assert second.peaks.entries == first.peaks.entries
        assert second.amplitudes.tobytes() == first.amplitudes.tobytes()
        for name in ("noise_var_trace", "residual_power_trace", "churn_trace"):
            assert getattr(second, name).tobytes() == getattr(first, name).tobytes()


def _planted_window(upsampling, n_snapshots, snr_db=None, n_tones=K):
    """Three on-grid taps, plus white noise at ``snr_db`` unless it is None."""
    native = SparseModel(n_tones, n_snapshots)
    taps = [
        (2.0, 3, 4),
        (1.0j, 5 * upsampling + 1, 4),
        (0.7 - 0.3j, min(9, n_tones - 2) * upsampling, 27),
    ]
    vec = sum(c * native.column(n, j) for c, n, j in taps)
    h = vec.reshape(n_snapshots, n_tones).T.copy()
    if snr_db is not None:
        rng = np.random.default_rng(upsampling * 100 + n_snapshots)
        nv = np.mean(np.abs(h) ** 2) / 10 ** (snr_db / 10)
        h += np.sqrt(nv / 2) * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
    return h


def _peak_indices(result, upsampling, n_snapshots, n_tones=K):
    return [
        (
            round(p.delay * upsampling * n_tones),
            round(p.doppler * n_snapshots) + n_snapshots // 2,
        )
        for p in result.peaks.entries
    ]


class TestDenseOracle:
    """``sbl_fit``'s structured Toeplitz update against dense covariance blocks."""

    # sbl_fit's one delay grid; the parameter keeps the cases' names
    @pytest.mark.parametrize("n_snapshots", [31, 32])
    @pytest.mark.parametrize("upsampling", [U])
    def test_matches_dense_reference(self, upsampling, n_snapshots):
        h = _planted_window(upsampling, n_snapshots, snr_db=25.0)
        surface, selected, noise_var = _reference_fit(h)
        result = sbl_fit(h)
        # relative to the surface maximum: entries down at 1e-40 carry the
        # reference's own round-off
        np.testing.assert_allclose(
            result.gamma.values, surface, rtol=0, atol=1e-9 * surface.max()
        )
        assert _peak_indices(result, upsampling, n_snapshots) == selected
        assert result.noise_var == pytest.approx(noise_var, rel=1e-9)

    @pytest.mark.parametrize("n_snapshots", [31, 32])
    @pytest.mark.parametrize("upsampling", [U])
    @pytest.mark.parametrize("n_tones", [8, 20])
    def test_matches_dense_reference_other_tone_counts(
        self, n_tones, upsampling, n_snapshots
    ):
        """Even K, and lag correlations of 15 (= 2K - 1) and 40 points."""
        h = _planted_window(upsampling, n_snapshots, snr_db=25.0, n_tones=n_tones)
        surface, selected, noise_var = _reference_fit(h)
        result = sbl_fit(h)
        np.testing.assert_allclose(
            result.gamma.values, surface, rtol=0, atol=1e-9 * surface.max()
        )
        assert _peak_indices(result, upsampling, n_snapshots, n_tones) == selected
        assert result.noise_var == pytest.approx(noise_var, rel=1e-9)

    @pytest.mark.parametrize("upsampling,n_snapshots", [(U, 31), (U, 32)])
    def test_noise_free_window_at_floor(self, upsampling, n_snapshots):
        """At the noise floor cond(Sigma) ~ 1e11: the fast path's inverse lag
        sums round at ~eps/floor, so gamma agrees to ~1e-4, not 1e-9."""
        h = _planted_window(upsampling, n_snapshots)
        surface, selected, noise_var = _reference_fit(h)
        result = sbl_fit(h)
        floor = 1e-9 * np.vdot(h, h).real / h.size
        assert noise_var == pytest.approx(floor, rel=1e-12)
        assert result.noise_var == pytest.approx(floor, rel=1e-12)
        # the planted taps lead both lists; the rest are round-off maxima
        # (gamma < 1e-60) whose order is arbitrary
        center = n_snapshots // 2
        planted = [(3, center + 4), (5 * upsampling + 1, center + 4)]
        assert selected[:2] == planted
        assert _peak_indices(result, upsampling, n_snapshots)[:3] == selected[:3]
        np.testing.assert_allclose(
            result.gamma.values, surface, rtol=0, atol=1e-3 * surface.max()
        )


def _toeplitz_blocks(rng, n_tones, n_blocks, cond):
    """Hermitian positive-definite Toeplitz blocks ``A diag(gamma) A^H + s I``.

    ``gamma`` holds ``K/2`` random atoms per block, so ``A diag(gamma) A^H``
    is singular and ``s`` sets the condition number.
    """
    atoms = SparseModel(n_tones, 2).delay_atoms()
    gamma = np.zeros((n_blocks, atoms.shape[1]))
    for m in range(n_blocks):
        picked = rng.choice(atoms.shape[1], size=n_tones // 2, replace=False)
        gamma[m, picked] = rng.exponential(size=picked.size)
    blocks = np.einsum("kn,mn,jn->mkj", atoms, gamma, atoms.conj())
    loading = np.linalg.eigvalsh(blocks)[:, -1] / cond
    blocks[:, np.arange(n_tones), np.arange(n_tones)] += loading[:, None]
    return blocks


class TestLevinson:
    """The batched Levinson recursion against ``np.linalg.solve``."""

    @pytest.mark.parametrize("n_tones", [8, 21])
    @pytest.mark.parametrize("log_cond", [1, 3, 5, 7, 9, 11])
    def test_matches_dense_solve(self, n_tones, log_cond):
        rng = np.random.default_rng(10 * n_tones + log_cond)
        n_blocks = 48
        blocks = _toeplitz_blocks(rng, n_tones, n_blocks, 10.0**log_cond)
        data = rng.standard_normal((n_tones, n_blocks)) + 1j * rng.standard_normal(
            (n_tones, n_blocks)
        )
        first, solution = _levinson(blocks[:, :, 0].T.copy(), data)

        rhs = np.zeros((n_blocks, n_tones, 2), dtype=complex)
        rhs[:, 0, 0] = 1.0
        rhs[:, :, 1] = data.T
        expected = np.linalg.solve(blocks, rhs)
        # both solvers err by about cond * eps; allow 10 K times that
        bound = 10 * n_tones * np.linalg.cond(blocks) * np.finfo(float).eps
        for got, want in (
            (first.T, expected[:, :, 0]),
            (solution.T, expected[:, :, 1]),
        ):
            error = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert np.all(error <= bound)


def _three_column_window(n_snapshots=64):
    """Three taps in Doppler columns 5, 6 and 40 (FFT order) at 20 dB SNR."""
    model = SparseModel(K, n_snapshots)
    taps = [(2.0, 12, 5), (1.0j, 50, 6), (0.8 - 0.4j, 30, 40)]
    h = sum(c * model.column(n, j) for c, n, j in taps).reshape(n_snapshots, K).T.copy()
    rng = np.random.default_rng(401)
    nv = np.mean(np.abs(h) ** 2) / 10 ** (20 / 10)
    h += np.sqrt(nv / 2) * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
    return h, [j for _, _, j in taps]


def _assert_same_fit(got, want, kept):
    """``got`` is ``want`` bit for bit on the ``kept`` surface columns, and
    its variance surface is 0 elsewhere."""
    assert got.peaks.entries == want.peaks.entries
    for name in ("amplitudes", "noise_var_trace", "residual_power_trace", "churn_trace"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.noise_var == want.noise_var
    assert got.residual_power == want.residual_power
    assert got.gamma.values[:, kept].tobytes() == want.gamma.values[:, kept].tobytes()
    assert not got.gamma.values[:, ~kept].any()


class TestFittedColumns:
    """``sbl_fit(columns=...)`` fits only the given Doppler columns."""

    def test_kept_columns_are_the_full_fit_where_the_active_set_stays(self):
        """With the taps' columns and their neighbours kept, the active set
        of the full fit never leaves them, so the fit is the full fit bit for
        bit: peaks, amplitudes, traces and gamma on the kept columns."""
        n_snapshots = 64
        h, dopplers = _three_column_window(n_snapshots)
        kept = np.zeros(n_snapshots, dtype=bool)
        for j in dopplers:
            kept[(j + np.arange(-1, 2) + n_snapshots // 2) % n_snapshots] = True
        full = sbl_fit(h, active_set_size=3)
        assert all(kept[round(p.doppler * n_snapshots) + n_snapshots // 2]
                   for p in full.peaks.entries)
        _assert_same_fit(sbl_fit(h, active_set_size=3, columns=kept), full, kept)

    def test_every_column_is_the_default_fit(self):
        h = _planted_window(U, 32, snr_db=25.0)
        kept = np.ones(32, dtype=bool)
        _assert_same_fit(sbl_fit(h, columns=kept), sbl_fit(h), kept)

    @pytest.mark.parametrize(
        "columns",
        [np.ones(31, dtype=bool), np.ones(32, dtype=int), np.zeros(32, dtype=bool),
         np.ones((1, 32), dtype=bool)],
        ids=["length", "dtype", "none-kept", "shape"],
    )
    def test_bad_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="columns"):
            sbl_fit(_planted_window(U, 32, snr_db=25.0), columns=columns)

    def test_signal_columns_keep_a_tap_lobe_and_its_neighbours(self):
        """One tap at 0 dB SNR: its LSF lobe, the 2 NW + 1 = 5 columns
        around it, is the only signal, and one column on either side of it
        is kept too."""
        n_snapshots = 64
        model = SparseModel(K, n_snapshots)
        h = model.column(40, 5).reshape(n_snapshots, K).T.copy()
        rng = np.random.default_rng(402)
        nv = np.mean(np.abs(h) ** 2)
        h += np.sqrt(nv / 2) * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        surface = lsf_estimate(h)
        kept = _signal_columns(surface)
        lobe = np.any(surface.values > 4 * np.median(surface.values), axis=0)
        tap = 5 + n_snapshots // 2
        assert kept.dtype == np.bool_ and kept.shape == (n_snapshots,)
        assert np.flatnonzero(lobe).tolist() == list(range(tap - 2, tap + 3))
        assert np.flatnonzero(kept).tolist() == list(range(tap - 3, tap + 4))

    def test_signal_columns_keep_the_maximum_and_wrap(self):
        """A flat surface has no bin above 4x its median: the column of its
        first maximum is kept, with its neighbours across the wrap."""
        values = np.ones((U * K, 32))
        kept = _signal_columns(_grid(values, 1.0, 1.0, 0.0))
        assert np.flatnonzero(kept).tolist() == [0, 1, 31]
