"""Sparse Bayesian recovery of delay-Doppler paths from one channel window.

The tone-time window is modelled as a sparse superposition of dictionary
atoms on a delay-Doppler grid whose delay axis is upsampled by a fixed
``U = 4`` beyond the native ``1/(K tone_spacing)`` resolution.  K and M
come from the window's shape, and the surface's axes and peaks come from
the grid and peak builders of :mod:`ddsounder.tfanalysis`, so every U-th
delay bin and every Doppler bin is a bin of the same window's multitaper
LSF.  A multiplicative fixed-point update sharpens one variance weight per
atom; the surviving local maxima of the variance surface form the active set
and calibrate the noise floor.  The active set is picked by the ranking that
orders the LSF's peaks (:func:`ddsounder.tfanalysis.top_peaks_2d`), so the
two peak lists are ordered by one rule.

No pass builds a covariance matrix or a full-length basis.  The dictionary
is a Kronecker product of a Doppler DFT and an upsampled delay comb, so
after a unitary FFT across snapshots the covariance block-diagonalizes into
M ``K x K`` blocks, one per Doppler bin.  The delay atoms are K rows of a
``UK``-point DFT, so every block is Hermitian Toeplitz with a first column
that is an FFT of that block's variances.  Per pass, one Levinson recursion
across all blocks gives each block's inverse first column and its whitened
data; FFTs turn these into the matched-filter and self-responses of all
``UK`` atoms.  The active-set least squares splits the same way: only the
Doppler bins that hold an active atom enter it.  Each fit allocates its
transform and response arrays once, and every pass writes into them.

A fit may be given the Doppler columns to fit (``columns``; analyze passes
the columns where the window's LSF sees signal).  Every pass then runs on
those blocks alone and the others keep a variance of 0; the noise variance
and the ranking still take in the whole window.  The recursion and the FFTs
work block by block, so a kept block's bits are those of the full fit for as
long as the active set stays within the kept columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ConfigError, _smooth_length
from .tfanalysis import DelayDopplerGrid, PeakList, _grid, _peak_list, _ranked_maxima

__all__ = [
    "SparseModel",
    "SBLResult",
    "sbl_fit",
]


# Delay bins per native delay bin of every fit.  At U >= 2 the real transform
# of a Doppler block's variances has more than K bins, so no lag aliases.
_UPSAMPLING = 4


@dataclass
class SparseModel:
    """Delay-Doppler dictionary for a ``K x M`` tone-time window.

    Atoms are unit-norm Kronecker products: delay index ``n`` contributes
    ``exp(-2j pi k n / (U K)) / sqrt(K)`` across tones and Doppler index
    ``m`` contributes ``exp(+2j pi l m / M) / sqrt(M)`` across snapshots,
    with ``U = _UPSAMPLING``, the one delay grid that :func:`sbl_fit` fits.
    Doppler indices are in FFT order (non-negative first); windows are
    vectorized snapshot-major.
    """

    tone_count: int
    window_length: int

    def __post_init__(self):
        for name in ("tone_count", "window_length"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.tone_count < 2 or self.window_length < 2:
            raise ValueError("model needs at least 2 tones and 2 snapshots")

    @property
    def delay_bins(self) -> int:
        return _UPSAMPLING * self.tone_count

    def delay_atoms(self) -> np.ndarray:
        """``(K, U*K)`` matrix of per-tone delay responses, unit columns."""
        k = np.arange(self.tone_count)[:, None]
        n = np.arange(self.delay_bins)[None, :]
        return np.exp(-2j * np.pi * k * n / self.delay_bins) / np.sqrt(
            self.tone_count
        )

    def column(self, delay_index: int, doppler_index: int) -> np.ndarray:
        """One vectorized atom (snapshot-major, length ``K*M``)."""
        if not 0 <= delay_index < self.delay_bins:
            raise ValueError("delay index out of range")
        if not 0 <= doppler_index < self.window_length:
            raise ValueError("Doppler index out of range")
        l = np.arange(self.window_length)
        b = np.exp(2j * np.pi * l * doppler_index / self.window_length) / np.sqrt(
            self.window_length
        )
        return np.outer(b, self.delay_atoms()[:, delay_index]).ravel()


# Every fit starts from a flat variance surface and this noise variance.
_GAMMA_INIT = 1.0
_NOISE_VAR_INIT = 0.1


def _check_settings(active_set_size, iterations) -> None:
    """``ConfigError`` unless the active set size and the pass count are
    positive integers."""
    for name, value in (("active_set_size", active_set_size), ("iterations", iterations)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")


@dataclass
class SBLResult:
    """Outcome of one window fit.

    ``gamma`` is the per-atom variance surface (delay by centered Doppler),
    0 in the Doppler columns the fit left out;
    ``peaks`` are its selected local maxima in physical units with the
    variance as power; ``amplitudes`` are least-squares coefficients of the
    active atoms, aligned with ``peaks.entries``.  The ``*_trace`` arrays
    hold one entry per pass: the noise variance and residual power after
    it, and the churn, the number of active atoms not active in the pass
    before (the whole set on the first pass).  Their last entries are
    ``noise_var`` and ``residual_power``.
    """

    gamma: DelayDopplerGrid
    peaks: PeakList
    amplitudes: np.ndarray
    noise_var: float
    residual_power: float
    iterations: int = 0
    noise_var_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    residual_power_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    churn_trace: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def _levinson(col: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve M Hermitian positive-definite Toeplitz systems at once.

    ``col`` and ``data`` are ``(K, M)``: column m is block m's first column
    and right-hand side.  Levinson-Durbin (Levinson 1947, Durbin 1960) grows
    the predictor ``p`` with ``T_n p = (P_n, 0, ..., 0)``, ``P_n`` the
    prediction-error power, one order per step for every block: its
    residual against the next lag gives the reflection coefficient, and the
    update adds the reversed conjugate predictor.  That reversed predictor
    solves ``T_n q = (0, ..., 0, P_n)``, so the same step extends the
    solution of ``T_n x = data[:n]`` by one row.  On positive-definite
    blocks this is as stable as Cholesky (Cybenko 1980).  Returns the
    inverse's first column ``p / P_{K-1}`` and ``T^-1 data``.
    """
    n_tones = col.shape[0]
    predictor = np.zeros_like(col)
    predictor[0] = 1.0
    # the reversed conjugate predictor, times the step's coefficient
    flipped = np.empty_like(col)
    power = col[0].real.copy()
    solution = np.zeros_like(data)
    solution[0] = data[0] / power
    for n in range(1, n_tones):
        lags = col[n:0:-1]
        reflection = np.einsum("jm,jm->m", lags, predictor[:n])
        reflection /= power
        np.negative(reflection, out=reflection)
        update = np.conjugate(predictor[n::-1], out=flipped[: n + 1])
        update *= reflection
        predictor[: n + 1] += update
        power *= 1.0 - (reflection.real**2 + reflection.imag**2)
        step = data[n] - np.einsum("jm,jm->m", lags, solution[:n])
        step /= power
        update = np.conjugate(predictor[n::-1], out=flipped[: n + 1])
        update *= step
        solution[: n + 1] += update
    predictor /= power
    return predictor, solution


class _PassBuffers:
    """Work arrays of one :func:`sbl_fit` call, written in place by every pass.

    ``half`` holds the real transforms over the ``U*K`` delay bins (first
    gamma's, later the self-responses' lag sums); ``spectra`` the two
    forward transforms of the Gohberg-Semencul correlation and ``lags`` its
    inverse.  Nothing here is returned to the caller.
    """

    def __init__(self, n_tones: int, delay_bins: int, n_blocks: int):
        n_corr = _smooth_length(2 * n_tones - 1, (2, 3, 5, 7, 11))
        self.weights = (n_tones - np.arange(n_tones))[:, None]
        self.col = np.empty((n_tones, n_blocks), dtype=np.complex128)
        self.weighted = np.empty_like(self.col)
        self.half = np.empty((delay_bins // 2 + 1, n_blocks), dtype=np.complex128)
        self.spectra = np.empty((2, n_corr, n_blocks), dtype=np.complex128)
        self.cross = np.empty((n_corr, n_blocks), dtype=np.complex128)
        self.lags = np.empty_like(self.cross)
        self.filtered = np.empty((delay_bins, n_blocks), dtype=np.complex128)
        self.self_response = np.empty((delay_bins, n_blocks))
        self.ratio = np.empty_like(self.self_response)


def _atom_responses(
    gamma: np.ndarray, noise_var: float, spectrum: np.ndarray, work: _PassBuffers
) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter and self-responses of every atom, Doppler block by block.

    ``gamma`` is ``(U*K, C)`` and ``spectrum`` ``(K, C)``, each column one
    Doppler block m: all M of the window, or the ones a fit keeps.  The
    block's covariance ``sigma^2 I + A diag(gamma_m) A^H`` is Hermitian
    Toeplitz with first column ``c_m = fft(gamma_m)[:K] / K + sigma^2 e_0``.
    One Levinson recursion over all blocks gives the inverse's first column
    ``a`` and the whitened data ``x = Sigma^-1 spectrum_m``; the
    Gohberg-Semencul form of the inverse turns ``a`` into its diagonal sums
    by FFT.  Returns ``a_n^H Sigma^-1 h``
    and the real ``a_n^H Sigma^-1 a_n``, each ``(U*K, C)``, in ``work``'s
    buffers.
    """
    delay_bins = gamma.shape[0]
    n_tones = spectrum.shape[0]
    # gamma is real, and its real transform's UK/2 + 1 bins hold c_m's K lags
    half, col = work.half, work.col
    np.fft.rfft(gamma, axis=0, out=half)
    np.divide(half[:n_tones], n_tones, out=col)
    col[0] += noise_var
    first, whitened = _levinson(col, spectrum)
    filtered = np.fft.ifft(whitened, n=delay_bins, axis=0, out=work.filtered)
    filtered *= delay_bins / np.sqrt(n_tones)

    # Gohberg-Semencul: Sigma^-1 = (L(a) L(a)^H - L(b) L(b)^H) / a_0 with
    # L(v) lower-triangular Toeplitz and b = (0, conj(a_{K-1}), ..., conj(a_1)).
    # The lag-d diagonal sum of L(v) L(v)^H is
    # sum_r (K - r - d) v[r + d] conj(v[r]), one correlation of
    # (K - p) v[p] with v; at least 2K - 1 points keep it from wrapping, and
    # a composite length keeps the FFT fast.  With A = fft(a) and
    # Aw = fft((K - p) a), b's transforms are w^{Kf} conj(A - a_0) and
    # w^{Kf} conj(K A - Aw), so the phases cancel and the difference of the
    # two correlation spectra is Aw conj(A) - conj(K A - Aw) (A - a_0).
    # The sums are of order K / sigma^2, so a self-response near 1/gamma_n
    # carries a relative error of about eps K gamma_n / sigma^2: round-off on
    # noisy windows, but at the noise floor it leaves the strongest atoms'
    # gamma good to only ~1e-4.
    a_hat, aw_hat = work.spectra
    n_corr = a_hat.shape[0]
    np.fft.fft(first, n=n_corr, axis=0, out=a_hat)
    np.multiply(first, work.weights, out=work.weighted)
    np.fft.fft(work.weighted, n=n_corr, axis=0, out=aw_hat)
    cross = np.conjugate(a_hat, out=work.cross)
    cross *= aw_hat
    # conj(K A - Aw) (A - a_0) in aw_hat; the lag buffer holds K A meanwhile
    np.multiply(a_hat, n_tones, out=work.lags)
    np.subtract(work.lags, aw_hat, out=aw_hat)
    np.conjugate(aw_hat, out=aw_hat)
    a_hat -= first[0]
    aw_hat *= a_hat
    cross -= aw_hat
    diag_sums = np.fft.ifft(cross, axis=0, out=work.lags)[:n_tones]
    diag_sums /= first[0].real
    # a_n^H Sigma^-1 a_n = (1/K) sum_d s[d] exp(2j pi d n / UK) over lags
    # -(K-1)..K-1 with s[-d] = conj(s[d]): a real inverse transform of the
    # lag sums, each in its own bin of the UK
    half[:n_tones] = diag_sums
    half[n_tones:] = 0
    self_response = np.fft.irfft(
        half, n=delay_bins, axis=0, out=work.self_response
    )
    self_response *= delay_bins / n_tones
    return filtered, self_response


def sbl_fit(
    window: np.ndarray,
    tone_spacing: float = 1.0,
    snapshot_time: float = 1.0,
    window_start_time: float = 0.0,
    *,
    active_set_size: int = 10,
    iterations: int = 10,
    columns: np.ndarray | None = None,
) -> SBLResult:
    """Sparse Bayesian fit of one tone-time window.

    Takes the window as :func:`ddsounder.tfanalysis.lsf_estimate` does and
    runs exactly ``iterations`` passes.  Each pass multiplies every
    variance weight by the ratio of its matched-filter response power to its
    self-response under the current covariance, re-selects the active set as
    the ``active_set_size`` largest strict local maxima of the variance
    surface, and re-estimates the noise variance from the residual of the
    active-atom least-squares projection.

    ``columns``, if given, is a boolean over the returned surface's Doppler
    columns, in its centered order: the passes update the variances of the
    ``True`` columns alone, and the rest stay 0.  The noise variance still
    comes from every column and the active set is ranked over the whole
    surface.  ``None`` fits every column.

    Raises
    ------
    ConfigError
        If ``active_set_size`` or ``iterations`` is not a positive integer.
    ValueError
        On non-finite input, an identically zero window, a window with
        fewer samples than the requested active set, ``columns`` that are
        not one boolean per snapshot with at least one ``True``, or a
        non-positive spacing, each before the first pass.
    """
    _check_settings(active_set_size, iterations)
    h = np.asarray(window, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError("window must be 2-D (tones x snapshots)")
    if not np.all(np.isfinite(h)):
        raise ValueError("window contains non-finite values")
    n_tones, n_snapshots = h.shape
    total = n_tones * n_snapshots
    energy = float(np.vdot(h, h).real)
    if energy == 0.0:
        raise ValueError("window is identically zero")
    if total <= active_set_size:
        raise ValueError(
            f"window of {total} samples cannot support an active set of "
            f"{active_set_size}"
        )

    kept = np.ones(n_snapshots, dtype=bool) if columns is None else np.asarray(columns)
    if kept.dtype != np.bool_ or kept.shape != (n_snapshots,) or not kept.any():
        raise ValueError(
            f"columns must be {n_snapshots} booleans, one per Doppler column, "
            f"with at least one True"
        )
    center = n_snapshots // 2
    # the fitted Doppler blocks in FFT order, and their surface columns
    fitted = np.flatnonzero(np.fft.ifftshift(kept))
    surface_columns = (fitted + center) % n_snapshots

    model = SparseModel(tone_count=n_tones, window_length=n_snapshots)
    atoms = model.delay_atoms()

    # gamma of the fitted Doppler blocks, in FFT order; the rest stay 0
    gamma = np.full((model.delay_bins, fitted.size), _GAMMA_INIT)
    # the returned surface, fftshift of the full gamma along Doppler, whose
    # fitted columns every pass writes in place
    grid = _grid(
        np.zeros((model.delay_bins, n_snapshots)),
        tone_spacing, snapshot_time, window_start_time,
    )
    surface = grid.values
    noise_var = _NOISE_VAR_INIT
    # floor keeps the covariance blocks invertible on noise-free windows:
    # cond(Sigma) <= gamma_max/floor must stay well below 1/eps
    noise_floor = max(1e-9 * energy / total, 1e-300)

    # The window's unitary Doppler spectrum: column m is Doppler block m's
    # data, and atom (n, m) is delay atom n in column m alone.  So the
    # active-set least squares splits by column: the columns without an
    # active atom stay whole in the residual, and only the rest are solved,
    # with lstsq's default cutoff for the full K*M-row basis.
    spectrum = np.fft.fft(h, axis=1) / np.sqrt(n_snapshots)
    column_energy = np.sum(np.abs(spectrum) ** 2, axis=0)
    fitted_spectrum = spectrum[:, fitted]
    rcond = np.finfo(float).eps * total

    selected: list[tuple[int, int]] = []
    amplitudes = np.zeros(0, dtype=np.complex128)
    residual_power = energy
    noise_trace = np.empty(iterations)
    residual_trace = np.empty(iterations)
    churn_trace = np.empty(iterations, dtype=int)
    work = _PassBuffers(n_tones, model.delay_bins, fitted.size)
    for it in range(iterations):
        filtered, self_response = _atom_responses(gamma, noise_var, fitted_spectrum, work)
        ratio = np.abs(filtered, out=work.ratio)
        np.square(ratio, out=ratio)
        ratio /= np.clip(self_response, 1e-300, None, out=self_response)
        gamma *= ratio

        surface[:, surface_columns] = gamma
        previous = set(selected)
        selected = _ranked_maxima(grid, active_set_size)
        churn_trace[it] = len(set(selected) - previous)
        if selected:
            delays = [n for n, _ in selected]
            dopplers = [(j - center) % n_snapshots for _, j in selected]
            blocks, block_of = np.unique(dopplers, return_inverse=True)
            basis = np.zeros(
                (n_tones, len(blocks), len(selected)), dtype=np.complex128
            )
            basis[:, block_of, np.arange(len(selected))] = atoms[:, delays]
            basis = basis.reshape(-1, len(selected))
            target = spectrum[:, blocks].ravel()
            amplitudes, *_ = np.linalg.lstsq(basis, target, rcond=rcond)
            residual = target - basis @ amplitudes
            residual_power = float(
                np.delete(column_energy, blocks).sum()
                + np.vdot(residual, residual).real
            )
            noise_var = residual_power / (total - len(selected))
        else:
            amplitudes = np.zeros(0, dtype=np.complex128)
            residual_power = energy
            noise_var = energy / total
        noise_var = max(noise_var, noise_floor)
        noise_trace[it] = noise_var
        residual_trace[it] = residual_power

    return SBLResult(
        gamma=grid,
        peaks=_peak_list(grid, selected),
        amplitudes=np.asarray(amplitudes),
        noise_var=float(noise_var),
        residual_power=residual_power,
        iterations=iterations,
        noise_var_trace=noise_trace,
        residual_power_trace=residual_trace,
        churn_trace=churn_trace,
    )
