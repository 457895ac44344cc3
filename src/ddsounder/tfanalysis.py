"""Delay-Doppler analysis: symplectic DFT, multitaper LSF, peak picking.

A window of the tone-time channel grid is mapped into the delay-Doppler
plane by the symplectic finite Fourier transform (inverse DFT across tones,
forward DFT across snapshots, both unitary).  The local scattering function
is the average periodogram over a small set of 2-D Slepian taper pairs; the
Doppler spectral density is its delay marginal.  Both the transform and
the LSF take the window's tone and snapshot counts from its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .params import LSF_TIME_BANDWIDTH, ConfigError, dpss_fits

__all__ = [
    "DelayDopplerGrid",
    "Peak",
    "PeakList",
    "sfft",
    "isfft",
    "dpss_tapers",
    "lsf_estimate",
    "dsd",
    "top_peaks_2d",
]


@dataclass
class DelayDopplerGrid:
    """Values over a delay (rows) by Doppler (columns) grid.

    The Doppler axis is circularly centered (negative Doppler first); the
    delay axis starts at zero.
    """

    values: np.ndarray
    delay_axis: np.ndarray
    doppler_axis: np.ndarray
    window_start_time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        self.delay_axis = np.asarray(self.delay_axis, dtype=np.float64)
        self.doppler_axis = np.asarray(self.doppler_axis, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-D (delay x Doppler)")
        if self.values.shape != (self.delay_axis.size, self.doppler_axis.size):
            raise ValueError("axis lengths must match the value grid")


# Slepian tapers per dimension of the LSF window, each of time-bandwidth
# product LSF_TIME_BANDWIDTH
_TAPERS = 3


@dataclass
class Peak:
    """One local maximum of a delay-Doppler surface."""

    delay: float
    doppler: float
    power: float


@dataclass
class PeakList:
    """Peaks in descending power order."""

    entries: list[Peak] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.entries)


def _axes(
    n_delay: int,
    n_doppler: int,
    tone_spacing: float,
    snapshot_time: float,
) -> tuple[np.ndarray, np.ndarray]:
    delay = np.arange(n_delay) / (n_delay * tone_spacing)
    doppler = (np.arange(n_doppler) - n_doppler // 2) / (n_doppler * snapshot_time)
    return delay, doppler


def sfft(
    h: np.ndarray,
    tone_spacing: float = 1.0,
    snapshot_time: float = 1.0,
    window_start_time: float = 0.0,
) -> DelayDopplerGrid:
    """Symplectic finite Fourier transform of a tone-time window.

    ``S[n, m] = (1/sqrt(K M)) sum_{k,l} H[k, l] e^{+j2pi nk/K} e^{-j2pi ml/M}``
    with the Doppler axis circularly centered afterwards.  With unit spacings
    the axes are in bins.

    Parameters
    ----------
    h : (K, M) complex
        Channel window: K tones (rows) by M snapshots (columns).
    tone_spacing, snapshot_time : float
        Physical grid steps; the delay resolution is ``1/(K tone_spacing)``
        and the Doppler resolution ``1/(M snapshot_time)``.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError("sfft expects a 2-D tone-time window")
    n_tones, n_snapshots = h.shape
    delay_side = np.fft.ifft(h, axis=0) * np.sqrt(n_tones)
    s = np.fft.fft(delay_side, axis=1) / np.sqrt(n_snapshots)
    delay, doppler = _axes(n_tones, n_snapshots, tone_spacing, snapshot_time)
    return DelayDopplerGrid(
        values=np.fft.fftshift(s, axes=1),
        delay_axis=delay,
        doppler_axis=doppler,
        window_start_time=window_start_time,
    )


def isfft(grid: DelayDopplerGrid) -> np.ndarray:
    """Inverse of :func:`sfft`: back to the tone-time window."""
    s = np.fft.ifftshift(np.asarray(grid.values, dtype=np.complex128), axes=1)
    n_tones, n_snapshots = s.shape
    time_side = np.fft.ifft(s, axis=1) * np.sqrt(n_snapshots)
    return np.fft.fft(time_side, axis=0) / np.sqrt(n_tones)


def dpss_tapers(length: int, time_bandwidth: float, count: int) -> np.ndarray:
    """Leading discrete prolate spheroidal (Slepian) sequences.

    Eigenvectors of the tridiagonal Slepian matrix, unit norm, ordered by
    decreasing spectral concentration in ``|f| <= time_bandwidth/length``.

    Raises
    ------
    ValueError
        If more than ``2*time_bandwidth`` tapers are requested; beyond that
        the concentration degrades and sidelobe leakage dominates.
    ConfigError
        If ``length`` does not exceed ``2*time_bandwidth``
        (:func:`params.dpss_fits`).
    """
    if not dpss_fits(length, time_bandwidth):
        raise ConfigError(f"taper length {length} must exceed 2*NW = {2 * time_bandwidth:g}")
    if count < 1:
        raise ValueError("at least one taper is required")
    if count > 2 * time_bandwidth:
        raise ValueError(
            f"{count} tapers exceed the well-concentrated family of "
            f"2*NW = {2 * time_bandwidth:g}"
        )
    # Slepian's tridiagonal matrix, whose leading eigenvectors are the
    # tapers (Percival & Walden 1993)
    n = np.arange(length, dtype=np.float64)
    half_bandwidth = time_bandwidth / length
    diagonal = ((length - 1 - 2 * n) / 2.0) ** 2 * np.cos(2 * np.pi * half_bandwidth)
    off_diagonal = n[1:] * (length - n[1:]) / 2.0
    _, vectors = eigh_tridiagonal(
        diagonal, off_diagonal, select="i", select_range=(length - count, length - 1)
    )
    tapers = vectors[:, ::-1].T
    # sign convention of Percival & Walden (p. 379): even tapers sum
    # positive, odd tapers start with a positive lobe (the first sample
    # above the numerical noise)
    threshold = max(1e-7, 1.0 / length)
    for i, taper in enumerate(tapers):
        lead = taper.sum() if i % 2 == 0 else taper[taper * taper > threshold][0]
        if lead < 0:
            taper *= -1
    return tapers


def lsf_estimate(
    h: np.ndarray,
    tone_spacing: float = 1.0,
    snapshot_time: float = 1.0,
    window_start_time: float = 0.0,
) -> DelayDopplerGrid:
    """Multitaper local scattering function of one channel window.

    Averages ``|SFFT(H tapered by u_j (x) u_i)|^2`` over all pairs of
    frequency tapers ``u_j`` (length K) and time tapers ``u_i`` (length M).
    K and M are the window's shape.  The result is real and non-negative, on
    the same grid as :func:`sfft`.

    Raises
    ------
    ValueError
        If ``h`` is not 2-D.
    ConfigError
        If K or M does not exceed ``2*LSF_TIME_BANDWIDTH``, too few points
        for the Slepian tapers (:func:`dpss_tapers`).
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError("lsf_estimate expects a 2-D tone-time window")
    n_tones, n_snapshots = h.shape
    freq_tapers = dpss_tapers(n_tones, LSF_TIME_BANDWIDTH, _TAPERS)
    time_tapers = dpss_tapers(n_snapshots, LSF_TIME_BANDWIDTH, _TAPERS)
    accum = np.zeros(h.shape, dtype=np.float64)
    for u_freq in freq_tapers:
        for u_time in time_tapers:
            tapered = h * np.outer(u_freq, u_time)
            accum += np.abs(sfft(tapered).values) ** 2
    accum /= _TAPERS**2
    delay, doppler = _axes(n_tones, n_snapshots, tone_spacing, snapshot_time)
    return DelayDopplerGrid(
        values=accum,
        delay_axis=delay,
        doppler_axis=doppler,
        window_start_time=window_start_time,
    )


def dsd(grid: DelayDopplerGrid) -> np.ndarray:
    """Doppler spectral density: the LSF marginal over delay."""
    return np.asarray(grid.values).sum(axis=0)


def _strict_local_maxima(values: np.ndarray) -> np.ndarray:
    """Boolean mask of strict 8-neighbourhood maxima (edges compare fewer).

    The surface is laid out row by row with one ``-inf`` cell after each row
    and a ``-inf`` margin of one row plus one cell on either side, so the
    neighbour at ``(di, dj)`` of every cell sits at the flat offset
    ``di * (cols + 1) + dj``: each comparison is one contiguous pass.  A
    missing neighbour reads ``-inf``, so a ``-inf`` cell is never a maximum,
    even without neighbours.
    """
    rows, cols = values.shape
    stride = cols + 1
    size = rows * stride
    flat = np.full(size + 2 * (stride + 1), -np.inf)
    core = flat[stride + 1 : stride + 1 + size]
    core.reshape(rows, stride)[:, :cols] = values
    mask = np.ones(size, dtype=bool)
    for k in (1, stride - 1, stride, stride + 1):
        mask &= core > flat[stride + 1 + k : stride + 1 + k + size]
        mask &= core > flat[stride + 1 - k : stride + 1 - k + size]
    return mask.reshape(rows, stride)[:, :cols]


def _ranked_maxima(
    values: np.ndarray,
    count: int,
    delay_key: np.ndarray,
    doppler_key: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ``count`` largest strict local maxima.

    Orders by descending value, then ascending ``delay_key[row]``, then
    ascending ``doppler_key[col]``; the sort is stable, so exact ties on all
    three keep row-major order.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if np.iscomplexobj(values):
        raise ValueError("peak picking expects a real-valued surface")
    flat = np.flatnonzero(_strict_local_maxima(values))
    rows, cols = np.divmod(flat, values.shape[1])
    peaks = values.ravel()[flat]
    if 0 < count < peaks.size:
        # only maxima at or above the count-th largest value can rank; all
        # ties with it stay, so the sort below still settles them
        cut = np.partition(peaks, peaks.size - count)[peaks.size - count]
        keep = peaks >= cut
        rows, cols, peaks = rows[keep], cols[keep], peaks[keep]
    order = np.lexsort((doppler_key[cols], delay_key[rows], -peaks))
    keep = order[:count]
    return rows[keep], cols[keep]


def top_peaks_2d(grid: DelayDopplerGrid, count: int) -> PeakList:
    """Largest strict local maxima of a real-valued delay-Doppler surface.

    Orders by descending value; exact ties break toward smaller delay, then
    smaller absolute Doppler.  Plateaus have no strict maximum, so a constant
    surface yields an empty list; fewer maxima than requested returns all.
    """
    values = np.asarray(grid.values)
    rows, cols = _ranked_maxima(
        values, count, grid.delay_axis, np.abs(grid.doppler_axis)
    )
    entries = [
        Peak(
            delay=float(grid.delay_axis[r]),
            doppler=float(grid.doppler_axis[c]),
            power=float(values[r, c]),
        )
        for r, c in zip(rows, cols)
    ]
    return PeakList(entries=entries)
