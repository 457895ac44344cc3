"""Multipath synthesis kernel: periodic waveforms as trigonometric polynomials.

A period of ``L`` samples is evaluated at fractional sample indices as the
trigonometric polynomial through its DFT coefficients ``fft(period) / L`` on
bins ``-L//2 ... L//2``; for even ``L`` the Nyquist coefficient is split in
half between the two end bins.  For odd ``L`` this is periodic-sinc
(Dirichlet) interpolation, for even ``L`` the Dirichlet kernel with its extra
``cos(pi v / L)`` factor, and for a multitone period whose tones all lie
inside the Nyquist band it is exactly the tone sum that generated it.

The polynomial is evaluated by Horner's rule in the phasor
``w = exp(j 2 pi u / L)``: one complex exponential per output sample and
path, none per tap.
"""

from __future__ import annotations

import numpy as np

__all__ = ["synthesize_paths", "interpolate_periodic", "BACKEND"]

BACKEND = "numpy"

# output samples per pass; bounds the (paths, samples) work arrays
_CHUNK = 4096


def _coefficients(periods: np.ndarray) -> np.ndarray:
    """Fourier coefficients of each row of ``periods``, one column per row.

    Returns a ``(2 * (L // 2) + 1, W)`` array over bins ``-L//2 ... L//2``,
    lowest bin first.
    """
    length = periods.shape[1]
    coef = np.fft.fftshift(np.fft.fft(periods, axis=1), axes=1) / length
    if length % 2 == 0:
        coef = np.concatenate([coef, coef[:, :1]], axis=1)
        coef[:, [0, -1]] *= 0.5
    return np.ascontiguousarray(coef.T)


def _evaluate(coef: np.ndarray, u: np.ndarray, length: int) -> np.ndarray:
    """Polynomial of column ``p`` of ``coef`` at the indices in row ``p`` of ``u``."""
    angle = (2.0 * np.pi / length) * np.mod(u, length)
    w = np.exp(1j * angle)
    acc = np.empty(u.shape, dtype=np.complex128)
    acc[...] = coef[-1][:, None]
    for c in coef[-2::-1]:
        acc *= w
        acc += c[:, None]
    # Horner ran over bins shifted up by L//2
    return acc * np.exp(-1j * (coef.shape[0] // 2) * angle)


def interpolate_periodic(samples: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate a periodic sampled waveform at fractional sample indices."""
    samples = np.asarray(samples, dtype=np.complex128)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    return _evaluate(_coefficients(samples[None, :]), u[None, :], samples.size)[0]


def synthesize_paths(
    periods: np.ndarray,
    wf_index: np.ndarray,
    gains: np.ndarray,
    tau0: np.ndarray,
    dtau: np.ndarray,
    n_samples: int,
    t_start: float,
    sample_rate: float,
    carrier_frequency: float,
) -> np.ndarray:
    """Superimpose delayed, Doppler-rotated copies of periodic waveforms.

    Parameters
    ----------
    periods : (W, L) complex128
        One sequence period per waveform, all sharing the epoch t=0.
    wf_index : (P,) int
        Waveform carried by each path.
    gains, tau0, dtau : (P,)
        Complex path gain, path delay at ``t_start`` (s) and delay slope
        (s/s) of each path; the delay varies linearly over the block.
    n_samples : int
        Output length.
    t_start : float
        Absolute time of the first output sample, s.
    sample_rate, carrier_frequency : float
        Sample rate (S/s) and RF carrier (Hz); the carrier phase
        ``exp(-j 2 pi fc tau(t))`` carries the Doppler of each path.

    Returns
    -------
    (n_samples,) complex128
    """
    periods = np.asarray(periods, dtype=np.complex128)
    wf_index = np.asarray(wf_index, dtype=np.int64)
    gains = np.asarray(gains, dtype=np.complex128)
    tau0 = np.asarray(tau0, dtype=np.float64)
    dtau = np.asarray(dtau, dtype=np.float64)
    if periods.ndim != 2:
        raise ValueError("periods must be a 2-D array of per-waveform periods")
    length = periods.shape[1]
    coef = _coefficients(periods)[:, wf_index]
    out = np.empty(n_samples, dtype=np.complex128)
    dt = 1.0 / sample_rate
    for start in range(0, n_samples, _CHUNK):
        stop = min(start + _CHUNK, n_samples)
        t_rel = np.arange(start, stop) * dt
        tau = tau0[:, None] + dtau[:, None] * t_rel
        u = (t_start + t_rel - tau) * sample_rate
        weight = gains[:, None] * np.exp(-2j * np.pi * carrier_frequency * tau)
        out[start:stop] = (weight * _evaluate(coef, u, length)).sum(axis=0)
    return out
