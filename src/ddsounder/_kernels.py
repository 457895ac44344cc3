"""Multipath synthesis kernel: each TX period of a path from the period's spectrum.

Over the ``L`` samples ``r`` of one period starting at sample ``n``, a path
with gain ``g`` has the delay ``tau + dtau r / fs``.  With the period's DFT
``c = fft(period) / L`` on the signed bins ``b`` and the phase-ramped
spectrum ``a_b = c_b exp(j 2 pi b (n - tau fs) / L)``, its copy of the period
is ``g exp(-j 2 pi fc (tau + dtau r / fs))`` times the drift series
``sum_m (-j 2 pi dtau r / L)^m / m! * L ifft(b^m a)[r]``.  For a multitone
period whose tones lie strictly inside the Nyquist band this is exactly the
tone sum that generated it.  The series argument is at most
``x = pi L max|dtau|`` (about 1.5e-5 at 14 m/s and ``L = 105``), and terms
are kept until ``x^M / M! e^x``, which bounds the remainder relative to
``sum |c_b|``, drops below 1e-15.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["synthesize_paths", "BACKEND"]

BACKEND = "numpy"


def synthesize_paths(
    periods: np.ndarray,
    wf_index: np.ndarray,
    gains: np.ndarray,
    tau0: np.ndarray,
    dtau: np.ndarray,
    n_samples: int,
    first_sample: int,
    sample_rate: float,
    carrier_frequency: float,
    block_length: int,
) -> np.ndarray:
    """Superimpose delayed, Doppler-rotated copies of periodic waveforms
    over ``B`` consecutive blocks of ``block_length`` samples.

    Parameters
    ----------
    periods : (W, L) complex128
        One sequence period per waveform, all sharing the epoch t=0.
    wf_index : (P,) int
        Waveform carried by each path.
    gains, tau0, dtau : (P, B) ndarray
        Complex path gain, path delay at the block's first sample (s) and
        delay slope (s/s) of each path in each block; the delay varies
        linearly over a block.
    n_samples : int
        Output length, at most ``B * block_length``.
    first_sample : int
        Index of the first output sample; sample 0 is t=0.
    sample_rate, carrier_frequency : float
        Sample rate (S/s) and RF carrier (Hz), whose phase carries the Doppler.
    block_length : int
        Samples per block.

    Returns
    -------
    (n_samples,) complex128
    """
    periods = np.asarray(periods, dtype=np.complex128)
    if periods.ndim != 2:
        raise ValueError("periods must be a 2-D array of per-waveform periods")
    length = periods.shape[1]
    n_blocks = gains.shape[1]
    x_max = math.pi * length * np.abs(dtau).max(initial=0.0)
    if not math.isfinite(x_max):
        raise ValueError("delay slopes must be finite")
    terms, bound = 1, x_max * math.exp(x_max)
    while bound >= 1e-15:
        terms += 1
        bound *= x_max / terms

    # one row per (path, block, period): its delay and spectrum at its first sample
    first = np.arange(0, block_length, length)
    tau = tau0[..., None] + dtau[..., None] * (first / sample_rate)
    offset = (first_sample + np.arange(n_blocks)[:, None] * block_length + first) % length
    bins = np.fft.fftfreq(length, 1.0 / length)
    ramp = np.multiply.outer(offset - tau * sample_rate, (2j * np.pi / length) * bins)
    spectrum = np.fft.fft(periods)[wf_index][:, None, None, :] * np.exp(ramp)

    # the drift series by Horner's rule in m
    r = np.arange(length)
    drift = (-2j * np.pi / length) * dtau[..., None, None] * r
    rows = np.fft.ifft(bins ** (terms - 1) * spectrum)
    for m in range(terms - 2, -1, -1):
        rows *= drift / (m + 1)
        rows += np.fft.ifft(bins**m * spectrum)
    tau_r = tau[..., None] + dtau[..., None, None] * (r / sample_rate)
    rows *= gains[..., None, None] * np.exp(-2j * np.pi * carrier_frequency * tau_r)
    return rows.sum(axis=0).reshape(n_blocks, -1)[:, :block_length].reshape(-1)[:n_samples]
