"""Multipath synthesis kernel: each path's copy of a period as its exact tone sum.

A period of ``L`` samples is the tone sum ``sum_b c_b exp(j 2 pi b n / L)``
with ``c = fft(period) / L`` on the signed bins ``b``.  Over the block
starting at sample ``s``, a path with gain ``g`` has the delay
``tau0 + dtau u / fs`` at sample ``s + u``, so its copy of the period is
again a tone sum: term ``b`` starts at ``g c_b exp(j 2 pi (b (s mod L) / L -
(f_b + fc) tau0))`` and advances by ``w_b = 2 pi (f_b (1 - dtau) - fc dtau)
/ fs`` per sample, with ``f_b = b fs / L``.  Splitting ``u = a m + r`` with
``m = isqrt(block)`` makes one block the product of the (a, term) matrix of
start terms times ``exp(j w_b m a)`` and the (term, r) matrix of
``exp(j w_b r)``.  Bins at round-off of the largest are dropped, so a tone
comb costs one term per (path, tone).

Both power tables are built by doubling, about ``log2(count)`` vectorised
products each, into work arrays that a caller making many calls owns
(:class:`_PowerTables`), so consecutive calls reuse them.
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
    *,
    tables: _PowerTables | None = None,
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
    tables : _PowerTables, optional
        Work arrays for the power tables, reused across calls; the output
        does not depend on what they held before.  Fresh ones by default.

    Returns
    -------
    (n_samples,) complex128
    """
    periods = np.asarray(periods, dtype=np.complex128)
    if periods.ndim != 2:
        raise ValueError("periods must be a 2-D array of per-waveform periods")
    if not np.all(np.isfinite(dtau)):
        raise ValueError("delay slopes must be finite")
    length = periods.shape[1]
    n_blocks = gains.shape[1]

    # one term per (path, kept bin): rows are blocks, columns are terms
    spectrum = np.fft.fft(periods) / length
    magnitude = np.abs(spectrum)
    # bins below 1e-12 of a period's largest are FFT round-off
    kept = magnitude > 1e-12 * magnitude.max(axis=1, keepdims=True)
    path, bin_index = np.nonzero(kept[wf_index])
    bins = np.fft.fftfreq(length, 1.0 / length).astype(np.int64)[bin_index]
    freq = bins * (sample_rate / length)
    tau, slope = tau0[path].T, dtau[path].T
    starts = (first_sample + np.arange(n_blocks) * block_length) % length
    # whole carrier cycles of the delay drop out before they cost precision
    carrier = carrier_frequency * tau
    cycles = np.multiply.outer(starts, bins) % length / length
    cycles -= freq * tau + (carrier - np.round(carrier))
    start = gains[path].T * spectrum[wf_index[path], bin_index] * _expj(2 * np.pi * cycles)
    rate = freq * (1.0 - slope) - carrier_frequency * slope  # Hz, in the block
    step = _expj((2 * np.pi / sample_rate) * rate)

    # u = a m + r: (B, a, term) start terms times step**(a m), (B, r, term) step**r
    m = math.isqrt(block_length)
    head, tail = (tables or _PowerTables()).take(
        (n_blocks, -(-block_length // m), step.shape[1]), (n_blocks, m, step.shape[1])
    )
    _powers(step, tail)
    _powers(tail[:, -1] * step, head)
    head *= start[:, None]
    out = np.matmul(head, tail.swapaxes(1, 2)).reshape(n_blocks, -1)
    return out[:, :block_length].reshape(-1)[:n_samples]


class _PowerTables:
    """Work arrays for the two power tables of consecutive
    :func:`synthesize_paths` calls, grown to the largest call so far."""

    def __init__(self):
        self._flat = np.empty(0, dtype=np.complex128)

    def take(self, head_shape, tail_shape) -> tuple[np.ndarray, np.ndarray]:
        """Two disjoint C-contiguous arrays of the given shapes, contents undefined."""
        head_size, tail_size = math.prod(head_shape), math.prod(tail_shape)
        if self._flat.size < head_size + tail_size:
            self._flat = np.empty(head_size + tail_size, dtype=np.complex128)
        return (
            self._flat[:head_size].reshape(head_shape),
            self._flat[head_size : head_size + tail_size].reshape(tail_shape),
        )


def _expj(phase: np.ndarray) -> np.ndarray:
    """``exp(j phase)`` of a real array, from its cosine and sine: numpy's
    complex ``exp`` takes several times longer for the same values."""
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _powers(base: np.ndarray, out: np.ndarray) -> None:
    """Write ``base ** arange(count)`` into the (B, count, T) ``out`` for the
    (B, T) ``base``, by doubling: ``out[:, k:2k] = out[:, :k] base**k``, then
    ``base**k`` is squared.

    The squares are taken in ``clongdouble`` and rounded once each, so no
    rounding is doubled from one level to the next; every power is then a
    product of at most ``log2(count)`` rounded factors, within a few units in
    the last place of the exact power (``cumprod``'s error grows with the
    square root of the exponent).
    """
    count = out.shape[1]
    out[:, 0] = 1.0
    power = base.astype(np.clongdouble)
    k = 1
    while k < count:
        n = min(k, count - k)
        np.multiply(out[:, :n], power.astype(np.complex128)[:, None], out=out[:, k : k + n])
        k += n
        if k < count:
            power *= power
