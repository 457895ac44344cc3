"""Receiver-side processing: sync, coherent averaging, demultiplexing.

The receiver sees the superposition of all TX combs, sent by one
transmitter from one oscillator.  One CFO estimate comes from a standstill
capture; during the drive, every snapshot is derotated by its own LOS
frequency offset (Doppler plus CFO), estimated once from the tones of all
combs, before averaging, and the Doppler part of that correction is
re-applied afterwards so that only the CFO is permanently removed.  Every
TX's tone values are read from the one spectrum of each averaged snapshot.

A drive record need never be whole in memory: ``demultiplex_record`` takes
it from a reader one chunk of whole snapshots at a time and keeps only the
per-tone values of each snapshot, bit for bit what ``coherent_average`` and
a period DFT give on the whole record.  The CFO estimate needs no reference:
a parked capture is periodic up to the CFO rotation, and the estimate is the
maximum of the periodogram of its period-lag sums, reached by Newton steps
from the maximum of its FFT grid; no temporary is the size of the standstill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ConfigError, SounderConfig, _smooth_length
from .waveform import SampledSignal, tone_plan

__all__ = [
    "NoSignalError",
    "TransferFunctionGrid",
    "estimate_cfo",
    "coherent_average",
    "demultiplex_record",
    "snr_per_tx",
]


class NoSignalError(RuntimeError):
    """Raised when a capture holds no detectable periodic signal."""


@dataclass
class TransferFunctionGrid:
    """Per-snapshot, per-tone channel estimates of one TX.

    ``values[q, k]`` is the complex channel coefficient of tone ``k`` during
    snapshot ``q``; rows are timestamped with the snapshot start times.
    """

    tx_index: int
    values: np.ndarray
    snapshot_times: np.ndarray
    tone_frequencies: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        self.snapshot_times = np.asarray(self.snapshot_times, dtype=np.float64)
        self.tone_frequencies = np.asarray(self.tone_frequencies, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-D (snapshots x tones)")
        if self.values.shape[0] != self.snapshot_times.size:
            raise ValueError("one timestamp per snapshot row required")
        if self.values.shape[1] != self.tone_frequencies.size:
            raise ValueError("one tone frequency per column required")


def _tone_bins(cfg: SounderConfig, frequencies: np.ndarray) -> np.ndarray:
    """DFT bin of each tone on the one-period grid (spacing tx_tone_offset)."""
    length = cfg.samples_per_period
    bins = frequencies / cfg.tx_tone_offset
    rounded = np.round(bins).astype(int)
    if np.max(np.abs(bins - rounded)) > 1e-6:
        raise ConfigError("tone frequencies are off the period DFT grid")
    return rounded % length


# Newton's error shrinks quadratically in the main lobe: six steps reach round-off.
_NEWTON_STEPS = 6
# Columns of the folded standstill transformed at once along its periods: each
# FFT temporary is (n, 8), n about 2P, so about 16 / L of the standstill's size.
_LAG_COLUMNS = 8
# The smallest periodic share of a standstill's energy that counts as a
# signal.  Over 200 draws of desk-scale noise alone the share has a median of
# 0.08 at 2 periods, 0.04 at 4 and 0.012 at 20 (at most 0.023); a noisy 20 ms
# desk standstill gives 0.99, a full-scale one 0.44.
_MIN_PERIODIC_SHARE = 0.03


def estimate_cfo(rx: SampledSignal, cfg: SounderConfig) -> float:
    """Carrier frequency offset of a static capture: the maximum of its
    period-lag periodogram.

    A parked channel is static, so the capture ``x``, folded into its ``P``
    periods ``x[p, l]`` of ``L = cfg.samples_per_period`` samples and period
    time ``T``, is periodic up to the CFO rotation.  The maximum-likelihood
    offset for an unknown periodic signal (Moose's repeated-symbol estimator,
    IEEE Trans. Commun. 1994, over every period lag) maximises

        F(f) = sum_l |sum_p x[p, l] exp(-j 2 pi f p T)|^2
             = r[0] + 2 Re sum_{d>=1} r[d] exp(-j 2 pi f d T)

    with the lag sums ``r[d] = sum_{p,l} x[p+d, l] conj(x[p, l])``.  The
    FFT of the periods at a 5-smooth length ``n >= 2P - 1``, a few columns at a
    time, gives F on the n-point grid, and its inverse ``r``; Newton steps on
    F' and F'' from ``r`` start at the grid's argmax, in the main lobe, and
    stay within one grid bin of it.  The estimate needs no reference and is
    exact on a static capture, whatever its paths.

    Returns
    -------
    float
        Estimated CFO in Hz, unambiguous within half the period rate.

    Raises
    ------
    ConfigError
        If the capture's sample rate differs from ``cfg.sample_rate``.
    ValueError
        If the capture holds fewer than two periods.
    NoSignalError
        If the periodic share of the energy, ``(F(f) / r[0] - 1) / (P - 1)``
        (1 on a noise-free capture, near 0 on noise), is below
        ``_MIN_PERIODIC_SHARE`` or not a number.
    """
    _check_rate(rx.sample_rate, cfg)
    length = cfg.samples_per_period
    count = rx.samples.size // length
    if count < 2:
        raise ValueError("rx must span at least two sequence periods")
    period = length / rx.sample_rate
    folded = rx.samples[: count * length].reshape(count, length)
    n = _smooth_length(2 * count - 1)
    power = np.zeros(n)  # F on the n-point grid
    # numpy's FFT: scipy's is faster at full scale, but it leaves glibc's
    # allocator so that demultiplex_record pages in 2.5 times as much memory
    for first in range(0, length, _LAG_COLUMNS):
        spectra = np.fft.fft(folded[:, first : first + _LAG_COLUMNS], n, axis=0)
        power += np.sum(spectra.real**2 + spectra.imag**2, axis=1)
    lags = np.fft.ifft(power)[:count]
    energy = lags[0].real
    omega = 2 * math.pi * period * np.arange(1, count)  # phase per Hz of lag d

    def periodogram(f: float):
        """F(f), F'(f) and F''(f)."""
        terms = lags[1:] * np.exp(-1j * omega * f)
        return (
            energy + 2 * np.sum(terms.real),
            2 * np.dot(omega, terms.imag),
            -2 * np.dot(omega**2, terms.real),
        )

    start = np.fft.fftfreq(n, d=period)[np.argmax(power)]
    low, high = start - 1 / (n * period), start + 1 / (n * period)
    f = start
    for _ in range(_NEWTON_STEPS):
        _, slope, curvature = periodogram(f)
        # where F is not concave, go uphill to the bracket's end
        step = -slope / curvature if curvature < 0 else math.copysign(math.inf, slope)
        f = min(max(f + step, low), high)
    share = (periodogram(f)[0] / energy - 1) / (count - 1) if energy else math.nan
    if not share >= _MIN_PERIODIC_SHARE:
        raise NoSignalError(
            f"periodic share of the energy {share:.3g} below {_MIN_PERIODIC_SHARE}"
        )
    return float(f)


# Samples per chunk of whole snapshots that coherent_average and
# demultiplex_record work on at once: bounds their temporaries (a few
# chunk-sized complex arrays) whatever the record length, while keeping the
# numpy calls per chunk large.  The averaged values depend on where the chunks
# start, at round-off, so both take the same chunks.
_CHUNK_SAMPLES = 1 << 18


def _chunk_snapshots(cfg: SounderConfig) -> int:
    """Whole snapshots per chunk: as many as fit ``_CHUNK_SAMPLES``, at least one."""
    return max(1, _CHUNK_SAMPLES // cfg.samples_per_snapshot)


def _check_rate(rate: float, cfg: SounderConfig, name: str = "record") -> None:
    """``ConfigError`` naming ``name`` unless ``rate`` is the configured rate."""
    if not math.isclose(rate, cfg.sample_rate, rel_tol=1e-12):
        raise ConfigError(
            f"{name}: sample_rate {rate!r} S/s differs from the configured "
            f"sample_rate {cfg.sample_rate!r} S/s"
        )


def _comb_bins(cfg: SounderConfig) -> np.ndarray:
    """Period DFT bins of every TX comb of the design, TX by TX."""
    return np.concatenate(
        [_tone_bins(cfg, tone_plan(cfg, tx).tone_frequencies) for tx in range(cfg.tx_count)]
    )


def _average_chunk(blocks, bins, cfg, cfo, fs, t_snapshot, out, work=None) -> None:
    """:func:`coherent_average` of the (c, N, L) ``blocks`` of ``c`` whole
    snapshots taken at ``t_snapshot``, with the offsets read from the period
    DFT ``bins`` of every comb, into the (c, L) ``out``; the period DFTs go
    into the leading rows of ``work`` if given."""
    count, n_avg, length = blocks.shape
    if n_avg > 1:
        spectra = np.fft.fft(blocks, axis=2, out=None if work is None else work[:count])
        v = spectra[..., bins]
        lag = np.sum(v[:, 1:] * np.conj(v[:, :-1]), axis=(1, 2))
        offset = np.angle(lag) / (2.0 * math.pi * cfg.sequence_period)
    else:
        offset = np.full(count, cfo)
    epoch = np.exp(-2j * math.pi * cfo * t_snapshot) / n_avg
    period_phase = np.arange(n_avg) * length / fs
    weights = np.exp(-2j * math.pi * offset[:, None] * period_phase) * epoch[:, None]
    np.matmul(weights[:, None, :], blocks, out=out[:, None, :])
    # the ramp exp(-j 2 pi nu_q n / fs) at n = a m + r: a coarse (c, a) table
    # of the steps a m times a fine (c, r) table of the steps r
    step = -2j * math.pi * offset[:, None] / fs
    m = math.isqrt(length)
    coarse = np.exp(step * np.arange(0, length, m))
    fine = np.exp(step * np.arange(m))
    out *= (coarse[:, :, None] * fine[:, None, :]).reshape(count, -1)[:, :length]


def coherent_average(rx: SampledSignal, cfg: SounderConfig, cfo: float) -> np.ndarray:
    """Average the periods of every snapshot coherently.

    Each snapshot is derotated by its own estimated LOS frequency offset
    (Doppler plus CFO), its periods are averaged, and the Doppler part of
    the offset is restored as a phase at the snapshot timestamp, so the
    averaged snapshots keep the physical Doppler progression while the CFO
    is removed.  The TXs share one oscillator and one car, so one offset per
    snapshot serves every comb.

    The offset of snapshot ``q`` is the lag-one phase of its per-period tone
    coefficients ``v = fft(periods)[..., bins]`` on the bins of every TX
    comb, ``nu_q = angle(sum_{p,k} v[p+1,k] conj(v[p,k])) / (2 pi T)``: the
    DFT coefficients of the dominant component advance by
    ``exp(j 2 pi nu T)`` from one period to the next whatever the channel
    delay.  With a single period per snapshot, ``nu_q = cfo``.

    Derotating sample ``n`` of period ``p`` by ``exp(-j 2 pi nu_q t)`` at its
    absolute time ``t = t_q + (p L + n) / fs`` and restoring
    ``exp(j 2 pi (nu_q - cfo) t_q)`` at the snapshot epoch
    ``t_q = rx.t0 + q S / fs`` cancels the two ``nu_q t_q`` terms exactly:

        out[q, n] = exp(-j 2 pi nu_q n / fs)
                    * (1/N) sum_p exp(-j 2 pi nu_q p L / fs) x[q, p, n]
                    * exp(-j 2 pi cfo t_q)

    so each snapshot needs ``N`` phases and one ramp over the ``L`` samples
    of a period, all of small arguments, rather than ``N L`` exponentials of
    arguments that grow with the record time.  The ramp at ``n = a m + r``,
    ``m = isqrt(L)``, is the product of a coarse ``exp(-j 2 pi nu_q a m /
    fs)`` and a fine ``exp(-j 2 pi nu_q r / fs)``: about ``2 sqrt(L)``
    exponentials and ``L`` products.  Snapshots are processed in chunks of
    whole snapshots of at most ``_CHUNK_SAMPLES`` samples; a trailing partial
    snapshot is ignored.

    Returns
    -------
    numpy.ndarray
        (Q, samples_per_period) averaged periods.

    Raises
    ------
    ConfigError
        If the record's sample rate differs from ``cfg.sample_rate``, or a
        TX comb is off the period DFT grid.
    ValueError
        If the record is shorter than one snapshot.
    """
    _check_rate(rx.sample_rate, cfg)
    length = cfg.samples_per_period
    per_snapshot = cfg.samples_per_snapshot
    q_count = rx.samples.size // per_snapshot
    if q_count < 1:
        raise ValueError("record shorter than one snapshot")
    bins = _comb_bins(cfg)
    fs = rx.sample_rate
    chunk = _chunk_snapshots(cfg)
    out = np.empty((q_count, length), dtype=np.complex128)
    for first in range(0, q_count, chunk):
        stop = min(first + chunk, q_count)
        blocks = rx.samples[first * per_snapshot : stop * per_snapshot].reshape(
            stop - first, cfg.averaging_count, length
        )
        t_snapshot = rx.t0 + np.arange(first, stop) * per_snapshot / fs
        _average_chunk(blocks, bins, cfg, cfo, fs, t_snapshot, out[first:stop])
    return out


def _free_slot_bins(cfg: SounderConfig) -> np.ndarray:
    """Period DFT bins of the first tone-offset slot past the configured TXs."""
    if cfg.grid_ratio <= cfg.tx_count:
        raise ConfigError("no unoccupied tone-offset slot in this design")
    free_slot = tone_plan(cfg, 0).tone_frequencies + cfg.tx_count * cfg.tx_tone_offset
    return _tone_bins(cfg, free_slot)


def demultiplex_record(
    record, cfg: SounderConfig, cfo: float
) -> tuple[list[TransferFunctionGrid], float]:
    """Tone grids of every TX of ``cfg``, in TX order, and the receiver's
    noise power, from a record read chunk by chunk.

    ``record`` carries the record's ``sample_rate``, ``length`` (samples)
    and ``t0``, and ``record.chunks(size)`` yields its samples in order,
    ``size`` at a time (:class:`ddsounder.io.SignalReader`).  Each chunk
    holds the whole snapshots that :func:`coherent_average` takes at once and
    is averaged once, as it averages them, on one offset per snapshot from
    every comb of the design.  One DFT of each averaged period at tone scale,
    ``fft / L``, gives every TX's tone values at its own comb's slice of the
    design's bins, each coefficient over its transmit weight, so a
    distortion-free channel of gain ``g`` yields ``g`` everywhere.  The first
    tone-offset slot past the configured TXs is guaranteed free, and the mean
    power of its bins over the record is the noise power after averaging, at
    tone scale.  Work arrays are allocated once per record; only the (Q, K)
    tone values of each TX and the free-slot powers are kept.  A trailing
    partial snapshot is ignored.

    Raises
    ------
    ConfigError
        If the record's sample rate differs from ``cfg.sample_rate``, a TX
        comb is off the period DFT grid, or no tone-offset slot is free.
    ValueError
        If the record is shorter than one snapshot.
    """
    _check_rate(record.sample_rate, cfg)
    fs = record.sample_rate
    length = cfg.samples_per_period
    per_snapshot = cfg.samples_per_snapshot
    q_count = record.length // per_snapshot
    if q_count < 1:
        raise ValueError("record shorter than one snapshot")
    plans = [tone_plan(cfg, tx) for tx in range(cfg.tx_count)]
    comb_bins = _comb_bins(cfg)
    bins = np.split(comb_bins, cfg.tx_count)
    free_bins = _free_slot_bins(cfg)
    # (Q, K) in the column-major layout of ``spectra[:, bins]``, so that
    # reductions over them add in the order they do over whole-record arrays
    values = [np.empty((b.size, q_count), dtype=np.complex128).T for b in bins]
    powers = np.empty((free_bins.size, q_count)).T
    chunk = min(_chunk_snapshots(cfg), q_count)
    # work arrays of the whole record, one chunk each
    period_spectra = (
        np.empty((chunk, cfg.averaging_count, length), dtype=np.complex128)
        if cfg.averaging_count > 1 else None
    )
    averaged = np.empty((chunk, length), dtype=np.complex128)
    spectra = np.empty_like(averaged)
    for first, samples in zip(range(0, q_count, chunk), record.chunks(chunk * per_snapshot)):
        stop = min(first + chunk, q_count)
        blocks = samples[: (stop - first) * per_snapshot].reshape(
            stop - first, cfg.averaging_count, length
        )
        t_snapshot = record.t0 + np.arange(first, stop) * per_snapshot / fs
        chunk_averaged = averaged[: stop - first]
        _average_chunk(
            blocks, comb_bins, cfg, cfo, fs, t_snapshot, chunk_averaged, period_spectra
        )
        chunk_spectra = np.fft.fft(chunk_averaged, axis=1, out=spectra[: stop - first])
        chunk_spectra /= length
        for plan, tx_bins, tx_values in zip(plans, bins, values):
            np.divide(chunk_spectra[:, tx_bins], plan.tone_weights, out=tx_values[first:stop])
        np.square(np.abs(chunk_spectra[:, free_bins]), out=powers[first:stop])
    times = record.t0 + np.arange(q_count) * cfg.snapshot_time
    grids = [
        TransferFunctionGrid(
            tx_index=plan.tx_index,
            values=tx_values,
            snapshot_times=times,
            tone_frequencies=plan.tone_frequencies.copy(),
        )
        for plan, tx_values in zip(plans, values)
    ]
    return grids, float(np.mean(powers))


def snr_per_tx(grid: TransferFunctionGrid, noise_power: float) -> np.ndarray:
    """Per-snapshot SNR (dB): mean tone power over the noise-bin power."""
    if not noise_power > 0:
        raise ValueError("noise power estimate must be positive")
    signal = np.mean(np.abs(grid.values) ** 2, axis=1)
    return 10.0 * np.log10(signal / noise_power)
