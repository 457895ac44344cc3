"""Receiver-side processing: sync, coherent averaging, demultiplexing.

The receiver sees the superposition of all TX combs.  One CFO estimate comes
from a standstill capture; during the drive, every snapshot is derotated by
its own LOS frequency offset (Doppler plus CFO) before averaging, and the
Doppler part of that correction is re-applied afterwards so that only the
CFO is permanently removed.

The derotation at absolute time ``t_q + (p L + n) / fs`` and the Doppler
phase re-applied at the snapshot epoch ``t_q`` share the term
``nu_q t_q``, which cancels exactly: what remains is one phase per period,
one ramp over the samples of a period and the CFO phase at the epoch, so
``coherent_average`` averages whole chunks of snapshots with ``N`` + about
``2 sqrt(L)`` exponentials per snapshot.

A drive record need never be whole in memory: ``demultiplex_record`` takes
it from a reader one chunk of whole snapshots at a time and keeps only the
per-tone values of each snapshot, bit for bit what the whole-record
functions give.  The CFO search evaluates the zero-padded spectrum of the
standstill only inside its band, by a chirp-z transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len
from scipy.optimize import minimize_scalar

from .params import ConfigError, SounderConfig
from .waveform import SampledSignal, TonePlan, tone_plan

__all__ = [
    "NoSignalError",
    "TransferFunctionGrid",
    "estimate_cfo",
    "coherent_average",
    "demultiplex",
    "noise_power_estimate",
    "demultiplex_record",
    "snr_per_tx",
]


class NoSignalError(RuntimeError):
    """Raised when a correlator finds no reference signal in a capture."""


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
    snr_db: np.ndarray | None = field(default=None)

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


def _fold_periods(samples: np.ndarray, length: int) -> np.ndarray:
    """(P, L) view of the leading whole periods of a record."""
    whole = samples.size // length
    if whole < 1:
        raise ValueError("record shorter than one sequence period")
    return samples[: whole * length].reshape(whole, length)


def _fractional_roll(samples: np.ndarray, shift: float) -> np.ndarray:
    """Circularly delay a periodic record by a fractional sample count."""
    length = samples.size
    k = np.fft.fftfreq(length, d=1.0 / length)
    return np.fft.ifft(np.fft.fft(samples) * np.exp(-2j * np.pi * k * shift / length))


def _padded_band(samples: np.ndarray, fs: float, halfwidth: float):
    """Magnitudes of the 8x zero-padded DFT of ``samples`` at its bins in
    ``|f| <= halfwidth``, without the other bins.

    With ``N = samples.size`` and ``M = 8N``, the bins ``k`` are those with
    ``|k fs / M| <= halfwidth``, picked by the very float comparison of
    ``np.fft.fftfreq(M, 1/fs)`` and listed in its order, so an argmax picks
    the bin a full padded transform would, except at round-off ties: with the
    peak halfway between two bins, the magnitudes agree with the FFT's within
    about 1e-15 of the peak, but either bin may win.  They are evaluated as a
    chirp-z transform (Bluestein): with ``k n = (k^2 + n^2 - (k - n)^2) / 2``,

        |X[k]| = |sum_n x[n] exp(-j pi n^2 / M) exp(j pi (k - n)^2 / M)|,

    one linear convolution over the band, by FFTs of about ``N + 8P`` points
    for ``8P + 1`` band bins of a ``P``-period record (Rabiner, Schafer &
    Rader 1969).  The squares are reduced modulo ``2M`` in integers, so the
    chirp phases stay exact however long the record.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        The band's bin frequencies (Hz) and DFT magnitudes.
    """
    size = samples.size
    padded = 8 * size
    step = 1.0 / (padded * (1.0 / fs))  # np.fft.fftfreq(padded, 1/fs)'s spacing
    reach = min(int(halfwidth / step) + 1, padded // 2)
    k = np.arange(-reach, min(reach, padded // 2 - 1) + 1)
    count = k.size

    n = np.arange(size)
    weighted = samples * np.exp((-1j * math.pi / padded) * (n * n % (2 * padded)))
    lag = np.arange(k[0] - size + 1, k[-1] + 1)  # every k - n
    chirp = np.exp((1j * math.pi / padded) * (lag * lag % (2 * padded)))
    length = next_fast_len(size + count - 1)
    spectrum = np.fft.fft(weighted, length)
    spectrum *= np.fft.fft(chirp, length)
    magnitude = np.abs(np.fft.ifft(spectrum)[size - 1 : size - 1 + count])

    order = np.r_[np.flatnonzero(k >= 0), np.flatnonzero(k < 0)]  # fftfreq's order
    freqs = k[order] * step
    band = np.abs(freqs) <= halfwidth
    return freqs[band], magnitude[order][band]


def estimate_cfo(
    rx: SampledSignal,
    reference: SampledSignal,
    detection_threshold: float = 0.1,
) -> float:
    """Carrier frequency offset of a static capture, via correlation.

    A period-lag autocorrelation gives a coarse, delay-independent estimate;
    the record is then derotated, the reference aligned in (fractional)
    delay, and the offset refined on the continuous correlation peak.

    Parameters
    ----------
    rx : SampledSignal
        Standstill capture containing at least two periods of the reference.
    reference : SampledSignal
        One transmitted sequence period.
    detection_threshold : float
        Minimum normalized correlation magnitude; below it the capture is
        treated as signal-free.

    Returns
    -------
    float
        Estimated CFO in Hz, unambiguous within half the period rate.

    Raises
    ------
    NoSignalError
        If the normalized correlation never exceeds the threshold.
    """
    if not math.isclose(rx.sample_rate, reference.sample_rate, rel_tol=1e-12):
        raise ValueError("rx and reference sample rates differ")
    length = reference.samples.size
    if rx.samples.size < 2 * length:
        raise ValueError("rx must span at least two reference periods")
    fs = rx.sample_rate
    period = length / fs

    folded = _fold_periods(rx.samples, length)
    # coarse: phase advance across one period, independent of channel delay
    lag = np.sum(folded[1:] * np.conj(folded[:-1]))
    coarse = math.atan2(lag.imag, lag.real) / (2.0 * math.pi * period)

    n = np.arange(folded.size)
    derotated = folded.reshape(-1) * np.exp(-2j * np.pi * coarse * n / fs)
    mean_period = derotated.reshape(-1, length).mean(axis=0)

    # align the reference to the (integer + fractional) channel delay
    spectrum = np.fft.fft(mean_period) * np.conj(np.fft.fft(reference.samples))
    xcorr = np.abs(np.fft.ifft(spectrum))
    peak = int(np.argmax(xcorr))
    left, mid, right = (
        xcorr[(peak - 1) % length],
        xcorr[peak],
        xcorr[(peak + 1) % length],
    )
    denom = left - 2 * mid + right
    offset = 0.5 * (left - right) / denom if denom != 0 else 0.0
    aligned = _fractional_roll(reference.samples, peak + offset)

    mixed = derotated * np.conj(np.tile(aligned, folded.shape[0]))
    total = mixed.size
    halfwidth = 0.5 / period
    freqs, magnitude = _padded_band(mixed, fs, halfwidth)
    best_freq = freqs[int(np.argmax(magnitude))]

    t = n / fs

    def neg_power(f: float) -> float:
        return -np.abs(np.sum(mixed * np.exp(-2j * np.pi * f * t))) ** 2

    grid_step = fs / (8 * total)
    bracket = (best_freq - grid_step, best_freq + grid_step)
    fine = minimize_scalar(neg_power, bounds=bracket, method="bounded",
                           options={"xatol": 1e-6}).x

    correlation = np.abs(np.sum(mixed * np.exp(-2j * np.pi * fine * t)))
    norm = np.linalg.norm(derotated) * np.linalg.norm(aligned) * math.sqrt(folded.shape[0])
    if norm == 0 or correlation / norm < detection_threshold:
        raise NoSignalError(
            f"normalized correlation {correlation / norm if norm else 0.0:.3g} "
            f"below threshold {detection_threshold}"
        )
    return float(coarse + fine)


# Samples per chunk of whole snapshots that coherent_average and
# demultiplex_record work on at once: bounds their temporaries (a few
# chunk-sized complex arrays) whatever the record length, while keeping the
# numpy calls per chunk large.  The averaged values depend on where the chunks
# start, at round-off, so both take the same chunks.
_CHUNK_SAMPLES = 1 << 18


def _chunk_snapshots(cfg: SounderConfig) -> int:
    """Whole snapshots per chunk: as many as fit ``_CHUNK_SAMPLES``, at least one."""
    return max(1, _CHUNK_SAMPLES // cfg.samples_per_snapshot)


def _check_rate(rate: float, cfg: SounderConfig) -> None:
    if not math.isclose(rate, cfg.sample_rate, rel_tol=1e-12):
        raise ConfigError(
            f"sample_rate: record is {rate!r} S/s, "
            f"configuration says {cfg.sample_rate!r} S/s"
        )


def _period_spectra(blocks: np.ndarray, work: np.ndarray | None = None) -> np.ndarray | None:
    """DFT of every period of the (c, N, L) ``blocks``, which every TX's offset
    estimate reads, into the leading rows of ``work`` if given; ``None`` with
    one period per snapshot, where none is needed."""
    if blocks.shape[1] == 1:
        return None
    return np.fft.fft(blocks, axis=2, out=None if work is None else work[: blocks.shape[0]])


def _average_chunk(blocks, spectra, bins, cfg, cfo, fs, t_snapshot, out) -> None:
    """:func:`coherent_average` of the (c, N, L) ``blocks`` of ``c`` whole
    snapshots taken at ``t_snapshot``, for the TX comb on ``bins``, into the
    (c, L) ``out``; ``spectra`` is their :func:`_period_spectra`."""
    count, n_avg, length = blocks.shape
    if n_avg > 1:
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


def coherent_average(
    rx: SampledSignal, cfg: SounderConfig, cfo: float, tx_index: int
) -> np.ndarray:
    """Average the periods of every snapshot coherently for one TX.

    Each snapshot is derotated by its own estimated LOS frequency offset
    (Doppler plus CFO), its periods are averaged, and the Doppler part of
    the offset is restored as a phase at the snapshot timestamp, so the
    averaged snapshots keep the physical Doppler progression while the CFO
    is removed.

    The offset of snapshot ``q`` is the lag-one phase of its per-period tone
    coefficients ``v = fft(periods)[..., bins]``,
    ``nu_q = angle(sum_{p,k} v[p+1,k] conj(v[p,k])) / (2 pi T)``: the DFT
    coefficients of the dominant component advance by ``exp(j 2 pi nu T)``
    from one period to the next whatever the channel delay.  With a single
    period per snapshot, ``nu_q = cfo``.

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
        If the record's sample rate differs from ``cfg.sample_rate``, or the
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
    bins = _tone_bins(cfg, tone_plan(cfg, tx_index).tone_frequencies)
    fs = rx.sample_rate
    chunk = _chunk_snapshots(cfg)
    out = np.empty((q_count, length), dtype=np.complex128)
    for first in range(0, q_count, chunk):
        stop = min(first + chunk, q_count)
        blocks = rx.samples[first * per_snapshot : stop * per_snapshot].reshape(
            stop - first, cfg.averaging_count, length
        )
        t_snapshot = rx.t0 + np.arange(first, stop) * per_snapshot / fs
        _average_chunk(
            blocks, _period_spectra(blocks), bins, cfg, cfo, fs, t_snapshot, out[first:stop]
        )
    return out


def _spectra(averaged: np.ndarray, cfg: SounderConfig, out=None) -> np.ndarray:
    """Period DFT of each averaged snapshot at tone scale, ``fft / L``."""
    spectra = np.fft.fft(averaged, axis=1, out=out)
    spectra /= cfg.samples_per_period
    return spectra


def demultiplex(
    averaged: np.ndarray,
    cfg: SounderConfig,
    plan: TonePlan,
    t0: float = 0.0,
) -> TransferFunctionGrid:
    """Per-tone channel coefficients from averaged snapshot periods.

    Divides each tone's DFT coefficient by its transmit weight, so a
    distortion-free channel of gain ``g`` yields ``g`` everywhere.
    """
    averaged = np.asarray(averaged, dtype=np.complex128)
    if averaged.ndim != 2 or averaged.shape[1] != cfg.samples_per_period:
        raise ValueError(
            f"averaged snapshots must be (Q, {cfg.samples_per_period}), "
            f"got {averaged.shape}"
        )
    bins = _tone_bins(cfg, plan.tone_frequencies)
    values = _spectra(averaged, cfg)[:, bins] / plan.tone_weights[None, :]
    return TransferFunctionGrid(
        tx_index=plan.tx_index,
        values=values,
        snapshot_times=t0 + np.arange(averaged.shape[0]) * cfg.snapshot_time,
        tone_frequencies=plan.tone_frequencies.copy(),
    )


def _free_slot_bins(cfg: SounderConfig) -> np.ndarray:
    """Period DFT bins of the first tone-offset slot past the configured TXs."""
    if cfg.grid_ratio <= cfg.tx_count:
        raise ConfigError("no unoccupied tone-offset slot in this design")
    free_slot = tone_plan(cfg, 0).tone_frequencies + cfg.tx_count * cfg.tx_tone_offset
    return _tone_bins(cfg, free_slot)


def noise_power_estimate(averaged: np.ndarray, cfg: SounderConfig) -> float:
    """Mean power of the unoccupied comb bins of averaged periods.

    The first tone-offset slot past the configured TXs is guaranteed free,
    so its bins measure the post-averaging noise at tone scale.
    """
    bins = _free_slot_bins(cfg)
    spectra = _spectra(np.asarray(averaged, dtype=np.complex128), cfg)
    return float(np.mean(np.abs(spectra[:, bins]) ** 2))


def demultiplex_record(
    record, cfg: SounderConfig, cfo: float, plans: list[TonePlan]
) -> tuple[list[TransferFunctionGrid], list[float]]:
    """Tone grids and noise powers of every TX in ``plans``, from a record
    read chunk by chunk.

    ``record`` carries the record's ``sample_rate``, ``length`` (samples)
    and ``t0``, and ``record.chunks(size)`` yields its samples in order,
    ``size`` at a time (:class:`ddsounder.io.SignalReader`).  Each chunk
    holds the whole snapshots that :func:`coherent_average` takes at once,
    and goes through the same steps as :func:`coherent_average`,
    :func:`demultiplex` and :func:`noise_power_estimate`, with one DFT of
    the chunk's periods for every TX's offset estimate and one DFT of the
    averaged periods per chunk and TX for tones and noise, all into work
    arrays allocated once per record; only the (Q, K) tone values
    and free-slot powers of each TX are kept.  The noise power is the mean over all the
    kept powers, the sum :func:`noise_power_estimate` takes over the whole
    record.  Grids and noise powers are bit for bit those of the
    whole-record functions.  A trailing partial snapshot is ignored.

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
    bins = [_tone_bins(cfg, plan.tone_frequencies) for plan in plans]
    free_bins = _free_slot_bins(cfg)
    # (Q, K) in the column-major layout of ``spectra[:, bins]``, so that
    # reductions over them add in the order they do over whole-record arrays
    values = [np.empty((b.size, q_count), dtype=np.complex128).T for b in bins]
    powers = [np.empty((free_bins.size, q_count)).T for _ in plans]
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
        chunk_spectra = _period_spectra(blocks, period_spectra)
        for plan, tx_bins, tx_values, tx_powers in zip(plans, bins, values, powers):
            tx_averaged = averaged[: stop - first]
            _average_chunk(
                blocks, chunk_spectra, tx_bins, cfg, cfo, fs, t_snapshot, tx_averaged
            )
            tx_spectra = _spectra(tx_averaged, cfg, spectra[: stop - first])
            np.divide(tx_spectra[:, tx_bins], plan.tone_weights, out=tx_values[first:stop])
            np.square(np.abs(tx_spectra[:, free_bins]), out=tx_powers[first:stop])
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
    return grids, [float(np.mean(tx_powers)) for tx_powers in powers]


def snr_per_tx(grid: TransferFunctionGrid, noise_power: float) -> np.ndarray:
    """Per-snapshot SNR (dB): mean tone power over the noise-bin power."""
    if not noise_power > 0:
        raise ValueError("noise power estimate must be positive")
    signal = np.mean(np.abs(grid.values) ** 2, axis=1)
    return 10.0 * np.log10(signal / noise_power)
