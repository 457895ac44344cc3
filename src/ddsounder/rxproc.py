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
``coherent_average`` averages whole chunks of snapshots with ``N + L``
exponentials per snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
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
    padded = np.fft.fft(mixed, 8 * total)
    freqs = np.fft.fftfreq(8 * total, d=1.0 / fs)
    halfwidth = 0.5 / period
    band = np.abs(freqs) <= halfwidth
    band_bins = np.flatnonzero(band)
    best = band_bins[int(np.argmax(np.abs(padded[band_bins])))]

    t = n / fs

    def neg_power(f: float) -> float:
        return -np.abs(np.sum(mixed * np.exp(-2j * np.pi * f * t))) ** 2

    grid_step = fs / (8 * total)
    bracket = (freqs[best] - grid_step, freqs[best] + grid_step)
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


# Samples per chunk of whole snapshots that coherent_average works on at once:
# bounds its temporaries (a few chunk-sized complex arrays) whatever the record
# length, while keeping the numpy calls per chunk large.
_CHUNK_SAMPLES = 1 << 18


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

    so each snapshot needs ``N + L`` exponentials of small arguments rather
    than ``N L`` of arguments that grow with the record time.  Snapshots are
    processed in chunks of whole snapshots of at most ``_CHUNK_SAMPLES``
    samples; a trailing partial snapshot is ignored.

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
    if not math.isclose(rx.sample_rate, cfg.sample_rate, rel_tol=1e-12):
        raise ConfigError(
            f"sample_rate: record is {rx.sample_rate!r} S/s, "
            f"configuration says {cfg.sample_rate!r} S/s"
        )
    length = cfg.samples_per_period
    per_snapshot = cfg.samples_per_snapshot
    q_count = rx.samples.size // per_snapshot
    if q_count < 1:
        raise ValueError("record shorter than one snapshot")
    plan = tone_plan(cfg, tx_index)
    bins = _tone_bins(cfg, plan.tone_frequencies)
    fs = rx.sample_rate
    period = cfg.sequence_period
    n_avg = cfg.averaging_count
    chunk = max(1, _CHUNK_SAMPLES // per_snapshot)
    period_phase = np.arange(n_avg) * length / fs
    sample_phase = np.arange(length) / fs

    out = np.empty((q_count, length), dtype=np.complex128)
    for first in range(0, q_count, chunk):
        stop = min(first + chunk, q_count)
        blocks = rx.samples[first * per_snapshot : stop * per_snapshot].reshape(
            stop - first, n_avg, length
        )
        if n_avg > 1:
            v = np.fft.fft(blocks, axis=2)[..., bins]
            lag = np.sum(v[:, 1:] * np.conj(v[:, :-1]), axis=(1, 2))
            offset = np.angle(lag) / (2.0 * math.pi * period)
        else:
            offset = np.full(stop - first, cfo)
        t_snapshot = rx.t0 + np.arange(first, stop) * per_snapshot / fs
        epoch = np.exp(-2j * math.pi * cfo * t_snapshot) / n_avg
        weights = np.exp(-2j * math.pi * offset[:, None] * period_phase) * epoch[:, None]
        ramp = np.exp(-2j * math.pi * offset[:, None] * sample_phase)
        out[first:stop] = (weights[:, None, :] @ blocks)[:, 0] * ramp
    return out


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
    spectra = np.fft.fft(averaged, axis=1) / cfg.samples_per_period
    values = spectra[:, bins] / plan.tone_weights[None, :]
    times = t0 + np.arange(averaged.shape[0]) * cfg.snapshot_time
    return TransferFunctionGrid(
        tx_index=plan.tx_index,
        values=values,
        snapshot_times=times,
        tone_frequencies=plan.tone_frequencies.copy(),
    )


def noise_power_estimate(averaged: np.ndarray, cfg: SounderConfig) -> float:
    """Mean power of the unoccupied comb bins of averaged periods.

    The first tone-offset slot past the configured TXs is guaranteed free,
    so its bins measure the post-averaging noise at tone scale.
    """
    averaged = np.asarray(averaged, dtype=np.complex128)
    if cfg.grid_ratio <= cfg.tx_count:
        raise ConfigError("no unoccupied tone-offset slot in this design")
    free_slot = tone_plan(cfg, 0).tone_frequencies + cfg.tx_count * cfg.tx_tone_offset
    bins = _tone_bins(cfg, free_slot)
    spectra = np.fft.fft(averaged, axis=1) / cfg.samples_per_period
    return float(np.mean(np.abs(spectra[:, bins]) ** 2))


def snr_per_tx(grid: TransferFunctionGrid, noise_power: float) -> np.ndarray:
    """Per-snapshot SNR (dB): mean tone power over the noise-bin power."""
    if not noise_power > 0:
        raise ValueError("noise power estimate must be positive")
    signal = np.mean(np.abs(grid.values) ** 2, axis=1)
    return 10.0 * np.log10(signal / noise_power)
