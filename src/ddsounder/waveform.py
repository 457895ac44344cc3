"""Multitone sounding waveform synthesis.

Each TX radiates a comb of ``tone_count`` equally spaced tones whose spectral
weights follow a Zadoff-Chu sequence, which keeps the time-domain crest
factor low.  The combs of different TXs are interleaved on the
``tx_tone_offset`` grid, so they stay orthogonal over one sequence period
while sharing the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ConfigError, SounderConfig

__all__ = [
    "SampledSignal",
    "TonePlan",
    "zadoff_chu",
    "tone_plan",
    "multitone_waveform",
]


@dataclass
class SampledSignal:
    """Complex baseband samples with their sampling context.

    ``length`` and ``chunks(size)`` read it as
    :class:`ddsounder.io.SignalReader` reads a record file, so an in-memory
    signal can stand wherever a record is read chunk by chunk.

    Attributes
    ----------
    samples : numpy.ndarray
        1-D complex128 sample vector.
    sample_rate : float
        Samples per second.
    t0 : float
        Capture time of the first sample, s.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not (self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def length(self) -> int:
        return self.samples.size

    def chunks(self, size: int):
        """Yield views of the samples in order, ``size`` at a time (the last
        chunk may be shorter)."""
        for start in range(0, self.samples.size, size):
            yield self.samples[start : start + size]


@dataclass
class TonePlan:
    """Tone frequencies and spectral weights of one TX.

    ``tone_frequencies`` are baseband frequencies in Hz, ascending, all on the
    ``tx_tone_offset`` grid; ``tone_weights`` are unit-modulus complex
    weights.
    """

    tx_index: int
    tone_frequencies: np.ndarray
    tone_weights: np.ndarray

    def __post_init__(self):
        self.tone_frequencies = np.asarray(self.tone_frequencies, dtype=np.float64)
        self.tone_weights = np.asarray(self.tone_weights, dtype=np.complex128)
        if self.tone_frequencies.shape != self.tone_weights.shape:
            raise ValueError("tone_frequencies and tone_weights must have equal length")
        if self.tone_frequencies.ndim != 1 or self.tone_frequencies.size == 0:
            raise ValueError("a tone plan needs at least one tone")


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Zadoff-Chu sequence of the given root and length.

    Constant modulus with an impulsive periodic autocorrelation; used here as
    spectral weights rather than a time-domain sequence.

    Parameters
    ----------
    root : int
        Sequence root, coprime with ``length``.
    length : int
        Sequence length, >= 1.

    Returns
    -------
    numpy.ndarray
        complex128 vector ``exp(-j pi root n (n+1) / length)`` for odd
        lengths, ``exp(-j pi root n^2 / length)`` for even lengths.
    """
    if length < 1 or int(length) != length:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    if int(root) != root:
        raise ValueError(f"root must be an integer, got {root!r}")
    if math.gcd(int(root), int(length)) != 1:
        raise ValueError(f"root {root} is not coprime with length {length}")
    n = np.arange(length)
    exponent = n * (n + 1) if length % 2 else n * n
    return np.exp(-1j * np.pi * root * exponent / length)


def tone_plan(cfg: SounderConfig, tx_index: int) -> TonePlan:
    """Build the tone comb of one TX.

    The comb of TX 0 is centered on DC; TX ``i`` is shifted up by
    ``i * tx_tone_offset``.  Weights are the root-1 Zadoff-Chu sequence of
    the comb length.
    """
    if not 0 <= tx_index < cfg.tx_count:
        raise ConfigError(
            f"tx_index {tx_index} outside configured tx_count {cfg.tx_count}"
        )
    k = np.arange(cfg.tone_count) - (cfg.tone_count - 1) / 2.0
    frequencies = k * cfg.tone_spacing + tx_index * cfg.tx_tone_offset
    return TonePlan(
        tx_index=tx_index,
        tone_frequencies=frequencies,
        tone_weights=zadoff_chu(1, cfg.tone_count),
    )


def multitone_waveform(cfg: SounderConfig, plan: TonePlan) -> SampledSignal:
    """Synthesize one sequence period of a TX comb.

    Returns
    -------
    SampledSignal
        ``samples[n] = sum_k w_k exp(j 2 pi f_k n / fs)`` over exactly one
        period.  The period must span an integer sample count and every tone
        must lie inside the Nyquist band.
    """
    length = cfg.samples_per_period  # raises ConfigError for fractional periods
    fmax = float(np.max(np.abs(plan.tone_frequencies)))
    if 2 * fmax >= cfg.sample_rate:
        raise ConfigError(
            f"tone at {fmax} Hz outside the Nyquist band of {cfg.sample_rate} S/s"
        )
    # every tone must repeat with the sequence period
    cycles = plan.tone_frequencies * cfg.sequence_period
    if np.max(np.abs(cycles - np.round(cycles))) > 1e-6:
        raise ConfigError("tone frequencies are not harmonics of the sequence period")
    t = np.arange(length) / cfg.sample_rate
    phases = np.exp(2j * np.pi * np.outer(t, plan.tone_frequencies))
    return SampledSignal(phases @ plan.tone_weights, cfg.sample_rate, t0=0.0)
