"""Sounder parametrization and design-rule validation.

A multitone sounder design is nine free choices (:class:`SounderConfig`):
carrier, bandwidth, tones per TX, TX count, the ratio of tone spacing to the
TX interleave offset, averaging count, the design speed and Doppler bounds,
and the sample rate.  Tone spacing, interleave offset, sequence period,
snapshot time and delay span follow from them as properties, so they cannot
disagree with the choices.  The record length is not part of the design: it
is the scenario's ``duration``.  :func:`validate_config` checks each design
rule that a choice of these fields can break, one check per rule, so a
parameter file can be audited before any signal is generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "SounderConfig",
    "ValidationCheck",
    "ValidationReport",
    "ConfigError",
    "default_config",
    "narrowband_config",
    "validate_config",
    "processing_gain",
    "free_space_path_loss",
    "max_doppler",
    "LSF_TIME_BANDWIDTH",
    "SPEED_OF_LIGHT",
    "dpss_fits",
]

# Speed of light in vacuum in m/s, exact by the SI definition of the metre.
SPEED_OF_LIGHT = 299_792_458.0

# relative slack for floating-point comparisons of derived quantities
_REL_TOL = 1e-9


# Time-bandwidth product NW of the multitaper LSF's Slepian tapers; it bounds
# the design's tone count and the analyze window length.
LSF_TIME_BANDWIDTH = 2.0


class ConfigError(ValueError):
    """Raised when a configuration is structurally invalid."""


def _smooth_length(target: int, primes: tuple[int, ...] = (2, 3, 5)) -> int:
    """The least integer at least ``target`` with no prime factor outside
    ``primes``, a fast FFT length."""
    n = target
    while True:
        rest = n
        for factor in primes:
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


def dpss_fits(length: int, time_bandwidth: float) -> bool:
    """Whether ``length`` points carry Slepian tapers of time-bandwidth ``NW``.

    The discrete prolate spheroidal sequences need more than ``2 NW`` points.
    """
    return length > 2 * time_bandwidth


@dataclass(frozen=True)
class SounderConfig:
    """The free choices of a multitone sounder design.

    The defaults are the reference design: 60.15 GHz carrier, 100 MHz
    bandwidth, 21 tones per TX, two interleaved TX combs, 212-fold averaging.
    Tone spacing, interleave offset, sequence period, snapshot time and delay
    span follow from these fields (the properties below).

    Attributes
    ----------
    center_frequency : float
        Carrier frequency in Hz.
    bandwidth : float
        Occupied sounding bandwidth in Hz.
    tone_count : int
        Number of tones per TX.
    tx_count : int
        Number of simultaneously transmitting units.
    grid_ratio : int
        Tone spacing over the offset between the combs of consecutive TXs.
    averaging_count : int
        Number of periods averaged coherently per snapshot.
    max_speed : float
        Largest TX speed the design supports, m/s.
    max_doppler : float
        Design Doppler bound used for the snapshot-time rule, Hz.
    sample_rate : float
        Complex baseband sample rate in samples/s.
    """

    center_frequency: float = 60.15e9
    bandwidth: float = 100e6
    tone_count: int = 21
    tx_count: int = 2
    grid_ratio: int = 4
    averaging_count: int = 212
    max_speed: float = 14.0
    max_doppler: float = 2800.0
    sample_rate: float = 125e6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{f.name} must be positive, got {value!r}")
        for name in ("tone_count", "tx_count", "grid_ratio", "averaging_count"):
            value = getattr(self, name)
            if int(value) != value:
                raise ConfigError(f"{name} must be an integer, got {value!r}")

    @property
    def tone_spacing(self) -> float:
        """Spacing between the tones of one TX comb in Hz."""
        return self.bandwidth / self.tone_count

    @property
    def tx_tone_offset(self) -> float:
        """Frequency offset between the combs of consecutive TXs in Hz."""
        return self.tone_spacing / self.grid_ratio

    @property
    def max_excess_delay(self) -> float:
        """Largest excess delay the tone spacing resolves unambiguously, s."""
        return 1.0 / (2.0 * self.tone_spacing)

    @property
    def sequence_period(self) -> float:
        """Duration of one multitone period, ``1 / tx_tone_offset`` in s."""
        return 1.0 / self.tx_tone_offset

    @property
    def snapshot_time(self) -> float:
        """Duration of one averaged snapshot in s."""
        return self.averaging_count * self.sequence_period

    @property
    def samples_per_period(self) -> int:
        """Samples in one sequence period; must divide the sample grid."""
        exact = self.sample_rate * self.sequence_period
        rounded = round(exact)
        if rounded < 1 or abs(exact - rounded) > 1e-6:
            raise ConfigError(
                f"sequence period spans {exact} samples; an integer is required"
            )
        return int(rounded)

    @property
    def samples_per_snapshot(self) -> int:
        return self.averaging_count * self.samples_per_period


@dataclass
class ValidationCheck:
    """Outcome of one design rule."""

    name: str
    passed: bool
    value: float
    bound: float
    note: str = ""

    def to_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name}: value={self.value:.9g} bound={self.bound:.9g} {status}"
        if self.note:
            line += f"  ({self.note})"
        return line


@dataclass
class ValidationReport:
    """All design-rule checks plus derived quantities for one config."""

    checks: list[ValidationCheck] = field(default_factory=list)
    derived: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        lines = [check.to_line() for check in self.checks]
        lines.append("derived:")
        for key in sorted(self.derived):
            lines.append(f"  {key} = {self.derived[key]:.9g}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def default_config() -> SounderConfig:
    """The 100 MHz / 60.15 GHz reference design (21 tones, 2 TX, N=212)."""
    return SounderConfig()


def narrowband_config(averaging_count: int = 2) -> SounderConfig:
    """Narrowband variant of the reference design for fast simulation.

    The bandwidth and sample rate are 1 % of the reference design's, which
    stretches the sequence period a hundredfold, so the averaging count must
    shrink to keep the snapshot time inside the Doppler bound; carrier,
    geometry and speeds are unchanged.
    """
    return SounderConfig(
        bandwidth=1e6, sample_rate=1.25e6, averaging_count=averaging_count
    )


def processing_gain(averaging_count: int) -> float:
    """Coherent averaging gain ``10 log10(N)`` in dB."""
    if averaging_count < 1 or int(averaging_count) != averaging_count:
        raise ValueError(f"averaging count must be a positive integer, got {averaging_count!r}")
    return 10.0 * math.log10(averaging_count)


def free_space_path_loss(distance: float, center_frequency: float) -> float:
    """Free-space path loss ``20 log10(4 pi d fc / c)`` in dB, elementwise for
    an array of distances."""
    distance = np.asarray(distance, dtype=np.float64)
    if np.any(distance <= 0) or center_frequency <= 0:
        raise ValueError("distance and center_frequency must be positive")
    return 20.0 * np.log10(4.0 * math.pi * distance * center_frequency / SPEED_OF_LIGHT)


def max_doppler(speed: float, center_frequency: float) -> float:
    """Doppler shift of a directly approaching emitter, ``v * fc / c`` in Hz."""
    if speed < 0:
        raise ValueError(f"speed must be non-negative, got {speed!r}")
    if center_frequency <= 0:
        raise ValueError("center_frequency must be positive")
    return speed * center_frequency / SPEED_OF_LIGHT


def validate_config(cfg: SounderConfig) -> ValidationReport:
    """Check every design rule of ``cfg`` and report one check per rule.

    The Doppler rule is checked against the configured ``max_doppler``
    design bound; the exact ``max_speed * fc / c`` value is reported in the
    derived map (it exceeds a rounded design bound slightly).
    """
    report = ValidationReport()

    def add(name, value, bound, passed, note=""):
        report.checks.append(ValidationCheck(name, bool(passed), value, bound, note))

    doppler_bound = 1.0 / (2.0 * cfg.max_doppler)
    add(
        "doppler_sampling",
        cfg.snapshot_time,
        doppler_bound,
        cfg.snapshot_time <= doppler_bound * (1 + _REL_TOL),
        "snapshot time vs 1/(2 max Doppler)",
    )

    add(
        "tx_combs_collision_free",
        cfg.grid_ratio,
        cfg.tx_count,
        cfg.grid_ratio >= cfg.tx_count,
        "grid_ratio must be at least tx_count",
    )

    add(
        "noise_slot_free",
        cfg.grid_ratio,
        cfg.tx_count,
        cfg.grid_ratio > cfg.tx_count,
        "grid_ratio must exceed tx_count to leave a noise slot",
    )

    samples = cfg.sample_rate * cfg.sequence_period
    add(
        "samples_per_period_integer",
        samples,
        round(samples),
        round(samples) >= 1 and abs(samples - round(samples)) <= 1e-6,
        "sequence period must span an integer number of samples",
    )

    # tone k of TX i completes ((k - (K-1)/2) g + i) cycles per period
    half_cycles = (cfg.tone_count - 1) * cfg.grid_ratio
    add(
        "tones_on_period_grid",
        half_cycles,
        2,
        half_cycles % 2 == 0,
        "(tone_count - 1) * grid_ratio must be even: every tone a harmonic of the period",
    )

    # highest tone of the highest comb; TX i is shifted up by i offsets
    tone_max = (cfg.tone_count - 1) / 2 * cfg.tone_spacing
    tone_max += (cfg.tx_count - 1) * cfg.tx_tone_offset
    add(
        "tones_within_nyquist",
        2 * tone_max,
        cfg.sample_rate,
        2 * tone_max < cfg.sample_rate,
        "2 max|tone frequency| over every TX comb vs sample rate",
    )

    add(
        "tone_count_fits_tapers",
        cfg.tone_count,
        2 * LSF_TIME_BANDWIDTH,
        dpss_fits(cfg.tone_count, LSF_TIME_BANDWIDTH),
        "tone_count must exceed 2 NW of the LSF frequency tapers",
    )

    report.derived = {
        "processing_gain_db": processing_gain(cfg.averaging_count),
        "max_alias_free_delay_s": cfg.max_excess_delay,
        "max_alias_free_doppler_hz": 1.0 / (2.0 * cfg.snapshot_time),
        "doppler_at_max_speed_hz": max_doppler(cfg.max_speed, cfg.center_frequency),
        "sequence_period_s": cfg.sequence_period,
        "snapshot_time_s": cfg.snapshot_time,
        "samples_per_period": samples,
    }
    return report
