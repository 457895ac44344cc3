"""Sounder parametrization and design-rule validation.

A multitone sounder is described by a coupled parameter set: tone spacing
limits the unambiguous excess delay, the snapshot time limits the unambiguous
Doppler shift, and the per-TX tone interleaving ties the sequence period to
the tone-offset grid.  :func:`validate_config` re-derives every design rule
and reports one check per rule so a parameter file can be audited before any
signal is generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

__all__ = [
    "SounderConfig",
    "ValidationCheck",
    "ValidationReport",
    "ConfigError",
    "default_config",
    "narrowband_config",
    "derive_config",
    "validate_config",
    "processing_gain",
    "free_space_path_loss",
    "max_doppler",
]

# relative slack for floating-point comparisons of derived quantities
_REL_TOL = 1e-9


class ConfigError(ValueError):
    """Raised when a configuration is structurally invalid."""


@dataclass(frozen=True)
class SounderConfig:
    """Complete multitone sounder parameter set.

    Attributes
    ----------
    center_frequency : float
        Carrier frequency in Hz.
    tone_spacing : float
        Spacing between the tones of one TX comb in Hz.
    tone_count : int
        Number of tones per TX.
    tx_count : int
        Number of simultaneously transmitting units.
    tx_tone_offset : float
        Frequency offset between the combs of consecutive TXs in Hz.  The
        sequence period is ``1 / tx_tone_offset``.
    bandwidth : float
        Occupied sounding bandwidth in Hz.
    max_excess_delay : float
        Largest excess delay the tone spacing resolves unambiguously, s.
    sequence_period : float
        Duration of one multitone period in s.
    averaging_count : int
        Number of periods averaged coherently per snapshot.
    snapshot_time : float
        Duration of one averaged snapshot in s.
    max_speed : float
        Largest TX speed the design supports, m/s.
    max_doppler : float
        Design Doppler bound used for the snapshot-time rule, Hz.
    recording_time : float
        Total record duration in s.
    sample_rate : float
        Complex baseband sample rate in samples/s.
    snapshot_count : int
        Number of snapshots in one recording.
    """

    center_frequency: float
    tone_spacing: float
    tone_count: int
    tx_count: int
    tx_tone_offset: float
    bandwidth: float
    max_excess_delay: float
    sequence_period: float
    averaging_count: int
    snapshot_time: float
    max_speed: float
    max_doppler: float
    recording_time: float
    sample_rate: float
    snapshot_count: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{f.name} must be positive, got {value!r}")
        for name in ("tone_count", "tx_count", "averaging_count", "snapshot_count"):
            value = getattr(self, name)
            if int(value) != value:
                raise ConfigError(f"{name} must be an integer, got {value!r}")

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

    @property
    def grid_ratio(self) -> int:
        """Integer ratio tone_spacing / tx_tone_offset."""
        exact = self.tone_spacing / self.tx_tone_offset
        rounded = round(exact)
        if rounded < 1 or abs(exact - rounded) > 1e-6 * rounded:
            raise ConfigError(
                f"tone_spacing / tx_tone_offset = {exact} is not an integer"
            )
        return int(rounded)


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


def derive_config(
    center_frequency: float = 60.15e9,
    bandwidth: float = 100e6,
    tone_count: int = 21,
    tx_count: int = 2,
    grid_ratio: int = 4,
    averaging_count: int = 212,
    max_speed: float = 14.0,
    max_doppler: float = 2800.0,
    recording_time: float = 3.6,
    sample_rate: float = 125e6,
) -> SounderConfig:
    """Fill the dependent fields of a sounder design from its free choices.

    ``tone_spacing = bandwidth / tone_count`` and ``tx_tone_offset =
    tone_spacing / grid_ratio`` are kept as exact ratios so the sequence
    period lands on an integer number of samples.
    """
    for name, value in (
        ("tone_count", tone_count),
        ("grid_ratio", grid_ratio),
        ("averaging_count", averaging_count),
    ):
        if int(value) != value or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    tone_spacing = bandwidth / tone_count
    tx_tone_offset = tone_spacing / grid_ratio
    sequence_period = 1.0 / tx_tone_offset
    snapshot_time = averaging_count * sequence_period
    snapshot_count = int(recording_time / snapshot_time * (1 + _REL_TOL))
    return SounderConfig(
        center_frequency=center_frequency,
        tone_spacing=tone_spacing,
        tone_count=tone_count,
        tx_count=tx_count,
        tx_tone_offset=tx_tone_offset,
        bandwidth=bandwidth,
        max_excess_delay=1.0 / (2.0 * tone_spacing),
        sequence_period=sequence_period,
        averaging_count=averaging_count,
        snapshot_time=snapshot_time,
        max_speed=max_speed,
        max_doppler=max_doppler,
        recording_time=recording_time,
        sample_rate=sample_rate,
        snapshot_count=snapshot_count,
    )


def default_config() -> SounderConfig:
    """The 100 MHz / 60.15 GHz reference design (21 tones, 2 TX, N=212)."""
    return derive_config()


def narrowband_config(
    bandwidth_scale: float = 0.01,
    recording_time: float = 3.2,
    averaging_count: int = 2,
) -> SounderConfig:
    """Narrowband variant of the reference design for fast simulation.

    Scaling the bandwidth down stretches the sequence period, so the
    averaging count must shrink to keep the snapshot time inside the Doppler
    bound; carrier, geometry and speeds are unchanged.
    """
    return derive_config(
        bandwidth=100e6 * bandwidth_scale,
        sample_rate=125e6 * bandwidth_scale,
        averaging_count=averaging_count,
        recording_time=recording_time,
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
    """Re-derive every design rule of ``cfg`` and report one check per rule.

    The Doppler rule is checked against the configured ``max_doppler``
    design bound; the exact ``max_speed * fc / c`` value is reported in the
    derived map (it exceeds a rounded design bound slightly).
    """
    report = ValidationReport()

    def add(name, value, bound, passed, note=""):
        report.checks.append(ValidationCheck(name, bool(passed), value, bound, note))

    delay_bound = 1.0 / (2.0 * cfg.max_excess_delay)
    add(
        "delay_sampling",
        cfg.tone_spacing,
        delay_bound,
        cfg.tone_spacing <= delay_bound * (1 + _REL_TOL),
        "tone spacing vs 1/(2 max excess delay)",
    )

    doppler_bound = 1.0 / (2.0 * cfg.max_doppler)
    add(
        "doppler_sampling",
        cfg.snapshot_time,
        doppler_bound,
        cfg.snapshot_time <= doppler_bound * (1 + _REL_TOL),
        "snapshot time vs 1/(2 max Doppler)",
    )

    period = 1.0 / cfg.tx_tone_offset
    add(
        "period_matches_offset_grid",
        cfg.sequence_period,
        period,
        math.isclose(cfg.sequence_period, period, rel_tol=_REL_TOL),
        "sequence period vs 1/tx_tone_offset",
    )

    snapshot = cfg.averaging_count * cfg.sequence_period
    add(
        "snapshot_is_averaged_periods",
        cfg.snapshot_time,
        snapshot,
        math.isclose(cfg.snapshot_time, snapshot, rel_tol=_REL_TOL),
        "snapshot time vs averaging_count periods",
    )

    occupied = cfg.tone_count * cfg.tone_spacing
    add(
        "tones_within_bandwidth",
        occupied,
        cfg.bandwidth,
        occupied <= cfg.bandwidth * (1 + _REL_TOL),
        "tone_count * tone_spacing vs bandwidth",
    )

    ratio = cfg.tone_spacing / cfg.tx_tone_offset
    ratio_ok = abs(ratio - round(ratio)) <= 1e-6 * max(1.0, ratio)
    add(
        "tx_combs_collision_free",
        ratio,
        cfg.tx_count,
        ratio_ok and round(ratio) >= cfg.tx_count,
        "tone_spacing/tx_tone_offset must be an integer >= tx_count",
    )

    add(
        "noise_slot_free",
        ratio,
        cfg.tx_count,
        ratio_ok and round(ratio) > cfg.tx_count,
        "tone_spacing/tx_tone_offset must exceed tx_count to leave a noise slot",
    )

    samples = cfg.sample_rate * cfg.sequence_period
    add(
        "samples_per_period_integer",
        samples,
        round(samples),
        round(samples) >= 1 and abs(samples - round(samples)) <= 1e-6,
        "sequence period must span an integer number of samples",
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

    q_exact = int(cfg.recording_time / cfg.snapshot_time * (1 + _REL_TOL))
    add(
        "snapshot_count",
        cfg.snapshot_count,
        q_exact,
        cfg.snapshot_count == q_exact,
        "snapshot count vs floor(recording_time/snapshot_time)",
    )

    report.derived = {
        "processing_gain_db": processing_gain(cfg.averaging_count),
        "max_alias_free_delay_s": 1.0 / (2.0 * cfg.tone_spacing),
        "max_alias_free_doppler_hz": 1.0 / (2.0 * cfg.snapshot_time),
        "doppler_at_max_speed_hz": max_doppler(cfg.max_speed, cfg.center_frequency),
        "sequence_period_s": period,
        "snapshot_time_s": snapshot,
        "snapshot_count_from_times": float(q_exact),
        "samples_per_period": samples,
    }
    return report
