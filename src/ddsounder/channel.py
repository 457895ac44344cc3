"""Geometric drive-by channel: scenario, ray paths, and record synthesis.

The scenario is a street canyon: a receiver mounted above a crossing, a
transmitter-carrying car approaching along the street, vertical reflecting
planes for the canyon walls and (optionally) a parked truck.  Paths are LOS
plus single-bounce image-source reflections; per-path Doppler follows from
the geometry time derivative, and directivity from a Gaussian main-lobe horn
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from . import _kernels
from .params import ConfigError, SounderConfig, free_space_path_loss
from .waveform import SampledSignal, TonePlan

__all__ = [
    "BeamPattern",
    "PlanarReflector",
    "ScenarioConfig",
    "PropagationPath",
    "PathSet",
    "default_scenario",
    "tx_position",
    "horn_gain",
    "scenario_paths",
    "apply_channel",
    "transfer_function",
]

_T_EPS = 1e-9


@dataclass
class BeamPattern:
    """Gaussian main-lobe horn: gain rolls off 3 dB at half the beamwidth.

    ``gain(psi) = gain_dbi - 3 (psi / (beamwidth/2))^2`` clipped at
    ``floor_dbi``, with ``psi`` the great-circle offset from boresight.
    """

    boresight_elevation_deg: float = 0.0
    boresight_azimuth_deg: float = 0.0
    gain_dbi: float = 20.0
    beamwidth_3db_deg: float = 15.0
    floor_dbi: float = -20.0

    def __post_init__(self):
        if self.beamwidth_3db_deg <= 0:
            raise ConfigError("beamwidth_3db_deg must be positive")
        if self.floor_dbi > self.gain_dbi:
            raise ConfigError("floor_dbi cannot exceed gain_dbi")


@dataclass
class PlanarReflector:
    """Axis-aligned reflecting plane with optional finite extent.

    Exactly one of ``y`` (vertical plane, e.g. a wall or a truck side) and
    ``z`` (horizontal plane, e.g. the street surface) must be given.
    """

    kind: str
    y: float | None = None
    z: float | None = None
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None
    z_range: tuple[float, float] | None = None
    loss_db: float = 6.0

    def __post_init__(self):
        if (self.y is None) == (self.z is None):
            raise ConfigError("exactly one of y and z must define the plane")
        for rng in (self.x_range, self.y_range, self.z_range):
            if rng is not None and not rng[0] < rng[1]:
                raise ConfigError(f"reflector extent {rng} is empty")

    @property
    def axis(self) -> int:
        """Index of the plane's normal axis (1 for y planes, 2 for z)."""
        return 1 if self.y is not None else 2

    @property
    def offset(self) -> float:
        return self.y if self.y is not None else self.z


@dataclass
class ScenarioConfig:
    """Drive-by measurement geometry and impairments.

    Coordinates: x along the street (driving direction), y across it, z up;
    units are meters, seconds, Hz.  ``noise_psd`` is the one-sided complex
    noise power spectral density on a linear scale (total noise power is
    ``noise_psd * sample_rate``).
    """

    rx_position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 5.0]))
    tx_start_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tx_velocity: np.ndarray = field(default_factory=lambda: np.array([14.0, 0.0, 0.0]))
    tx_antenna_height: float = 2.0
    canyon_width: float = 20.0
    reflectors: list[PlanarReflector] = field(default_factory=list)
    trigger_distance: float = 41.0
    duration: float = 3.2
    standstill_duration: float = 0.02
    noise_psd: float = 1e-15
    cfo: float = 120.0
    tx_beams: list[BeamPattern] = field(default_factory=list)
    rx_gain_dbi: float = -4.0

    def __post_init__(self):
        self.rx_position = np.asarray(self.rx_position, dtype=np.float64)
        self.tx_start_position = np.asarray(self.tx_start_position, dtype=np.float64)
        self.tx_velocity = np.asarray(self.tx_velocity, dtype=np.float64)
        for name in ("rx_position", "tx_start_position", "tx_velocity"):
            if getattr(self, name).shape != (3,):
                raise ConfigError(f"{name} must be a 3-vector")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.standstill_duration <= 0:
            raise ConfigError("standstill_duration must be positive")
        if self.noise_psd < 0:
            raise ConfigError("noise_psd must be non-negative")
        if self.canyon_width <= 0:
            raise ConfigError("canyon_width must be positive")
        if abs(self.tx_start_position[2] - self.tx_antenna_height) > 1e-9:
            raise ConfigError(
                "tx_start_position z must equal tx_antenna_height "
                f"({self.tx_start_position[2]} vs {self.tx_antenna_height})"
            )


@dataclass
class PropagationPath:
    """One resolved ray: delay (s), Doppler (Hz), complex gain, origin tag."""

    delay: float
    doppler: float
    gain: complex
    kind: str


@dataclass
class PathSet:
    """All rays that exist at one time instant."""

    t: float
    paths: list[PropagationPath]


def default_scenario(
    duration: float = 3.2,
    noise_psd: float = 1e-15,
    cfo: float = 120.0,
    truck: bool = True,
    ground: bool = True,
    trigger_distance: float = 41.0,
    speed: float = 14.0,
) -> ScenarioConfig:
    """Street-canyon drive-by: horn beams, walls, street surface, parked truck.

    The car starts where the slant range to the receiver equals the trigger
    distance (the light-barrier position) and drives in +x below the
    receiver.  TX antenna height 2 m, RX height 5 m, 20 m wide canyon.  The
    street reflection departs below the horizon, so the up-tilted beam
    suppresses it far more than the horizontal beam; the truck's canvas
    side is modeled lossier than the building walls.
    """
    rx = np.array([0.0, 0.0, 5.0])
    tx_height = 2.0
    dz = rx[2] - tx_height
    if trigger_distance <= abs(dz):
        raise ConfigError("trigger_distance shorter than the height offset")
    x0 = -math.sqrt(trigger_distance**2 - dz**2)
    half_width = 10.0
    reflectors = [
        PlanarReflector(kind="wall", y=+half_width, loss_db=6.0),
        PlanarReflector(kind="wall", y=-half_width, loss_db=6.0),
    ]
    if ground:
        reflectors.append(PlanarReflector(kind="ground", z=0.0, loss_db=6.0))
    if truck:
        reflectors.append(
            PlanarReflector(
                kind="truck",
                y=4.0,
                x_range=(-30.0, -10.0),
                z_range=(0.0, 4.5),
                loss_db=10.0,
            )
        )
    return ScenarioConfig(
        rx_position=rx,
        tx_start_position=np.array([x0, 0.0, tx_height]),
        tx_velocity=np.array([speed, 0.0, 0.0]),
        tx_antenna_height=tx_height,
        canyon_width=2 * half_width,
        reflectors=reflectors,
        trigger_distance=trigger_distance,
        duration=duration,
        noise_psd=noise_psd,
        cfo=cfo,
        tx_beams=[
            BeamPattern(boresight_elevation_deg=0.0),
            BeamPattern(boresight_elevation_deg=15.0),
        ],
        rx_gain_dbi=-4.0,
    )


def tx_position(scenario: ScenarioConfig, t: float) -> np.ndarray:
    """TX antenna position at time ``t`` (constant-velocity trajectory)."""
    return scenario.tx_start_position + scenario.tx_velocity * t


def horn_gain(beam: BeamPattern, azimuth_deg: float, elevation_deg: float) -> float:
    """Directive gain (dBi) toward the given departure direction.

    Azimuth is measured in the horizontal plane from the driving direction,
    elevation from the horizon.
    """
    el = math.radians(elevation_deg)
    el0 = math.radians(beam.boresight_elevation_deg)
    daz = math.radians(azimuth_deg - beam.boresight_azimuth_deg)
    cos_psi = math.sin(el) * math.sin(el0) + math.cos(el) * math.cos(el0) * math.cos(daz)
    psi = math.degrees(math.acos(min(1.0, max(-1.0, cos_psi))))
    gain = beam.gain_dbi - 3.0 * (psi / (beam.beamwidth_3db_deg / 2.0)) ** 2
    return max(gain, beam.floor_dbi)


def _heading(scenario: ScenarioConfig) -> np.ndarray:
    """Horizontal unit vector of the driving direction (+x at standstill)."""
    h = scenario.tx_velocity.copy()
    h[2] = 0.0
    norm = np.linalg.norm(h)
    if norm == 0:
        return np.array([1.0, 0.0, 0.0])
    return h / norm


def _departure_angles(direction: np.ndarray, heading: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) of a departure direction in the TX frame, deg."""
    d = direction / np.linalg.norm(direction)
    elevation = math.degrees(math.asin(min(1.0, max(-1.0, d[2]))))
    horizontal = d.copy()
    horizontal[2] = 0.0
    norm = np.linalg.norm(horizontal)
    if norm == 0:
        return 0.0, elevation
    horizontal /= norm
    cos_az = float(np.clip(np.dot(horizontal, heading), -1.0, 1.0))
    return math.degrees(math.acos(cos_az)), elevation


def _mirror_across_plane(point: np.ndarray, axis: int, offset: float) -> np.ndarray:
    image = point.copy()
    image[axis] = 2 * offset - point[axis]
    return image


def _specular_point(
    tx: np.ndarray, rx_image: np.ndarray, axis: int, offset: float
) -> np.ndarray | None:
    span = rx_image[axis] - tx[axis]
    if span == 0:
        return None
    frac = (offset - tx[axis]) / span
    if not 0.0 <= frac <= 1.0:
        return None
    return tx + frac * (rx_image - tx)


def _path_gain(
    scenario: ScenarioConfig,
    beam: BeamPattern,
    cfg: SounderConfig,
    distance: float,
    departure: np.ndarray,
    heading: np.ndarray,
    loss_db: float = 0.0,
) -> complex:
    azimuth, elevation = _departure_angles(departure, heading)
    level_db = (
        -free_space_path_loss(distance, cfg.center_frequency)
        + horn_gain(beam, azimuth, elevation)
        + scenario.rx_gain_dbi
        - loss_db
    )
    return complex(10.0 ** (level_db / 20.0))


def scenario_paths(
    scenario: ScenarioConfig, cfg: SounderConfig, t: float, tx_index: int
) -> PathSet:
    """Resolve all propagation paths of one TX at time ``t``.

    Doppler is positive while the path shortens (the sign convention of an
    approaching transmitter).  Reflections are single-bounce image-source
    rays, present only while the specular point lies on the reflector.
    """
    if not -_T_EPS <= t <= scenario.duration + _T_EPS:
        raise ValueError(f"t={t} outside the scenario duration {scenario.duration}")
    if not 0 <= tx_index < len(scenario.tx_beams):
        raise ConfigError(f"no beam configured for tx_index {tx_index}")
    beam = scenario.tx_beams[tx_index]
    heading = _heading(scenario)
    tx = tx_position(scenario, t)
    velocity = scenario.tx_velocity
    fc = cfg.center_frequency

    def ray(target: np.ndarray, kind: str, loss_db: float) -> PropagationPath:
        separation = target - tx
        distance = float(np.linalg.norm(separation))
        radial_speed = float(np.dot(-separation, velocity)) / distance  # d|d|/dt
        return PropagationPath(
            delay=distance / SPEED_OF_LIGHT,
            doppler=-radial_speed * fc / SPEED_OF_LIGHT,
            gain=_path_gain(scenario, beam, cfg, distance, separation, heading, loss_db),
            kind=kind,
        )

    paths = [ray(scenario.rx_position, "los", 0.0)]
    for reflector in scenario.reflectors:
        axis, offset = reflector.axis, reflector.offset
        # TX and RX must sit on the same side of the plane
        if (tx[axis] - offset) * (scenario.rx_position[axis] - offset) <= 0:
            continue
        rx_image = _mirror_across_plane(scenario.rx_position, axis, offset)
        specular = _specular_point(tx, rx_image, axis, offset)
        if specular is None:
            continue
        extents = (reflector.x_range, reflector.y_range, reflector.z_range)
        if any(
            rng is not None and not rng[0] <= specular[i] <= rng[1]
            for i, rng in enumerate(extents)
        ):
            continue
        paths.append(ray(rx_image, reflector.kind, reflector.loss_db))
    return PathSet(t=t, paths=paths)


def _noise_block(seed: int, block_index: int, count: int, power: float) -> np.ndarray:
    """Counter-seeded complex AWGN: stream identity is (seed, block_index).

    Each block owns an independent Philox stream, so blocks can be generated
    in any order (serial or parallel) with bit-identical results.
    """
    key = np.array([seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    w = rng.standard_normal(2 * count)
    return math.sqrt(power / 2.0) * (w[0::2] + 1j * w[1::2])


def apply_channel(
    tx_signals: list[SampledSignal],
    scenario: ScenarioConfig,
    cfg: SounderConfig,
    seed: int,
) -> SampledSignal:
    """Synthesize the RX record of a drive-by capture.

    Per snapshot block, every path of every TX contributes a delayed,
    carrier-phase-rotated copy of that TX's periodic waveform, evaluated as
    the period's tone sum at the fractional delay; the delay varies linearly
    inside a block at the rate implied by the path Doppler.  A CFO rotation
    and counter-seeded complex white noise are applied on top.

    Parameters
    ----------
    tx_signals : list of SampledSignal
        One sequence period per TX, all at the configured sample rate.
    seed : int
        Noise stream key, [0, 2**32).
    """
    if len(tx_signals) != cfg.tx_count:
        raise ConfigError(
            f"{len(tx_signals)} TX signals given, config expects {cfg.tx_count}"
        )
    if len(scenario.tx_beams) != cfg.tx_count:
        raise ConfigError("scenario must configure one beam per TX")
    if not 0 <= seed < 2**32:
        raise ConfigError("seed must fit an unsigned 32-bit integer")
    lengths = {sig.samples.size for sig in tx_signals}
    if len(lengths) != 1:
        raise ConfigError("all TX periods must have equal length")
    for sig in tx_signals:
        if not math.isclose(sig.sample_rate, cfg.sample_rate, rel_tol=1e-12):
            raise ConfigError(
                f"TX sample rate {sig.sample_rate} != configured {cfg.sample_rate}"
            )

    n_total = round(scenario.duration * cfg.sample_rate)
    if n_total < 1:
        raise ConfigError("scenario duration yields an empty record")
    periods = np.stack([sig.samples for sig in tx_signals])
    block = cfg.samples_per_snapshot
    fs = cfg.sample_rate
    fc = cfg.center_frequency
    out = np.empty(n_total, dtype=np.complex128)

    for block_index, start in enumerate(range(0, n_total, block)):
        stop = min(start + block, n_total)
        t_block = start / fs
        wf_index, gains, tau0, dtau = [], [], [], []
        for tx_index in range(cfg.tx_count):
            for path in scenario_paths(scenario, cfg, t_block, tx_index).paths:
                wf_index.append(tx_index)
                gains.append(path.gain)
                tau0.append(path.delay)
                dtau.append(-path.doppler / fc)
        out[start:stop] = _kernels.synthesize_paths(
            periods,
            np.array(wf_index, dtype=np.int64),
            np.array(gains, dtype=np.complex128),
            np.array(tau0, dtype=np.float64),
            np.array(dtau, dtype=np.float64),
            stop - start,
            t_block,
            fs,
            fc,
        )
        if scenario.noise_psd > 0:
            out[start:stop] += _noise_block(
                seed, block_index, stop - start, scenario.noise_psd * fs
            )

    if scenario.cfo != 0.0:
        for start in range(0, n_total, 1 << 20):
            stop = min(start + (1 << 20), n_total)
            t = np.arange(start, stop) / fs
            out[start:stop] *= np.exp(2j * np.pi * scenario.cfo * t)
    return SampledSignal(out, fs, t0=0.0)


def transfer_function(
    scenario: ScenarioConfig,
    cfg: SounderConfig,
    plan: TonePlan,
    times: np.ndarray,
) -> np.ndarray:
    """Exact per-tone channel transfer function at the given instants.

    ``H[l, k] = sum_p g_p(t_l) exp(-j 2 pi (fc + f_k) tau_p(t_l))`` -- the
    frequency-domain view of :func:`apply_channel` for a receiver that
    demultiplexes tone ``f_k`` of this TX.  Serves as the reference for the
    time-domain pipeline and as a fast window synthesizer.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    h = np.zeros((times.size, cfg.tone_count), dtype=np.complex128)
    rf = cfg.center_frequency + plan.tone_frequencies
    for row, t in enumerate(times):
        for path in scenario_paths(scenario, cfg, float(t), plan.tx_index).paths:
            h[row] += path.gain * np.exp(-2j * np.pi * rf * path.delay)
    return h
