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
    "path_sets",
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
    """TX antenna position at time ``t`` (constant-velocity trajectory).

    An array of times gives one position per time, shape ``t.shape + (3,)``.
    """
    return scenario.tx_start_position + np.multiply.outer(t, scenario.tx_velocity)


def horn_gain(beam: BeamPattern, azimuth_deg: float, elevation_deg: float) -> float:
    """Directive gain (dBi) toward the given departure direction.

    Azimuth is measured in the horizontal plane from the driving direction,
    elevation from the horizon.  Array arguments broadcast against each other.
    """
    el = np.radians(elevation_deg)
    el0 = math.radians(beam.boresight_elevation_deg)
    daz = np.radians(np.subtract(azimuth_deg, beam.boresight_azimuth_deg))
    cos_psi = np.sin(el) * math.sin(el0) + np.cos(el) * math.cos(el0) * np.cos(daz)
    psi = np.degrees(np.arccos(np.clip(cos_psi, -1.0, 1.0)))
    gain = beam.gain_dbi - 3.0 * (psi / (beam.beamwidth_3db_deg / 2.0)) ** 2
    return np.maximum(gain, beam.floor_dbi)


def _heading(scenario: ScenarioConfig) -> np.ndarray:
    """Horizontal (x, y) unit vector of the driving direction (+x at standstill)."""
    h = scenario.tx_velocity[:2]
    norm = np.linalg.norm(h)
    return h / norm if norm > 0 else np.array([1.0, 0.0])


def _ray_tracks(
    scenario: ScenarioConfig, cfg: SounderConfig, times: np.ndarray, tx_index: int
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate ray of one TX at each of ``times``.

    The candidates are the LOS and one single-bounce image-source ray per
    reflector, in ``scenario.reflectors`` order.  A reflection is visible
    while TX and RX sit strictly on the same side of its plane and the
    specular point lies on its extent; the RX image then lies strictly on
    the other side, so the specular point is interior to the TX-image
    segment.  Doppler is positive while the path shortens (the sign
    convention of an approaching transmitter).

    Returns the ray ``kinds`` (P,) and ``delay`` (s), ``doppler`` (Hz),
    ``gain`` (real linear amplitude) and ``visible``, each (T, P); only the
    visible entries are rays.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    inside = (times >= -_T_EPS) & (times <= scenario.duration + _T_EPS)
    if not inside.all():
        t = times[~inside][0]
        raise ValueError(f"t={t} outside the scenario duration {scenario.duration}")
    if not 0 <= tx_index < len(scenario.tx_beams):
        raise ConfigError(f"no beam configured for tx_index {tx_index}")
    rx = scenario.rx_position
    reflectors = scenario.reflectors
    kinds = ["los"] + [r.kind for r in reflectors]
    targets = np.tile(rx, (len(kinds), 1))
    for ray, r in enumerate(reflectors, start=1):
        targets[ray, r.axis] = 2 * r.offset - rx[r.axis]

    tx = tx_position(scenario, times)
    separation = targets - tx[:, None, :]  # (T, P, 3), TX toward RX or its image
    visible = np.ones(separation.shape[:2], dtype=bool)
    for ray, r in enumerate(reflectors, start=1):
        to_plane = r.offset - tx[:, r.axis]
        same_side = to_plane * (r.offset - rx[r.axis]) > 0
        frac = np.divide(
            to_plane, separation[:, ray, r.axis], out=np.zeros_like(to_plane), where=same_side
        )
        specular = tx + frac[:, None] * separation[:, ray]
        visible[:, ray] = same_side
        for axis, rng in enumerate((r.x_range, r.y_range, r.z_range)):
            if rng is not None:
                visible[:, ray] &= (rng[0] <= specular[:, axis]) & (specular[:, axis] <= rng[1])
    # A hidden image ray can have zero length (TX at the RX image behind the
    # plane); hidden rays take the LOS geometry so that every value is finite.
    separation = np.where(visible[..., None], separation, separation[:, :1])
    distance = np.linalg.norm(separation, axis=-1)

    radial_speed = (-separation @ scenario.tx_velocity) / distance  # d|d|/dt
    direction = separation / distance[..., None]
    elevation = np.degrees(np.arcsin(np.clip(direction[..., 2], -1.0, 1.0)))
    horizontal = np.linalg.norm(direction[..., :2], axis=-1)
    cos_az = np.divide(
        direction[..., :2] @ _heading(scenario),
        horizontal,
        out=np.ones_like(horizontal),
        where=horizontal > 0,
    )
    azimuth = np.degrees(np.arccos(np.clip(cos_az, -1.0, 1.0)))
    fc = cfg.center_frequency
    level_db = (
        -free_space_path_loss(distance, fc)
        + horn_gain(scenario.tx_beams[tx_index], azimuth, elevation)
        + scenario.rx_gain_dbi
        - np.array([0.0] + [r.loss_db for r in reflectors])
    )
    return (
        kinds,
        distance / SPEED_OF_LIGHT,
        -radial_speed * fc / SPEED_OF_LIGHT,
        10.0 ** (level_db / 20.0),
        visible,
    )


def path_sets(
    scenario: ScenarioConfig, cfg: SounderConfig, times: np.ndarray, tx_index: int
) -> list[PathSet]:
    """The visible propagation paths of one TX at each of ``times``.

    Reflections are single-bounce image-source rays, present only while the
    specular point lies on the reflector.  Doppler is positive while the
    path shortens.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    kinds, delay, doppler, gain, visible = _ray_tracks(scenario, cfg, times, tx_index)
    rows = zip(times.tolist(), delay.tolist(), doppler.tolist(), gain.tolist(), visible)
    return [
        PathSet(
            t=t,
            paths=[
                PropagationPath(tau[p], nu[p], complex(g[p]), kinds[p])
                for p in np.flatnonzero(seen)
            ],
        )
        for t, tau, nu, g, seen in rows
    ]


def scenario_paths(
    scenario: ScenarioConfig, cfg: SounderConfig, t: float, tx_index: int
) -> PathSet:
    """Resolve all propagation paths of one TX at time ``t``."""
    return path_sets(scenario, cfg, [t], tx_index)[0]


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

    times = np.arange(0, n_total, block) / fs
    # one geometry evaluation per TX; the rays of all TX side by side per block
    delay, doppler, gain, visible = (
        np.concatenate(column, axis=1)
        for column in zip(
            *(_ray_tracks(scenario, cfg, times, tx)[1:] for tx in range(cfg.tx_count))
        )
    )
    wf_index = np.repeat(np.arange(cfg.tx_count), 1 + len(scenario.reflectors))
    dtau = -doppler / fc

    for block_index, start in enumerate(range(0, n_total, block)):
        stop = min(start + block, n_total)
        rays = visible[block_index]
        out[start:stop] = _kernels.synthesize_paths(
            periods,
            wf_index[rays],
            gain[block_index, rays],
            delay[block_index, rays],
            dtau[block_index, rays],
            stop - start,
            times[block_index],
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
    _, delay, _, gain, visible = _ray_tracks(scenario, cfg, times, plan.tx_index)
    rf = cfg.center_frequency + plan.tone_frequencies
    rays = np.exp(np.multiply.outer(delay, -2j * np.pi * rf))  # (T, P, K)
    rays *= np.where(visible, gain, 0.0)[..., None]
    return rays.sum(axis=1)
