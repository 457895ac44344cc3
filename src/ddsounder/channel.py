"""Geometric drive-by channel: scenario, ray paths, and record synthesis.

The scenario is a street canyon: a receiver mounted above a crossing, a
transmitter-carrying car approaching along the street, vertical reflecting
planes for the canyon walls and (optionally) a parked truck.  Paths are LOS
plus single-bounce image-source reflections; per-path Doppler follows from
the geometry time derivative, and directivity from a Gaussian main-lobe horn
model.  The record is made in geometry groups of a bounded number of
snapshot blocks, each on its own and chunk by chunk, so a record of any
length can be written to disk without being whole in memory, and its groups
by several processes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels
from .params import SPEED_OF_LIGHT, ConfigError, SounderConfig, free_space_path_loss
from .waveform import SampledSignal, TonePlan

__all__ = [
    "BeamPattern",
    "PlanarReflector",
    "ScenarioConfig",
    "RayTracks",
    "default_scenario",
    "tx_position",
    "horn_gain",
    "ray_tracks",
    "block_tracks",
    "apply_channel",
    "transfer_function",
]

_T_EPS = 1e-9

# (period, ray) rows per kernel call; bounds the kernel's (rows, L) arrays
_KERNEL_ROWS = 256
# snapshot blocks whose ray geometry is evaluated at once (rounded up to
# whole kernel calls); bounds the (blocks, rays) arrays of a long record
_GEOMETRY_BLOCKS = 512


def _require_finite(**values) -> None:
    """Raise ``ConfigError`` naming the first value with a NaN or infinite entry."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ConfigError(f"{name} must be finite, got {value}")


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
        _require_finite(**vars(self))
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
        _require_finite(**{k: v for k, v in vars(self).items() if k != "kind"})
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
        lists = ("reflectors", "tx_beams")
        _require_finite(**{k: v for k, v in vars(self).items() if k not in lists})
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


class RayTracks(NamedTuple):
    """Candidate rays of one TX over ``times`` (T,), from :func:`ray_tracks`.

    ``kinds`` (P,) tags the LOS and then one ray per reflector.  ``delay``
    (s), ``doppler`` (Hz), ``gain`` (real linear amplitude) and ``visible``
    are each (T, P); only the ``visible`` entries are rays.
    """

    times: np.ndarray
    kinds: tuple[str, ...]
    delay: np.ndarray
    doppler: np.ndarray
    gain: np.ndarray
    visible: np.ndarray


def default_scenario(
    *,
    rx_position=(0.0, 0.0, 5.0),
    tx_velocity=(14.0, 0.0, 0.0),
    tx_antenna_height: float = 2.0,
    canyon_width: float = 20.0,
    wall_loss_db: float = 6.0,
    truck: bool = True,
    ground: bool = True,
    trigger_distance: float = 41.0,
    duration: float = 3.2,
    standstill_duration: float = 0.02,
    noise_psd: float = 1e-15,
    cfo: float = 120.0,
    rx_gain_dbi: float = -4.0,
    beam_elevation_deg=(0.0, 15.0),
    beam_gain_dbi: float = 20.0,
    beam_width_deg: float = 15.0,
    beam_floor_dbi: float = -20.0,
) -> ScenarioConfig:
    """Street-canyon drive-by: horn beams, walls, street surface, parked truck.

    The arguments are exactly the ``[scenario]`` INI keys; ``load_scenario``
    builds its street here too.  The car starts where the slant range to the
    receiver is the trigger distance (the light barrier), driving along the
    horizontal ``tx_velocity``.  One horn per elevation, all with the same
    gain, width and floor.  The street reflection departs below the horizon,
    so the up-tilted beam suppresses it far more than the horizontal beam;
    the truck's canvas side (y = 4 m) is lossier than the building walls.
    """
    # every argument but the two flags is numeric
    _require_finite(**{k: v for k, v in locals().items() if k not in ("truck", "ground")})
    rx = np.asarray(rx_position, dtype=np.float64)
    velocity = np.asarray(tx_velocity, dtype=np.float64)
    if rx.shape != (3,) or velocity.shape != (3,):
        raise ConfigError("rx_position and tx_velocity must be 3-vectors")
    dz = rx[2] - tx_antenna_height
    if not trigger_distance > abs(dz):
        raise ConfigError("trigger_distance shorter than the height offset")
    speed = float(np.linalg.norm(velocity))
    if not speed > 0:
        raise ConfigError("tx_velocity must be non-zero")
    if velocity[2] != 0:
        raise ConfigError(f"tx_velocity must be horizontal, got {velocity.tolist()}")
    start = rx - velocity / speed * math.sqrt(trigger_distance**2 - dz * dz)
    start[2] = tx_antenna_height
    half = canyon_width / 2
    reflectors = [
        PlanarReflector(kind="wall", y=+half, loss_db=wall_loss_db),
        PlanarReflector(kind="wall", y=-half, loss_db=wall_loss_db),
    ]
    if ground:
        reflectors.append(PlanarReflector(kind="ground", z=0.0, loss_db=6.0))
    if truck:
        if not 4.0 < half:
            raise ConfigError(f"truck plane y = 4.0 lies outside canyon_width {canyon_width}")
        reflectors.append(
            PlanarReflector(
                kind="truck",
                y=4.0,
                x_range=(-30.0, -10.0),
                z_range=(0.0, 4.5),
                loss_db=10.0,
            )
        )
    beams = [
        BeamPattern(
            boresight_elevation_deg=elevation,
            gain_dbi=beam_gain_dbi,
            beamwidth_3db_deg=beam_width_deg,
            floor_dbi=beam_floor_dbi,
        )
        for elevation in beam_elevation_deg
    ]
    return ScenarioConfig(
        rx_position=rx,
        tx_start_position=start,
        tx_velocity=velocity,
        tx_antenna_height=tx_antenna_height,
        canyon_width=canyon_width,
        reflectors=reflectors,
        trigger_distance=trigger_distance,
        duration=duration,
        standstill_duration=standstill_duration,
        noise_psd=noise_psd,
        cfo=cfo,
        tx_beams=beams,
        rx_gain_dbi=rx_gain_dbi,
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


def ray_tracks(
    scenario: ScenarioConfig, cfg: SounderConfig, times: np.ndarray, tx_index: int
) -> RayTracks:
    """Every candidate ray of one TX at each of ``times``; only the
    ``visible`` entries are rays.

    The candidates are the LOS and one single-bounce image-source ray per
    reflector, in ``scenario.reflectors`` order.  A reflection is visible
    while TX and RX sit strictly on the same side of its plane and the
    specular point lies on its extent; the RX image then lies strictly on
    the other side, so the specular point is interior to the TX-image
    segment.  Doppler is positive while the path shortens (the sign
    convention of an approaching transmitter).  Hidden entries carry the
    LOS geometry, so every value is finite.
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
    kinds = ("los",) + tuple(r.kind for r in reflectors)
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
    return RayTracks(
        times,
        kinds,
        distance / SPEED_OF_LIGHT,
        -radial_speed * fc / SPEED_OF_LIGHT,
        10.0 ** (level_db / 20.0),
        visible,
    )


def block_tracks(
    scenario: ScenarioConfig,
    cfg: SounderConfig,
    block_count: int,
    tx_index: int,
) -> Iterator[RayTracks]:
    """:func:`ray_tracks` of one TX at the starts of the first ``block_count``
    snapshot blocks of the record, as consecutive :class:`RayTracks` of at
    most ``_GEOMETRY_BLOCKS`` blocks each, so that memory stays bounded
    whatever the record length."""
    starts = np.arange(block_count) * cfg.samples_per_snapshot / cfg.sample_rate
    for first in range(0, block_count, _GEOMETRY_BLOCKS):
        yield ray_tracks(scenario, cfg, starts[first : first + _GEOMETRY_BLOCKS], tx_index)


def _record_length(scenario: ScenarioConfig, cfg: SounderConfig) -> int:
    """Samples in the record of a drive of ``scenario.duration``."""
    return round(scenario.duration * cfg.sample_rate)


class _RecordGroups:
    """The RX record of a drive-by capture as consecutive geometry groups of
    ``blocks_per_group`` snapshot blocks, each made on its own.

    Every ray of every TX, evaluated at each snapshot block's start,
    contributes a delayed, carrier-phase-rotated copy of that TX's periodic
    waveform (hidden rays with zero gain); inside a block the delay varies
    linearly at the rate implied by the ray's Doppler.  Each chunk of
    consecutive blocks is finished in one pass: the kernel's exact tone sum,
    then counter-seeded complex white noise per block, then the CFO rotation.
    Block ``b``'s noise is ``sqrt(noise_psd fs / 2) (w[0::2] + j w[1::2])``
    for the first standard normals ``w`` of
    ``Generator(Philox(key=[seed, b]))``.

    A group's chunks depend only on its first block: the geometry is taken at
    block starts, the noise is keyed on the block index, and the CFO
    rotation on absolute sample indices.  So groups made in any order, or in
    different processes, give the same bytes.

    ``tx_signals`` holds one sequence period of ``cfg.samples_per_period``
    samples per TX, all at the configured sample rate, and ``seed`` is the
    noise key, [0, 2**32); they are checked here, before anything is made.
    """

    def __init__(self, tx_signals, scenario, cfg, seed):
        if len(tx_signals) != cfg.tx_count:
            raise ConfigError(
                f"{len(tx_signals)} TX signals given, config expects {cfg.tx_count}"
            )
        if len(scenario.tx_beams) != cfg.tx_count:
            raise ConfigError("scenario must configure one beam per TX")
        if not 0 <= seed < 2**32:
            raise ConfigError("seed must fit an unsigned 32-bit integer")
        for sig in tx_signals:
            if sig.samples.size != cfg.samples_per_period:
                raise ConfigError(
                    f"TX period of {sig.samples.size} samples, "
                    f"samples_per_period = {cfg.samples_per_period}"
                )
            if not math.isclose(sig.sample_rate, cfg.sample_rate, rel_tol=1e-12):
                raise ConfigError(
                    f"TX sample rate {sig.sample_rate} != configured {cfg.sample_rate}"
                )
        self.length = _record_length(scenario, cfg)
        if self.length < 1:
            raise ConfigError("scenario duration yields an empty record")

        self.periods = np.stack([sig.samples for sig in tx_signals])
        self.scenario, self.cfg, self.seed = scenario, cfg, seed
        self.wf_index = np.repeat(np.arange(cfg.tx_count), 1 + len(scenario.reflectors))
        per_call = max(1, _KERNEL_ROWS // (self.wf_index.size * cfg.averaging_count))
        self.blocks_per_call = per_call
        # whole kernel calls per geometry evaluation
        self.blocks_per_group = per_call * -(-_GEOMETRY_BLOCKS // per_call)
        self.block_count = -(-self.length // cfg.samples_per_snapshot)

    @property
    def groups(self) -> range:
        """The first block of each group."""
        return range(0, self.block_count, self.blocks_per_group)

    def chunks(self, first: int) -> Iterator[np.ndarray]:
        """The consecutive chunks of the group that starts at block ``first``,
        one per kernel call, from sample ``first * samples_per_snapshot`` on."""
        scenario, cfg = self.scenario, self.cfg
        block = cfg.samples_per_snapshot
        fs = cfg.sample_rate
        fc = cfg.center_frequency
        blocks_per_call, n_total = self.blocks_per_call, self.length

        # work arrays of the group: the kernel's tables, the noise draws and
        # the CFO rotation of one kernel call's samples
        tables = _kernels._RecordTables()
        draws = np.empty(2 * blocks_per_call * block)
        # Each block's noise is the start of its own Philox stream, keyed on
        # (seed, block index); one generator serves every block of the group,
        # its key rewritten and its counter and buffer reset per block.
        philox = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        normal = np.random.Generator(philox)
        state = philox.state
        noise_scale = math.sqrt(scenario.noise_psd * fs / 2.0)
        # exp(j 2 pi cfo (s + u) / fs) over block u of a block starting at s
        in_block = np.exp(2j * np.pi * scenario.cfo * (np.arange(block) / fs))
        rotation = np.empty((blocks_per_call, block), dtype=np.complex128)

        # one geometry evaluation per TX; the rays of all TX side by side
        stop = min(first + self.blocks_per_group, self.block_count)
        times = np.arange(first, stop) * block / fs
        tracks = [ray_tracks(scenario, cfg, times, tx) for tx in range(cfg.tx_count)]
        delay, doppler, gain, visible = (
            np.concatenate([getattr(t, name) for t in tracks], axis=1)
            for name in ("delay", "doppler", "gain", "visible")
        )
        gain = np.where(visible, gain, 0.0)
        dtau = -doppler / fc
        for offset in range(0, delay.shape[0], blocks_per_call):
            chunk = slice(offset, offset + blocks_per_call)
            start = (first + offset) * block
            stop = min(start + blocks_per_call * block, n_total)
            rx = _kernels.synthesize_paths(
                self.periods, self.wf_index, gain[chunk].T, delay[chunk].T, dtau[chunk].T,
                stop - start, start, fs, fc, block, tables=tables,
            )
            if scenario.noise_psd > 0:
                noise = draws[: 2 * rx.size]
                for index, at in enumerate(range(0, noise.size, 2 * block), start=first + offset):
                    state["state"]["key"][1] = index
                    philox.state = state
                    normal.standard_normal(out=noise[at : at + 2 * block])
                noise *= noise_scale
                rx += noise.view(np.complex128)
            if scenario.cfo != 0.0:
                phasor = np.exp(2j * np.pi * scenario.cfo * (np.arange(start, stop, block) / fs))
                np.multiply.outer(phasor, in_block, out=rotation[: phasor.size])
                rx *= rotation.reshape(-1)[: rx.size]
            yield rx


def apply_channel(
    tx_signals: list[SampledSignal],
    scenario: ScenarioConfig,
    cfg: SounderConfig,
    seed: int,
) -> SampledSignal:
    """Synthesize the whole RX record of a drive-by capture in memory: the
    chunks of every geometry group of :class:`_RecordGroups`, in order."""
    record = _RecordGroups(tx_signals, scenario, cfg, seed)
    out = np.empty(record.length, dtype=np.complex128)
    start = 0
    for first in record.groups:
        for rx in record.chunks(first):
            out[start : start + rx.size] = rx
            start += rx.size
    return SampledSignal(out, cfg.sample_rate, t0=0.0)


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
    tracks = ray_tracks(scenario, cfg, times, plan.tx_index)
    rf = cfg.center_frequency + plan.tone_frequencies
    rays = np.exp(np.multiply.outer(tracks.delay, -2j * np.pi * rf))  # (T, P, K)
    rays *= np.where(tracks.visible, tracks.gain, 0.0)[..., None]
    return rays.sum(axis=1)
