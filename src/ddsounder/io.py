"""File formats: raw records, channel grids, surfaces, CSV/JSON, INI configs.

Binary layouts are little-endian with a four-byte magic whose trailing digit
is the format version, and carry the generating seed so downstream stages
can derive their own streams.  All writers go through an atomic
write-then-rename so a crashed run never leaves a truncated file behind.

``FileFormatError`` means the bytes were read but do not form a valid file;
plain ``OSError`` means the file could not be read at all.
"""

from __future__ import annotations

import configparser
import csv
import io as _stdio
import json
import math
import os
import struct

import numpy as np

from .channel import BeamPattern, PlanarReflector, RayTracks, ScenarioConfig
from .params import ConfigError, SounderConfig, derive_config
from .tfanalysis import DelayDopplerGrid, Peak, PeakList
from .rxproc import TransferFunctionGrid
from .waveform import SampledSignal

__all__ = [
    "FileFormatError",
    "atomic_write",
    "write_signal",
    "read_signal",
    "write_grid",
    "read_grid",
    "write_surface",
    "read_surface",
    "write_snr_csv",
    "read_snr_csv",
    "write_dsd_csv",
    "read_dsd_csv",
    "write_paths_csv",
    "write_peaks_json",
    "read_peaks_json",
    "save_sounder_config",
    "load_sounder_config",
    "save_scenario",
    "load_scenario",
]


class FileFormatError(ValueError):
    """Read bytes do not form a valid file of the expected format."""


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- raw I/Q records ---------------------------------------------------------

_SIGNAL_MAGIC = b"DDS1"
_SIGNAL_HEADER = struct.Struct("<4sIdQd")  # magic, seed, rate, length, t0


def write_signal(path: str, signal: SampledSignal, seed: int) -> None:
    """Store a complex baseband record (32-byte header + complex128 I/Q)."""
    header = _SIGNAL_HEADER.pack(
        _SIGNAL_MAGIC,
        seed & 0xFFFFFFFF,
        float(signal.sample_rate),
        signal.samples.size,
        float(signal.t0),
    )
    atomic_write(path, header + np.asarray(signal.samples, dtype="<c16").tobytes())


def read_signal(path: str) -> tuple[SampledSignal, int]:
    with open(path, "rb") as fh:
        header = fh.read(_SIGNAL_HEADER.size)
        if len(header) < _SIGNAL_HEADER.size:
            raise FileFormatError(f"{path}: truncated header")
        magic, seed, rate, length, t0 = _SIGNAL_HEADER.unpack(header)
        if magic != _SIGNAL_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}, expected {_SIGNAL_MAGIC!r}")
        # size check before the allocation: a corrupt length must not ask
        # for more memory than the file could fill
        payload = os.fstat(fh.fileno()).st_size - _SIGNAL_HEADER.size
        if payload != 16 * length:
            raise FileFormatError(
                f"{path}: payload is {payload} bytes, header promises {16 * length}"
            )
        samples = np.empty(length, dtype="<c16")
        if fh.readinto(samples) != payload:
            raise FileFormatError(f"{path}: file shrank while being read")
    return SampledSignal(samples=samples, sample_rate=rate, t0=t0), int(seed)


# -- tone-time channel grids -------------------------------------------------

_GRID_MAGIC = b"DDG1"
# magic, seed, snapshots, tones, tx index, reserved, t0, snapshot spacing
_GRID_HEADER = struct.Struct("<4sIIIIIdd")


def write_grid(path: str, grid: TransferFunctionGrid, seed: int) -> None:
    """Store a snapshot-by-tone transfer-function grid.

    Snapshot times are assumed uniformly spaced (they are for demultiplexed
    records) and stored as start + spacing only.
    """
    times = grid.snapshot_times
    spacing = float(times[1] - times[0]) if times.size > 1 else 0.0
    header = _GRID_HEADER.pack(
        _GRID_MAGIC,
        seed & 0xFFFFFFFF,
        grid.values.shape[0],
        grid.values.shape[1],
        grid.tx_index,
        0,
        float(times[0]),
        spacing,
    )
    body = (
        np.asarray(grid.tone_frequencies, dtype="<f8").tobytes()
        + np.asarray(grid.values, dtype="<c16").tobytes()
    )
    atomic_write(path, header + body)


def read_grid(path: str) -> tuple[TransferFunctionGrid, int]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _GRID_HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, seed, n_snap, n_tone, tx_index, _, t0, spacing = _GRID_HEADER.unpack_from(
        blob
    )
    if magic != _GRID_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {_GRID_MAGIC!r}")
    expected = _GRID_HEADER.size + 8 * n_tone + 16 * n_snap * n_tone
    if len(blob) != expected:
        raise FileFormatError(f"{path}: size {len(blob)}, expected {expected}")
    offset = _GRID_HEADER.size
    freqs = np.frombuffer(blob, dtype="<f8", count=n_tone, offset=offset).copy()
    offset += 8 * n_tone
    values = np.frombuffer(blob, dtype="<c16", offset=offset).reshape(n_snap, n_tone)
    grid = TransferFunctionGrid(
        tx_index=int(tx_index),
        values=values.copy(),
        snapshot_times=t0 + spacing * np.arange(n_snap),
        tone_frequencies=freqs,
    )
    return grid, int(seed)


# -- real-valued delay-Doppler surfaces --------------------------------------

_SURFACE_MAGIC = b"DDG2"
_SURFACE_HEADER = struct.Struct("<4sIIId")  # magic, seed, rows, cols, window start


def write_surface(path: str, grid: DelayDopplerGrid, seed: int) -> None:
    """Store a real surface with its delay and Doppler axes."""
    values = np.asarray(grid.values)
    if np.iscomplexobj(values):
        raise ValueError("surfaces are real-valued; store grids as DDG1 instead")
    header = _SURFACE_HEADER.pack(
        _SURFACE_MAGIC,
        seed & 0xFFFFFFFF,
        values.shape[0],
        values.shape[1],
        float(grid.window_start_time),
    )
    body = (
        np.asarray(grid.delay_axis, dtype="<f8").tobytes()
        + np.asarray(grid.doppler_axis, dtype="<f8").tobytes()
        + np.asarray(values, dtype="<f8").tobytes()
    )
    atomic_write(path, header + body)


def read_surface(path: str) -> tuple[DelayDopplerGrid, int]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _SURFACE_HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, seed, rows, cols, start = _SURFACE_HEADER.unpack_from(blob)
    if magic != _SURFACE_MAGIC:
        raise FileFormatError(
            f"{path}: bad magic {magic!r}, expected {_SURFACE_MAGIC!r}"
        )
    expected = _SURFACE_HEADER.size + 8 * (rows + cols + rows * cols)
    if len(blob) != expected:
        raise FileFormatError(f"{path}: size {len(blob)}, expected {expected}")
    offset = _SURFACE_HEADER.size
    delay = np.frombuffer(blob, dtype="<f8", count=rows, offset=offset).copy()
    offset += 8 * rows
    doppler = np.frombuffer(blob, dtype="<f8", count=cols, offset=offset).copy()
    offset += 8 * cols
    values = np.frombuffer(blob, dtype="<f8", offset=offset).reshape(rows, cols)
    grid = DelayDopplerGrid(
        values=values.copy(),
        delay_axis=delay,
        doppler_axis=doppler,
        window_start_time=start,
    )
    return grid, int(seed)


# -- CSV columns --------------------------------------------------------------


def _format_float(x: float) -> str:
    return f"{x:.12g}"


def _write_rows(path, header, row_format, columns) -> None:
    """Write a CSV: the ``header`` line, then ``row_format % row`` per row.

    ``columns`` are 1-D and equally long; row ``i`` takes entry ``i`` of each.
    """
    columns = [np.asarray(col) for col in columns]
    if any(col.ndim != 1 for col in columns) or len({col.size for col in columns}) > 1:
        raise ValueError("columns must be 1-D and equally long")
    rows = zip(*(col.tolist() for col in columns))
    lines = [",".join(header)] + [row_format % row for row in rows]
    atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def _read_two_column_csv(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty file") from None
        if first != list(header):
            raise FileFormatError(
                f"{path}: header {first!r}, expected {list(header)!r}"
            )
        col_a, col_b = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected 2 fields")
            try:
                col_a.append(float(row[0]))
                col_b.append(float(row[1]))
            except ValueError:
                raise FileFormatError(
                    f"{path}:{lineno}: cannot parse {row!r} as floats"
                ) from None
    return np.array(col_a), np.array(col_b)


def write_snr_csv(path: str, times: np.ndarray, snr_db: np.ndarray) -> None:
    _write_rows(path, ("time_s", "snr_db"), "%.12g,%.12g", (times, snr_db))


def read_snr_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    return _read_two_column_csv(path, ("time_s", "snr_db"))


def write_dsd_csv(path: str, doppler_hz: np.ndarray, power: np.ndarray) -> None:
    _write_rows(path, ("doppler_hz", "power"), "%.12g,%.12g", (doppler_hz, power))


def read_dsd_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    return _read_two_column_csv(path, ("doppler_hz", "power"))


def write_paths_csv(path: str, tracks: RayTracks) -> None:
    """Ground-truth ray table: one row per visible ray of ``tracks``.

    Rows are time-major, with the rays of each instant in LOS-then-reflector
    order.  Gains are real, so ``gain_imag`` is always ``0``.
    """
    instant, ray = np.nonzero(tracks.visible)
    _write_rows(
        path,
        ("time_s", "kind", "delay_s", "doppler_hz", "gain_real", "gain_imag"),
        "%.12g,%s,%.12g,%.12g,%.12g,0",
        (
            tracks.times[instant],
            np.asarray(tracks.kinds)[ray],
            tracks.delay[instant, ray],
            tracks.doppler[instant, ray],
            tracks.gain[instant, ray],
        ),
    )


# -- peak lists ---------------------------------------------------------------


def write_peaks_json(
    path: str,
    peaks: PeakList,
    window_start_time: float = 0.0,
    extra: dict | None = None,
) -> None:
    """Store a peak list (delay s / Doppler Hz / power) with optional metadata."""
    obj = {
        "window_start_time": window_start_time,
        "peaks": [
            {"delay_s": p.delay, "doppler_hz": p.doppler, "power": p.power}
            for p in peaks.entries
        ],
    }
    if extra:
        for key in extra:
            if key in obj:
                raise ValueError(f"metadata key {key!r} collides with a standard key")
        obj.update(extra)
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def read_peaks_json(path: str) -> tuple[PeakList, dict]:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: {exc}") from None
    try:
        entries = [
            Peak(
                delay=float(p["delay_s"]),
                doppler=float(p["doppler_hz"]),
                power=float(p["power"]),
            )
            for p in obj["peaks"]
        ]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: malformed peak list ({exc})") from None
    return PeakList(entries=entries), obj


# -- INI configuration --------------------------------------------------------

_SOUNDER_KEYS = {
    "center_frequency": float,
    "bandwidth": float,
    "tone_count": int,
    "tx_count": int,
    "grid_ratio": int,
    "averaging_count": int,
    "max_speed": float,
    "max_doppler": float,
    "recording_time": float,
    "sample_rate": float,
}

_SCENARIO_KEYS = {
    "rx_position": "triple",
    "tx_velocity": "triple",
    "tx_antenna_height": float,
    "canyon_width": float,
    "wall_loss_db": float,
    "truck": bool,
    "ground": bool,
    "trigger_distance": float,
    "duration": float,
    "standstill_duration": float,
    "noise_psd": float,
    "cfo": float,
    "rx_gain_dbi": float,
    "beam_elevation_deg": "floats",
    "beam_gain_dbi": float,
    "beam_width_deg": float,
    "beam_floor_dbi": float,
}


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        # configparser already embeds the source name and line number
        raise ConfigError(str(exc)) from None
    return parser


def _section_values(parser, path, section, schema) -> dict:
    if not parser.has_section(section):
        raise ConfigError(f"{path}: missing [{section}] section")
    values = {}
    for key in parser.options(section):
        if key not in schema:
            raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
    for key, kind in schema.items():
        if not parser.has_option(section, key):
            raise ConfigError(f"{path}: missing key '{key}' in [{section}]")
        raw = parser.get(section, key)
        try:
            if kind is bool:
                lowered = raw.strip().lower()
                if lowered not in ("true", "false", "yes", "no", "1", "0"):
                    raise ValueError(raw)
                values[key] = lowered in ("true", "yes", "1")
            elif kind == "triple":
                parts = [float(p) for p in raw.split(",")]
                if len(parts) != 3:
                    raise ValueError(raw)
                values[key] = np.array(parts)
            elif kind == "floats":
                values[key] = [float(p) for p in raw.split(",")]
            else:
                values[key] = kind(raw)
        except ValueError:
            raise ConfigError(
                f"{path}: key '{key}' in [{section}]: cannot parse '{raw}'"
            ) from None
    return values


def load_sounder_config(path: str) -> SounderConfig:
    """Read the [sounder] section; every key is required, none may be extra."""
    parser = _read_ini(path)
    values = _section_values(parser, path, "sounder", _SOUNDER_KEYS)
    return derive_config(**values)


def save_sounder_config(path: str, cfg: SounderConfig) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["sounder"] = {
        "center_frequency": _format_float(cfg.center_frequency),
        "bandwidth": _format_float(cfg.bandwidth),
        "tone_count": str(cfg.tone_count),
        "tx_count": str(cfg.tx_count),
        "grid_ratio": str(cfg.grid_ratio),
        "averaging_count": str(cfg.averaging_count),
        "max_speed": _format_float(cfg.max_speed),
        "max_doppler": _format_float(cfg.max_doppler),
        "recording_time": _format_float(cfg.recording_time),
        "sample_rate": _format_float(cfg.sample_rate),
    }
    buf = _stdio.StringIO()
    parser.write(buf)
    atomic_write(path, buf.getvalue().encode("ascii"))


def load_scenario(path: str) -> ScenarioConfig:
    """Read the [scenario] section into a drive-by scenario.

    The start position is derived from the trigger distance (the vehicle
    starts on the light barrier, approaching in the direction it travels).
    """
    parser = _read_ini(path)
    v = _section_values(parser, path, "scenario", _SCENARIO_KEYS)
    rx = v["rx_position"]
    dz = rx[2] - v["tx_antenna_height"]
    if v["trigger_distance"] <= abs(dz):
        raise ConfigError(f"{path}: trigger_distance shorter than the height offset")
    ground = math.sqrt(v["trigger_distance"] ** 2 - dz * dz)
    speed = float(np.linalg.norm(v["tx_velocity"]))
    if speed <= 0:
        raise ConfigError(f"{path}: tx_velocity must be non-zero")
    start = rx - v["tx_velocity"] / speed * ground
    start[2] = v["tx_antenna_height"]
    half = v["canyon_width"] / 2
    reflectors = [
        PlanarReflector(kind="wall", y=+half, loss_db=v["wall_loss_db"]),
        PlanarReflector(kind="wall", y=-half, loss_db=v["wall_loss_db"]),
    ]
    if v["ground"]:
        reflectors.append(PlanarReflector(kind="ground", z=0.0, loss_db=6.0))
    if v["truck"]:
        truck_y = 4.0
        if not truck_y < half:
            raise ConfigError(
                f"{path}: truck plane y = {truck_y} lies outside canyon_width {half * 2}"
            )
        reflectors.append(
            PlanarReflector(
                kind="truck",
                y=truck_y,
                x_range=(-30.0, -10.0),
                z_range=(0.0, 4.5),
                loss_db=10.0,
            )
        )
    beams = [
        BeamPattern(
            boresight_elevation_deg=elev,
            gain_dbi=v["beam_gain_dbi"],
            beamwidth_3db_deg=v["beam_width_deg"],
            floor_dbi=v["beam_floor_dbi"],
        )
        for elev in v["beam_elevation_deg"]
    ]
    return ScenarioConfig(
        rx_position=rx,
        tx_start_position=start,
        tx_velocity=v["tx_velocity"],
        tx_antenna_height=v["tx_antenna_height"],
        canyon_width=v["canyon_width"],
        reflectors=reflectors,
        trigger_distance=v["trigger_distance"],
        duration=v["duration"],
        standstill_duration=v["standstill_duration"],
        noise_psd=v["noise_psd"],
        cfo=v["cfo"],
        tx_beams=beams,
        rx_gain_dbi=v["rx_gain_dbi"],
    )


def save_scenario(path: str, scenario: ScenarioConfig) -> None:
    """Write the drive-by parameter set; geometry details are re-derived on load."""
    walls = [r for r in scenario.reflectors if r.kind == "wall"]
    wall_loss = walls[0].loss_db if walls else 6.0
    has_truck = any(r.kind == "truck" for r in scenario.reflectors)
    has_ground = any(r.kind == "ground" for r in scenario.reflectors)
    beams = scenario.tx_beams or [BeamPattern()]
    lead = beams[0]
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["scenario"] = {
        "rx_position": ", ".join(_format_float(x) for x in scenario.rx_position),
        "tx_velocity": ", ".join(_format_float(x) for x in scenario.tx_velocity),
        "tx_antenna_height": _format_float(scenario.tx_antenna_height),
        "canyon_width": _format_float(scenario.canyon_width),
        "wall_loss_db": _format_float(wall_loss),
        "truck": "true" if has_truck else "false",
        "ground": "true" if has_ground else "false",
        "trigger_distance": _format_float(scenario.trigger_distance),
        "duration": _format_float(scenario.duration),
        "standstill_duration": _format_float(scenario.standstill_duration),
        "noise_psd": _format_float(scenario.noise_psd),
        "cfo": _format_float(scenario.cfo),
        "rx_gain_dbi": _format_float(scenario.rx_gain_dbi),
        "beam_elevation_deg": ", ".join(
            _format_float(b.boresight_elevation_deg) for b in beams
        ),
        "beam_gain_dbi": _format_float(lead.gain_dbi),
        "beam_width_deg": _format_float(lead.beamwidth_3db_deg),
        "beam_floor_dbi": _format_float(lead.floor_dbi),
    }
    buf = _stdio.StringIO()
    parser.write(buf)
    atomic_write(path, buf.getvalue().encode("ascii"))
