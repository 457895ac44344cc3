"""File formats: raw records, channel grids, surfaces, CSV/JSON, INI configs.

Binary layouts are little-endian with a four-byte magic whose trailing digit
is the format version, and carry the generating seed so downstream stages
can derive their own streams.  All writers go through an atomic
write-then-rename so a crashed run never leaves a truncated file behind.

A raw record need never be whole in memory: :func:`write_signal_chunks`
streams it to disk chunk by chunk, and :class:`SignalReader` reads it back
in chunks into one reused buffer.  :func:`write_signal` and
:func:`read_signal` are their one-chunk cases.

``FileFormatError`` means the bytes were read but do not form a valid file;
plain ``OSError`` means the file could not be read at all.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import dataclasses
import inspect
import io as _stdio
import json
import os
import struct
from collections.abc import Iterable

import numpy as np

from .channel import RayTracks, ScenarioConfig, default_scenario
from .params import ConfigError, SounderConfig
from .tfanalysis import DelayDopplerGrid, Peak, PeakList
from .rxproc import TransferFunctionGrid
from .waveform import SampledSignal

__all__ = [
    "FileFormatError",
    "atomic_write",
    "write_signal_chunks",
    "write_signal",
    "SignalReader",
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


@contextlib.contextmanager
def _atomic_file(path: str):
    """Binary file handle on a same-directory temp file that replaces ``path``
    (after an fsync) only if the ``with`` body completes; otherwise the temp
    file is removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: bytes) -> None:
    """Write bytes-like ``data`` to ``path`` via a same-directory temp file + rename."""
    with _atomic_file(path) as fh:
        fh.write(data)


# -- binary codec -------------------------------------------------------------

# Each header starts with the magic and the seed.
_HEADERS = {
    b"DDS1": struct.Struct("<4sIdQd"),  # raw I/Q: rate, length, t0
    # tone-time grid: snapshots, tones, tx index, reserved, t0, snapshot spacing
    b"DDG1": struct.Struct("<4sIIIIIdd"),
    b"DDG2": struct.Struct("<4sIIId"),  # real surface: rows, cols, window start
}


def _write_binary(path: str, kind: bytes, seed: int, fields, arrays) -> None:
    """Store the ``kind`` header, then each array's raw bytes, from one buffer.

    ``fields`` are the header fields after the magic and the seed; each of
    ``arrays`` is already in its on-disk dtype and is copied once, into the
    buffer.
    """
    header = _HEADERS[kind]
    buf = np.empty(header.size + sum(a.nbytes for a in arrays), dtype=np.uint8)
    header.pack_into(buf, 0, kind, seed & 0xFFFFFFFF, *fields)
    offset = header.size
    for a in arrays:
        buf[offset : offset + a.nbytes].view(a.dtype).reshape(a.shape)[...] = a
        offset += a.nbytes
    atomic_write(path, buf)


def _read_header(fh, path: str, kind: bytes, layout) -> tuple[tuple, list]:
    """Check the header of an open ``kind`` file; its fields after the magic,
    and the ``(dtype, shape)`` of each array, ``layout(*fields)``.

    The payload size is checked against the header before anything is
    allocated, so a corrupt header cannot ask for more memory than the file
    could fill.
    """
    header = _HEADERS[kind]
    blob = fh.read(header.size)
    if len(blob) < header.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, *fields = header.unpack(blob)
    if magic != kind:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {kind!r}")
    shapes = layout(*fields)
    # object dtype keeps the products in exact Python integers
    promised = sum(
        np.dtype(dtype).itemsize * np.prod(shape, dtype=object) for dtype, shape in shapes
    )
    payload = os.fstat(fh.fileno()).st_size - header.size
    if payload != promised:
        raise FileFormatError(
            f"{path}: payload size is {payload} bytes, header promises {promised}"
        )
    return tuple(fields), shapes


def _read_binary(path: str, kind: bytes, layout) -> tuple[tuple, list[np.ndarray]]:
    """Read a ``kind`` file: its header fields after the magic, then its arrays,
    each read straight into place once :func:`_read_header` has passed."""
    with open(path, "rb") as fh:
        fields, shapes = _read_header(fh, path, kind, layout)
        arrays = [np.empty(shape, dtype) for dtype, shape in shapes]
        if sum(fh.readinto(a) for a in arrays) != sum(a.nbytes for a in arrays):
            raise FileFormatError(f"{path}: file shrank while being read")
    return fields, arrays


def _signal_layout(seed, rate, length, t0):
    return [("<c16", (length,))]


def write_signal_chunks(
    path: str, chunks, length: int, sample_rate: float, seed: int, t0: float = 0.0
) -> None:
    """Store a complex baseband record of ``length`` samples given as an
    iterable of consecutive chunks (32-byte header + complex128 I/Q).

    The header goes down first, then each chunk as it is made, into a temp
    file that replaces ``path`` only once every sample is written, as in
    :func:`atomic_write`.  An exception while the chunks are made, or a
    sample count other than ``length`` (``ValueError``), leaves neither
    ``path`` nor the temp file behind.
    """
    header = _HEADERS[b"DDS1"].pack(
        b"DDS1", seed & 0xFFFFFFFF, float(sample_rate), length, float(t0)
    )
    with _atomic_file(path) as fh:
        fh.write(header)
        written = 0
        for chunk in chunks:
            chunk = np.ascontiguousarray(chunk, dtype="<c16")
            fh.write(chunk)
            written += chunk.size
        if written != length:
            raise ValueError(f"{path}: {written} samples written, header promises {length}")


def write_signal(path: str, signal: SampledSignal, seed: int) -> None:
    """Store a whole record: :func:`write_signal_chunks` with one chunk."""
    samples = signal.samples
    write_signal_chunks(path, [samples], samples.size, signal.sample_rate, seed, signal.t0)


class SignalReader:
    """A DDS1 record opened for reading in chunks.

    Opening checks the magic and that the payload holds exactly the
    ``length`` samples the header promises, before any sample buffer is
    allocated; ``seed``, ``sample_rate``, ``length`` and ``t0`` are the
    header's.  Use it as a context manager, or call :meth:`close`.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "rb")
        try:
            fields, _ = _read_header(self._fh, path, b"DDS1", _signal_layout)
        except BaseException:
            self._fh.close()
            raise
        seed, self.sample_rate, self.length, self.t0 = fields
        self.seed = int(seed)

    def chunks(self, size: int):
        """Yield the samples in order, ``size`` at a time (the last chunk may
        be shorter).

        Every chunk is read with ``readinto`` into one buffer, allocated
        before the first, so a chunk is valid only until the next is read.
        ``FileFormatError`` if the file shrank since it was opened.
        """
        self._fh.seek(_HEADERS[b"DDS1"].size)
        buf = np.empty(min(size, self.length), dtype="<c16")
        for start in range(0, self.length, size):
            chunk = buf[: min(size, self.length - start)]
            if self._fh.readinto(chunk) != chunk.nbytes:
                raise FileFormatError(f"{self.path}: file shrank while being read")
            yield chunk

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_signal(path: str) -> tuple[SampledSignal, int]:
    """A whole record: :class:`SignalReader` with one chunk of every sample."""
    with SignalReader(path) as reader:
        samples = next(reader.chunks(max(reader.length, 1)), np.empty(0, "<c16"))
    signal = SampledSignal(samples=samples, sample_rate=reader.sample_rate, t0=reader.t0)
    return signal, reader.seed


def write_grid(path: str, grid: TransferFunctionGrid, seed: int) -> None:
    """Store a snapshot-by-tone transfer-function grid.

    Snapshot times are assumed uniformly spaced (they are for demultiplexed
    records) and stored as start + spacing only.
    """
    times = grid.snapshot_times
    spacing = float(times[1] - times[0]) if times.size > 1 else 0.0
    values = np.asarray(grid.values, dtype="<c16")
    fields = (*values.shape, grid.tx_index, 0, float(times[0]), spacing)
    freqs = np.asarray(grid.tone_frequencies, dtype="<f8")
    _write_binary(path, b"DDG1", seed, fields, [freqs, values])


def read_grid(path: str) -> tuple[TransferFunctionGrid, int]:
    (seed, n_snap, _, tx_index, _, t0, spacing), (freqs, values) = _read_binary(
        path,
        b"DDG1",
        lambda seed, n_snap, n_tone, *_: [("<f8", (n_tone,)), ("<c16", (n_snap, n_tone))],
    )
    grid = TransferFunctionGrid(
        tx_index=int(tx_index),
        values=values,
        snapshot_times=t0 + spacing * np.arange(n_snap),
        tone_frequencies=freqs,
    )
    return grid, int(seed)


def write_surface(path: str, grid: DelayDopplerGrid, seed: int) -> None:
    """Store a real surface with its delay and Doppler axes."""
    if np.iscomplexobj(grid.values):
        raise ValueError("surfaces are real-valued; store grids as DDG1 instead")
    values = np.asarray(grid.values, dtype="<f8")
    arrays = [
        np.asarray(grid.delay_axis, dtype="<f8"),
        np.asarray(grid.doppler_axis, dtype="<f8"),
        values,
    ]
    fields = (*values.shape, float(grid.window_start_time))
    _write_binary(path, b"DDG2", seed, fields, arrays)


def read_surface(path: str) -> tuple[DelayDopplerGrid, int]:
    (seed, _, _, start), (delay, doppler, values) = _read_binary(
        path,
        b"DDG2",
        lambda seed, rows, cols, start: [
            ("<f8", (rows,)),
            ("<f8", (cols,)),
            ("<f8", (rows, cols)),
        ],
    )
    grid = DelayDopplerGrid(
        values=values, delay_axis=delay, doppler_axis=doppler, window_start_time=start
    )
    return grid, int(seed)


# -- CSV columns --------------------------------------------------------------


def _format_float(x: float) -> str:
    """``%.12g`` where that text reads back as ``x``, else the shortest exact text."""
    text = f"{x:.12g}"
    return text if float(text) == x else repr(float(x))


def _write_rows(path, header, row_format, batches) -> None:
    """Write a CSV: the ``header`` line, then ``row_format % row`` per row.

    Each of ``batches`` is a sequence of 1-D, equally long columns; row ``i``
    of a batch takes entry ``i`` of each.  Batches are formatted and written
    one at a time, through the same temp file + rename as :func:`atomic_write`.
    """
    with _atomic_file(path) as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for columns in batches:
            columns = [np.asarray(col) for col in columns]
            if any(col.ndim != 1 for col in columns) or len({col.size for col in columns}) > 1:
                raise ValueError("columns must be 1-D and equally long")
            rows = zip(*(col.tolist() for col in columns))
            fh.write("".join([row_format % row + "\n" for row in rows]).encode("ascii"))


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
    _write_rows(path, ("time_s", "snr_db"), "%.12g,%.12g", [(times, snr_db)])


def read_snr_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    return _read_two_column_csv(path, ("time_s", "snr_db"))


def write_dsd_csv(path: str, doppler_hz: np.ndarray, power: np.ndarray) -> None:
    _write_rows(path, ("doppler_hz", "power"), "%.12g,%.12g", [(doppler_hz, power)])


def read_dsd_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    return _read_two_column_csv(path, ("doppler_hz", "power"))


def write_paths_csv(path: str, tracks: Iterable[RayTracks]) -> None:
    """Ground-truth ray table: one row per visible ray of ``tracks``.

    ``tracks`` are consecutive :class:`~ddsounder.channel.RayTracks`, such
    as those of :func:`~ddsounder.channel.block_tracks`; the rows of each
    are formatted and written before the next is taken.  Rows are
    time-major, with the rays of each instant in LOS-then-reflector order.
    Gains are real, so ``gain_imag`` is always ``0``.
    """

    def columns(part):
        instant, ray = np.nonzero(part.visible)
        return (
            part.times[instant],
            np.asarray(part.kinds)[ray],
            part.delay[instant, ray],
            part.doppler[instant, ray],
            part.gain[instant, ray],
        )

    _write_rows(
        path,
        ("time_s", "kind", "delay_s", "doppler_hz", "gain_real", "gain_imag"),
        "%.12g,%s,%.12g,%.12g,%.12g,0",
        map(columns, tracks),
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

# the [sounder] keys are the design's fields; each default carries its type
_SOUNDER_KEYS = {f.name: type(f.default) for f in dataclasses.fields(SounderConfig)}

# the [scenario] keys are the street builder's arguments; each default carries
# its type, a tuple standing for a list of floats
_SCENARIO_KEYS = {
    name: type(arg.default)
    for name, arg in inspect.signature(default_scenario).parameters.items()
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
            elif kind is tuple:
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
    return SounderConfig(**values)


def save_sounder_config(path: str, cfg: SounderConfig) -> None:
    _write_ini(path, "sounder", {key: getattr(cfg, key) for key in _SOUNDER_KEYS})


def _street(path: str, values: dict) -> ScenarioConfig:
    """:func:`~ddsounder.channel.default_scenario`, whose arguments are the
    [scenario] keys, with ``path`` named in its errors."""
    try:
        return default_scenario(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_scenario(path: str) -> ScenarioConfig:
    """Read the [scenario] section and build its street."""
    return _street(path, _section_values(_read_ini(path), path, "scenario", _SCENARIO_KEYS))


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if np.ndim(value):
        return ", ".join(_format_float(x) for x in value)
    return _format_float(value)


def _write_ini(path: str, section: str, values: dict) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser[section] = {key: _ini_value(value) for key, value in values.items()}
    buf = _stdio.StringIO()
    parser.write(buf)
    atomic_write(path, buf.getvalue().encode("ascii"))


def save_scenario(path: str, scenario: ScenarioConfig) -> None:
    """Write the [scenario] keys that rebuild ``scenario`` exactly.

    The street is rebuilt from the keys before anything is written; a
    scenario they cannot reproduce field for field raises ``ConfigError``
    naming the first field that differs.
    """
    if not scenario.tx_beams:
        raise ConfigError(f"{path}: tx_beams is empty; a scenario INI holds at least one beam")
    lead = scenario.tx_beams[0]
    kinds = [r.kind for r in scenario.reflectors]
    walls = [r.loss_db for r in scenario.reflectors if r.kind == "wall"]
    derived = {
        # with no walls, no loss rebuilds the street: the comparison refuses it
        "wall_loss_db": walls[0] if walls else 0.0,
        "truck": "truck" in kinds,
        "ground": "ground" in kinds,
        "beam_elevation_deg": [b.boresight_elevation_deg for b in scenario.tx_beams],
        "beam_gain_dbi": lead.gain_dbi,
        "beam_width_deg": lead.beamwidth_3db_deg,
        "beam_floor_dbi": lead.floor_dbi,
    }
    values = {k: derived[k] if k in derived else getattr(scenario, k) for k in _SCENARIO_KEYS}
    rebuilt = _street(path, values)
    for f in dataclasses.fields(scenario):
        mine, theirs = getattr(scenario, f.name), getattr(rebuilt, f.name)
        same = np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        if not same:
            raise ConfigError(
                f"{path}: the [scenario] keys cannot hold this scenario's {f.name}; "
                "it would load back differently"
            )
    _write_ini(path, "scenario", values)
