"""File format tests: binary round trips, CSV/JSON/INI parsing, error paths.

Every reader must reject corrupted input with a message naming the file (and
line, for text formats) rather than propagating a numpy or parser error.
"""

import dataclasses
import inspect
import os
import struct

import numpy as np
import pytest

from ddsounder import io as ddio
from ddsounder.channel import RayTracks, default_scenario
from ddsounder.io import (
    _SCENARIO_KEYS,
    FileFormatError,
    GridReader,
    SignalReader,
    atomic_write,
    load_scenario,
    load_sounder_config,
    read_dsd_csv,
    read_grid,
    read_peaks_json,
    read_signal,
    read_snr_csv,
    read_surface,
    save_scenario,
    save_sounder_config,
    write_dsd_csv,
    write_grid,
    write_paths_csv,
    write_peaks_json,
    write_signal,
    write_snr_csv,
    write_surface,
)
from ddsounder.manifest import file_digest
from ddsounder.params import ConfigError, SounderConfig, narrowband_config
from ddsounder.rxproc import TransferFunctionGrid
from ddsounder.tfanalysis import DelayDopplerGrid, Peak, PeakList
from ddsounder.waveform import SampledSignal


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        target = tmp_path / "x.bin"
        atomic_write(str(target), b"hello")
        assert target.read_bytes() == b"hello"

    def test_no_temp_residue(self, tmp_path):
        atomic_write(str(tmp_path / "y.bin"), b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["y.bin"]

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "z.bin"
        target.write_bytes(b"old")
        atomic_write(str(target), b"new")
        assert target.read_bytes() == b"new"


class TestSignalFormat:
    def _signal(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        return SampledSignal(data, 1.25e6, t0=0.5)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        sig = self._signal()
        write_signal(path, sig, seed=77)
        back, seed = read_signal(path)
        assert seed == 77
        assert back.sample_rate == sig.sample_rate
        assert back.t0 == sig.t0
        np.testing.assert_array_equal(back.samples, sig.samples)

    def test_magic_checked(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        write_signal(path, self._signal(), seed=0)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FileFormatError, match="bad magic"):
            read_signal(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        write_signal(path, self._signal(), seed=0)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(FileFormatError, match="header promises"):
            read_signal(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        write_signal(path, self._signal(), seed=0)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 4)
        with pytest.raises(FileFormatError):
            read_signal(path)

    def test_short_file(self, tmp_path):
        path = str(tmp_path / "tiny.dds1")
        open(path, "wb").write(b"DD")
        with pytest.raises(FileFormatError, match="truncated"):
            read_signal(path)

    @pytest.mark.parametrize(
        "read,header",
        [
            (read_signal, struct.pack("<4sIdQd", b"DDS1", 0, 1.25e6, 1 << 40, 0.0)),
            (
                read_grid,
                struct.pack("<4sIIIIIdd", b"DDG1", 0, 1 << 31, 1 << 31, 0, 0, 0.0, 1.0),
            ),
            (read_surface, struct.pack("<4sIIId", b"DDG2", 0, 1 << 31, 1 << 31, 0.0)),
        ],
        ids=["DDS1", "DDG1", "DDG2"],
    )
    def test_huge_length_rejected_before_allocation(
        self, tmp_path, monkeypatch, read, header
    ):
        """A header promising terabytes on a 64-byte file allocates nothing."""
        path = str(tmp_path / "huge.bin")
        open(path, "wb").write(header + b"\x00" * (64 - len(header)))

        def no_allocation(*args, **kwargs):
            raise AssertionError("reader allocated before checking the size")

        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(FileFormatError, match="header promises"):
            read(path)


class TestSignalStream:
    """The DDS1 in-place writer and chunk reader."""

    def _samples(self, count=1000):
        rng = np.random.default_rng(2)
        return rng.standard_normal(count) + 1j * rng.standard_normal(count)

    def test_in_place_chunks_round_trip_through_reader(self, tmp_path):
        """Chunks of 300 written in place, chunks of 256 read back through
        ``SignalReader``: the header's fields and every sample."""
        path = str(tmp_path / "a.dds1")
        data = self._samples()
        with ddio._signal_in_place(path, data.size, 1.25e6, seed=9, t0=0.25) as samples:
            for first in range(0, data.size, 300):
                samples.write(first, data[first : first + 300])
                samples.read_back(first, data[first : first + 300].size)
        with SignalReader(path) as reader:
            assert (reader.seed, reader.sample_rate, reader.length, reader.t0) == (
                9, 1.25e6, 1000, 0.25,
            )
            chunks = [chunk.copy() for chunk in reader.chunks(256)]
        assert [c.size for c in chunks] == [256, 256, 256, 232]
        np.testing.assert_array_equal(np.concatenate(chunks), data)

    @pytest.mark.parametrize(
        "size,sizes",
        [(1, [1] * 1000), (256, [256, 256, 256, 232]), (1000, [1000]), (4096, [1000])],
    )
    def test_in_memory_chunks_are_the_readers(self, tmp_path, size, sizes):
        """``SampledSignal.chunks`` gives the sizes and samples that
        ``SignalReader.chunks`` reads from the signal's ``write_signal``
        file, and ``length`` the reader's."""
        path = str(tmp_path / "a.dds1")
        signal = SampledSignal(self._samples(), 1.25e6, t0=0.25)
        write_signal(path, signal, seed=0)
        with SignalReader(path) as reader:
            assert reader.length == signal.length
            read = [chunk.copy() for chunk in reader.chunks(size)]
        in_memory = list(signal.chunks(size))
        assert [c.size for c in read] == [c.size for c in in_memory] == sizes
        for chunk, view in zip(read, in_memory):
            np.testing.assert_array_equal(chunk, view)

    def test_reader_reuses_one_buffer(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        write_signal(path, SampledSignal(self._samples(), 1.25e6), seed=0)
        with SignalReader(path) as reader:
            bases = {id(np.asarray(c).base) for c in reader.chunks(100)}
        assert len(bases) == 1

    def test_payload_one_sample_short(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        write_signal(path, SampledSignal(self._samples(), 1.25e6), seed=0)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(FileFormatError, match="header promises"):
            SignalReader(path)

    def test_huge_length_rejected_before_allocation(self, tmp_path, monkeypatch):
        path = str(tmp_path / "huge.dds1")
        header = struct.pack("<4sIdQd", b"DDS1", 0, 1.25e6, 1 << 40, 0.0)
        open(path, "wb").write(header + b"\x00" * 32)

        def no_allocation(*args, **kwargs):
            raise AssertionError("reader allocated before checking the size")

        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(FileFormatError, match="header promises"):
            SignalReader(path)

    def test_file_shrinking_before_last_chunk(self, tmp_path):
        """The size check passed on opening; the file then loses its tail."""
        path = str(tmp_path / "a.dds1")
        write_signal(path, SampledSignal(self._samples(), 1.25e6), seed=0)
        with SignalReader(path) as reader:
            chunks = reader.chunks(400)
            next(chunks)
            os.truncate(path, 32 + 16 * 900)
            with pytest.raises(FileFormatError, match="shrank"):
                list(chunks)

    def test_in_place_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.dds1"
        write_signal(str(path), SampledSignal(self._samples(10), 1.25e6), seed=0)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="synthesis failed"):
            with ddio._signal_in_place(str(path), 200, 1.25e6, seed=0) as samples:
                samples.write(0, self._samples(100))
                raise RuntimeError("synthesis failed")
        assert [p.name for p in tmp_path.iterdir()] == ["a.dds1"]
        assert path.read_bytes() == before

    def test_in_place_parts_in_any_order(self, tmp_path):
        """Parts written last to first, read back in order: the bytes of one
        write_signal, and the digest of the file on disk."""
        path, whole = str(tmp_path / "a.dds1"), str(tmp_path / "b.dds1")
        data = self._samples()
        starts = range(0, data.size, 300)
        with ddio._signal_in_place(path, data.size, 1.25e6, seed=9, t0=0.25) as samples:
            for first in reversed(starts):
                samples.write(first, data[first : first + 300])
            for first in starts:
                samples.read_back(first, data[first : first + 300].size)
        write_signal(whole, SampledSignal(data, 1.25e6, t0=0.25), seed=9)
        assert open(path, "rb").read() == open(whole, "rb").read()
        assert samples.digest == file_digest(path)

    @pytest.mark.parametrize("failure", ["raises", "short", "out of order"])
    def test_in_place_failure_leaves_nothing(self, tmp_path, failure):
        data = self._samples(200)
        with pytest.raises((RuntimeError, ValueError)) as caught:
            with ddio._signal_in_place(str(tmp_path / "a.dds1"), 200, 1.25e6, seed=0) as samples:
                samples.write(0, data)
                if failure == "raises":
                    raise RuntimeError("synthesis failed")
                samples.read_back(100 if failure == "out of order" else 0, 100)
        assert {
            "raises": "synthesis failed",
            "short": "100 samples written, header promises 200",
            "out of order": "sample 100 read back after 0",
        }[failure] in str(caught.value)
        assert list(tmp_path.iterdir()) == []


class TestGridFormat:
    def _grid(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((6, 21)) + 1j * rng.standard_normal((6, 21))
        return TransferFunctionGrid(
            tx_index=1,
            values=values,
            snapshot_times=0.25 + np.arange(6) * 168e-6,
            tone_frequencies=np.linspace(-476190.0, 476190.0, 21),
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "h.ddg1")
        grid = self._grid()
        write_grid(path, grid, seed=5)
        back, seed = read_grid(path)
        assert seed == 5
        assert back.tx_index == 1
        np.testing.assert_array_equal(back.values, grid.values)
        np.testing.assert_allclose(back.snapshot_times, grid.snapshot_times)
        np.testing.assert_array_equal(back.tone_frequencies, grid.tone_frequencies)

    def test_size_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "h.ddg1")
        write_grid(path, self._grid(), seed=5)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-1])
        with pytest.raises(FileFormatError, match="size"):
            read_grid(path)

    def test_rows_streamed_in_blocks_are_the_bytes_of_write_grid(self, tmp_path):
        grid = self._grid()
        whole, blocks = str(tmp_path / "whole.ddg1"), str(tmp_path / "blocks.ddg1")
        write_grid(whole, grid, seed=5)
        times, freqs = grid.snapshot_times, grid.tone_frequencies
        with ddio._grid_rows(blocks, grid.tx_index, times, freqs, 5) as write:
            for first in range(0, 6, 4):
                write(grid.values[first : first + 4])
        assert open(blocks, "rb").read() == open(whole, "rb").read()

    def test_streamed_rows_short_of_the_times_leave_no_file(self, tmp_path):
        grid = self._grid()
        path = str(tmp_path / "h.ddg1")
        times, freqs = grid.snapshot_times, grid.tone_frequencies
        with pytest.raises(ValueError, match="5 snapshots written, header promises 6"):
            with ddio._grid_rows(path, grid.tx_index, times, freqs, 5) as write:
                write(grid.values[:5])
        with pytest.raises(ValueError, match="rows of 21 tones"):
            with ddio._grid_rows(path, grid.tx_index, times, freqs, 5) as write:
                write(grid.values[:, :20])
        assert list(tmp_path.iterdir()) == []

    def test_times_it_cannot_store_rejected_before_writing(self, tmp_path):
        """DDG1 keeps the start and the spacing only: [0, 1, 3] would read
        back as [0, 1, 2]."""
        path = tmp_path / "h.ddg1"
        grid = dataclasses.replace(self._grid(), values=np.ones((3, 21)), snapshot_times=[0, 1, 3])
        with pytest.raises(ValueError, match="h.ddg1"):
            write_grid(str(path), grid, seed=5)
        assert list(tmp_path.iterdir()) == []

    def test_long_axis_of_rounded_spacings_round_trips(self, tmp_path):
        """The benchmark's windows grids: 5,760 snapshots from 2.2 s."""
        cfg = narrowband_config()
        times = 2.2 + np.arange(5760) * cfg.snapshot_time
        grid = dataclasses.replace(
            self._grid(), values=np.ones((times.size, 21)), snapshot_times=times
        )
        path = str(tmp_path / "h.ddg1")
        write_grid(path, grid, seed=5)
        back = read_grid(path)[0].snapshot_times
        np.testing.assert_allclose(back, times, rtol=0, atol=1e-6 * cfg.snapshot_time)


class TestGridReader:
    """The DDG1 block reader, whose whole-file case is ``read_grid``."""

    def _path(self, tmp_path):
        path = str(tmp_path / "h.ddg1")
        write_grid(path, TestGridFormat()._grid(), seed=5)
        return path

    @pytest.mark.parametrize("first,count", [(0, 6), (0, 1), (2, 3), (5, 1), (6, 0)])
    def test_blocks_are_the_whole_grids_rows_and_times(self, tmp_path, first, count):
        path = self._path(tmp_path)
        times = TestGridFormat()._grid().snapshot_times
        whole, _ = read_grid(path)
        with GridReader(path) as reader:
            assert (reader.seed, reader.tx_index, reader.snapshot_count) == (5, 1, 6)
            assert (reader.t0, reader.spacing) == (times[0], times[1] - times[0])
            part = reader.read(first, count)
        assert part.tx_index == 1
        assert part.values.tobytes() == whole.values[first : first + count].tobytes()
        assert (
            part.snapshot_times.tobytes()
            == whole.snapshot_times[first : first + count].tobytes()
        )
        assert part.tone_frequencies.tobytes() == whole.tone_frequencies.tobytes()

    def test_magic_checked(self, tmp_path):
        path = self._path(tmp_path)
        with open(path, "r+b") as fh:
            fh.write(b"XXXX")
        with pytest.raises(FileFormatError, match="bad magic"):
            GridReader(path)

    def test_truncated_header(self, tmp_path):
        path = self._path(tmp_path)
        os.truncate(path, 20)
        with pytest.raises(FileFormatError, match="truncated header"):
            GridReader(path)

    @pytest.mark.parametrize("change", ["one row short", "huge count"])
    def test_payload_mismatch_rejected_before_allocation(self, tmp_path, monkeypatch, change):
        path = self._path(tmp_path)
        if change == "one row short":
            os.truncate(path, os.path.getsize(path) - 16 * 21)
        else:
            with open(path, "r+b") as fh:
                fh.seek(8)  # magic, seed, then the snapshot count
                fh.write(struct.pack("<I", 1 << 31))

        def no_allocation(*args, **kwargs):
            raise AssertionError("reader allocated before checking the size")

        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(FileFormatError, match="header promises"):
            GridReader(path)

    @pytest.mark.parametrize("first,count", [(5, 2), (6, 1), (7, 0), (-1, 1), (3, -1)])
    def test_rows_past_the_end_rejected(self, tmp_path, first, count):
        with GridReader(self._path(tmp_path)) as reader:
            with pytest.raises(ValueError, match="outside its 6"):
                reader.read(first, count)

    def test_file_shrinking_after_opening(self, tmp_path):
        """The size check passed on opening; the file then loses its last row."""
        path = self._path(tmp_path)
        with GridReader(path) as reader:
            os.truncate(path, os.path.getsize(path) - 16 * 21)
            reader.read(0, 5)
            with pytest.raises(FileFormatError, match="h.ddg1: file shrank"):
                reader.read(4, 2)


class TestSurfaceFormat:
    def _surface(self):
        rng = np.random.default_rng(3)
        return DelayDopplerGrid(
            values=rng.standard_normal((84, 360)) ** 2,
            delay_axis=np.arange(84) * 2.5e-9,
            doppler_axis=(np.arange(360) - 180) * 16.5,
            window_start_time=1.5,
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.ddg2")
        grid = self._surface()
        write_surface(path, grid, seed=9)
        back, seed = read_surface(path)
        assert seed == 9
        assert back.window_start_time == 1.5
        np.testing.assert_array_equal(back.values, grid.values)
        np.testing.assert_array_equal(back.delay_axis, grid.delay_axis)
        np.testing.assert_array_equal(back.doppler_axis, grid.doppler_axis)

    def test_complex_values_rejected(self, tmp_path):
        grid = dataclasses.replace(
            self._surface(), values=np.ones((84, 360), complex)
        )
        with pytest.raises(ValueError, match="real"):
            write_surface(str(tmp_path / "s.ddg2"), grid, seed=0)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "s.ddg2")
        write_surface(path, self._surface(), seed=0)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"DDG9"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FileFormatError, match="bad magic"):
            read_surface(path)


class TestCsv:
    def test_snr_round_trip(self, tmp_path):
        path = str(tmp_path / "snr.csv")
        t = np.arange(5) * 0.168
        snr = np.array([28.0, 27.5, -3.25, 14.125, 31.0])
        write_snr_csv(path, t, snr)
        rt, rsnr = read_snr_csv(path)
        np.testing.assert_array_equal(rt, t)
        np.testing.assert_array_equal(rsnr, snr)
        assert open(path).readline().strip() == "time_s,snr_db"

    def test_dsd_round_trip(self, tmp_path):
        path = str(tmp_path / "dsd.csv")
        dopp = (np.arange(7) - 3) * 16.53
        power = np.abs(np.sin(dopp + 1))
        write_dsd_csv(path, dopp, power)
        rd, rp = read_dsd_csv(path)
        np.testing.assert_allclose(rd, dopp)
        np.testing.assert_allclose(rp, power)

    def test_round_trip_keeps_nan_and_infinities(self, tmp_path):
        values = np.array([np.nan, -np.inf, np.inf, -0.0, 5e-324])
        axis = (np.arange(5) - 2) * 16.53
        for write, read in ((write_snr_csv, read_snr_csv), (write_dsd_csv, read_dsd_csv)):
            path = str(tmp_path / f"{write.__name__}.csv")
            write(path, axis, values)
            ra, rv = read(path)
            np.testing.assert_array_equal(ra, axis)
            np.testing.assert_array_equal(rv, values)
            assert np.signbit(rv[3])
            assert open(path).read().splitlines()[1:3] == ["-33.06,nan", "-16.53,-inf"]

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equally long"):
            write_snr_csv(str(tmp_path / "snr.csv"), np.arange(3.0), np.arange(2.0))
        with pytest.raises(ValueError, match="1-D"):
            write_dsd_csv(str(tmp_path / "dsd.csv"), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = str(tmp_path / "snr.csv")
        with open(path, "w") as fh:
            fh.write("time_s,snr_db\n0.0,1.0\nnot,a,number\n")
        with pytest.raises(FileFormatError, match=r"snr\.csv:3"):
            read_snr_csv(path)

    def test_non_numeric_field_reports_lineno(self, tmp_path):
        path = str(tmp_path / "snr.csv")
        with open(path, "w") as fh:
            fh.write("time_s,snr_db\n0.0,abc\n")
        with pytest.raises(FileFormatError, match=r"snr\.csv:2"):
            read_snr_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = str(tmp_path / "snr.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n0.0,1.0\n")
        with pytest.raises(FileFormatError, match="header"):
            read_snr_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "snr.csv")
        open(path, "w").close()
        with pytest.raises(FileFormatError, match="empty"):
            read_snr_csv(path)

    @pytest.mark.parametrize("read", [read_snr_csv, read_dsd_csv])
    def test_bytes_not_utf8_named(self, tmp_path, read):
        path = tmp_path / "x.csv"
        path.write_bytes(b"time_s,snr_db\n0.0,1.0\n\xff,2.0\n")
        with pytest.raises(FileFormatError, match=r"x\.csv: not UTF-8"):
            read(str(path))


class TestPathsCsv:
    def test_byte_fixture(self, tmp_path):
        """Visible rays only, time-major, LOS first; %.12g floats; real gains."""
        tracks = RayTracks(
            times=np.array([0.0, 0.000168]),
            kinds=("los", "wall", "ground"),
            delay=np.array([[1.4e-7, 1.6e-7, 1.5e-7], [1.39e-7, 1.61e-7, 1.49e-7]]),
            doppler=np.array([[2801.4, 2500.0, 1 / 3], [-3.25, 0.0, -0.0]]),
            gain=np.array([[1e-5, 2e-6, 3e-6], [1.25e-5, 2.5e-6, 3.5e-6]]),
            visible=np.array([[True, True, True], [True, False, True]]),
        )
        path = str(tmp_path / "truth.csv")
        write_paths_csv(path, [tracks])
        assert open(path, "rb").read() == (
            b"time_s,kind,delay_s,doppler_hz,gain_real,gain_imag\n"
            b"0,los,1.4e-07,2801.4,1e-05,0\n"
            b"0,wall,1.6e-07,2500,2e-06,0\n"
            b"0,ground,1.5e-07,0.333333333333,3e-06,0\n"
            b"0.000168,los,1.39e-07,-3.25,1.25e-05,0\n"
            b"0.000168,ground,1.49e-07,-0,3.5e-06,0\n"
        )
        # consecutive parts are written one at a time, to the same bytes
        parts = (
            RayTracks(tracks.times[i : i + 1], tracks.kinds,
                      *(a[i : i + 1] for a in tracks[2:]))
            for i in range(2)
        )
        split = str(tmp_path / "split.csv")
        write_paths_csv(split, parts)
        assert open(split, "rb").read() == open(path, "rb").read()


class TestPeaksJson:
    def _peaks(self):
        return PeakList(
            entries=[
                Peak(delay=105e-9, doppler=2794.0, power=3.5),
                Peak(delay=110e-9, doppler=-1620.0, power=1.25),
            ]
        )

    def test_round_trip_with_metadata(self, tmp_path):
        path = str(tmp_path / "p.json")
        write_peaks_json(path, self._peaks(), window_start_time=2.0,
                         extra={"seed": 42, "source": "unit"})
        peaks, meta = read_peaks_json(path)
        assert peaks.count == 2
        assert peaks.entries[0].delay == 105e-9
        assert peaks.entries[1].doppler == -1620.0
        assert meta["seed"] == 42
        assert meta["window_start_time"] == 2.0

    def test_metadata_collision_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="collides"):
            write_peaks_json(
                str(tmp_path / "p.json"), self._peaks(), extra={"peaks": []}
            )

    def test_invalid_json_rejected(self, tmp_path):
        path = str(tmp_path / "p.json")
        open(path, "w").write("{not json")
        with pytest.raises(FileFormatError):
            read_peaks_json(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = str(tmp_path / "p.json")
        open(path, "w").write('{"peaks": [{"delay_s": 1.0}]}\n')
        with pytest.raises(FileFormatError, match="malformed"):
            read_peaks_json(path)

    @pytest.mark.parametrize(
        "blob",
        [
            b'\xff{"peaks": []}',
            b'{"peaks": [{"delay_s": "abc", "doppler_hz": 0.0, "power": 1.0}]}',
            b'{"peaks": [{"delay_s": 1' + b"0" * 400 + b', "doppler_hz": 0.0, "power": 1.0}]}',
            b'{"peaks": [{"delay_s": 1' + b"0" * 5000 + b', "doppler_hz": 0.0, "power": 1.0}]}',
        ],
        ids=["not-utf8", "text-delay", "delay-beyond-float", "delay-beyond-int-digits"],
    )
    def test_unreadable_file_named(self, tmp_path, blob):
        path = tmp_path / "p.json"
        path.write_bytes(blob)
        with pytest.raises(FileFormatError, match=r"p\.json: "):
            read_peaks_json(str(path))

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_peaks_json(a, self._peaks(), extra={"z": 1, "a": 2})
        write_peaks_json(b, self._peaks(), extra={"a": 2, "z": 1})
        assert open(a, "rb").read() == open(b, "rb").read()


class TestSounderConfigIni:
    def test_round_trip(self, tmp_path, narrowband):
        path = str(tmp_path / "config.ini")
        # neither float survives %.12g; both must reload exactly
        odd = dataclasses.replace(
            narrowband, max_speed=13.888888888888889, center_frequency=60.123456789012345e9
        )
        # every [sounder] key is saved: no field falls back to its default
        changed = SounderConfig(
            center_frequency=28e9, bandwidth=2e6, tone_count=17, tx_count=3,
            grid_ratio=5, averaging_count=3, max_speed=8.5, max_doppler=900.0,
            sample_rate=2.5e6,
        )
        for f in dataclasses.fields(SounderConfig):
            assert getattr(changed, f.name) != f.default, f.name
        for cfg in (narrowband, odd, changed):
            save_sounder_config(path, cfg)
            assert load_sounder_config(path) == cfg

    def test_unknown_key_named(self, tmp_path):
        path = str(tmp_path / "config.ini")
        with open(path, "w") as fh:
            fh.write("[sounder]\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_sounder_config(path)

    def test_missing_key_named(self, tmp_path, narrowband):
        path = str(tmp_path / "config.ini")
        save_sounder_config(path, narrowband)
        lines = [l for l in open(path) if not l.startswith("bandwidth")]
        open(path, "w").writelines(lines)
        with pytest.raises(ConfigError, match="bandwidth"):
            load_sounder_config(path)

    def test_unparsable_value_named(self, tmp_path, narrowband):
        path = str(tmp_path / "config.ini")
        save_sounder_config(path, narrowband)
        text = open(path).read().replace("tone_count = 21", "tone_count = lots")
        open(path, "w").write(text)
        with pytest.raises(ConfigError, match="tone_count"):
            load_sounder_config(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = str(tmp_path / "config.ini")
        with open(path, "w") as fh:
            fh.write("[sounder]\nkey_without_value\n")
        with pytest.raises(ConfigError, match="line"):
            load_sounder_config(path)

    @pytest.mark.parametrize("load", [load_sounder_config, load_scenario])
    def test_bytes_not_utf8_named(self, tmp_path, load):
        path = tmp_path / "x.ini"
        path.write_bytes(b"\xff[sounder]\n")
        with pytest.raises(ConfigError, match=r"x\.ini: not UTF-8"):
            load(str(path))

    def test_missing_section(self, tmp_path):
        path = str(tmp_path / "config.ini")
        open(path, "w").write("[other]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[sounder\]"):
            load_sounder_config(path)


def _assert_same_scenario(actual, expected):
    for f in dataclasses.fields(expected):
        a, b = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


class TestScenarioIni:
    def test_round_trip(self, tmp_path):
        """Every field reloads exactly, over the builder's settings."""
        path = str(tmp_path / "scenario.ini")
        for settings in (
            {},
            {"truck": False, "ground": False},
            {"truck": False, "canyon_width": 6.0},
            {"tx_velocity": (10.0, 6.0, 0.0), "canyon_width": 50.0},  # starts at y = -21 m
            {"tx_velocity": (-14.0, 0.0, 0.0)},  # the street driven the other way
            {"beam_elevation_deg": (0.0, 7.5, 15.0)},
            # neither float survives %.12g
            {
                "tx_velocity": (13.888888888888889, 0.0, 0.0),
                "trigger_distance": 60.123456789012345,
            },
        ):
            scn = default_scenario(**settings)
            save_scenario(path, scn)
            _assert_same_scenario(load_scenario(path), scn)

    def test_keys_are_the_builder_arguments(self):
        assert set(_SCENARIO_KEYS) == set(inspect.signature(default_scenario).parameters)

    def test_flags_control_reflectors(self, tmp_path):
        path = str(tmp_path / "scenario.ini")
        save_scenario(path, default_scenario(truck=False, ground=False))
        back = load_scenario(path)
        assert [r.kind for r in back.reflectors] == ["wall", "wall"]

    def test_truck_outside_narrow_canyon_rejected(self, tmp_path):
        path = str(tmp_path / "scenario.ini")
        save_scenario(path, default_scenario())
        text = open(path).read()
        assert "canyon_width = 20\n" in text
        open(path, "w").write(text.replace("canyon_width = 20\n", "canyon_width = 6\n"))
        with pytest.raises(ConfigError, match="canyon_width"):
            load_scenario(path)
        save_scenario(path, default_scenario(truck=False, canyon_width=6.0))
        assert [r.y for r in load_scenario(path).reflectors if r.kind == "wall"] == [3.0, -3.0]

    def test_save_refuses_what_the_ini_cannot_hold(self, tmp_path):
        """Each edit would load back differently; the error names the field."""
        path = tmp_path / "scenario.ini"
        scn = default_scenario()
        quieter = [scn.tx_beams[0], dataclasses.replace(scn.tx_beams[1], gain_dbi=10.0)]
        ground_3db = [
            dataclasses.replace(r, loss_db=3.0) if r.kind == "ground" else r
            for r in scn.reflectors
        ]
        for field, value in (
            ("reflectors", []),
            ("tx_beams", quieter),
            ("tx_start_position", scn.tx_start_position + [1.0, 0.0, 0.0]),
            ("reflectors", ground_3db),
        ):
            with pytest.raises(ConfigError, match=field):
                save_scenario(str(path), dataclasses.replace(scn, **{field: value}))
            assert not path.exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "scenario.ini")
        save_scenario(path, default_scenario())
        with open(path, "a") as fh:
            fh.write("surprise = 1\n")
        with pytest.raises(ConfigError, match="surprise"):
            load_scenario(path)

    def test_zero_velocity_rejected(self, tmp_path):
        path = str(tmp_path / "scenario.ini")
        save_scenario(path, default_scenario())
        text = open(path).read().replace(
            "tx_velocity = 14, 0, 0", "tx_velocity = 0, 0, 0"
        )
        open(path, "w").write(text)
        with pytest.raises(ConfigError, match="velocity"):
            load_scenario(path)

    def test_bad_vector_value_named(self, tmp_path):
        path = str(tmp_path / "scenario.ini")
        save_scenario(path, default_scenario())
        text = open(path).read().replace(
            "rx_position = 0, 0, 5", "rx_position = 0, 0"
        )
        open(path, "w").write(text)
        with pytest.raises(ConfigError, match="rx_position"):
            load_scenario(path)


class TestHeaderLayouts:
    """Byte-level regression of the three binary headers."""

    def test_signal_header(self, tmp_path):
        path = str(tmp_path / "a.dds1")
        write_signal(path, SampledSignal(np.zeros(3, complex), 2.0, t0=1.0), seed=7)
        blob = open(path, "rb").read()
        magic, seed, rate, length, t0 = struct.unpack_from("<4sIdQd", blob)
        assert (magic, seed, rate, length, t0) == (b"DDS1", 7, 2.0, 3, 1.0)
        assert len(blob) == struct.calcsize("<4sIdQd") + 3 * 16

    def test_surface_header(self, tmp_path):
        path = str(tmp_path / "s.ddg2")
        grid = DelayDopplerGrid(np.zeros((2, 3)), np.arange(2.0), np.arange(3.0), 0.5)
        write_surface(path, grid, seed=8)
        magic, seed, rows, cols, start = struct.unpack_from(
            "<4sIIId", open(path, "rb").read()
        )
        assert (magic, seed, rows, cols, start) == (b"DDG2", 8, 2, 3, 0.5)


class TestBinaryWriter:
    """The one header writer, and the arrays streamed after the header."""

    @pytest.mark.parametrize("kind", ["surface", "record", "grid rows"])
    def test_non_contiguous_inputs_write_the_bytes_of_contiguous_copies(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
        if kind == "surface":
            # Fortran-ordered values, strided axes
            arrays = [np.asfortranarray(np.abs(data[::2])), np.arange(12.0)[::2],
                      np.arange(40.0)[::2]]

            def write(path, values, delay, doppler):
                write_surface(path, DelayDopplerGrid(values, delay, doppler, 1.5), seed=3)
        elif kind == "record":
            arrays = [data.ravel()[::3]]

            def write(path, samples):
                write_signal(path, SampledSignal(samples, 1.25e6, t0=0.5), seed=3)
        else:
            arrays = [np.ascontiguousarray(data.T).T]  # blocks of a transposed array

            def write(path, values):
                with ddio._grid_rows(path, 1, np.arange(12) * 1e-3, np.arange(20.0), 3) as rows:
                    for first in range(0, 12, 5):
                        rows(values[first : first + 5])

        assert not any(a.flags.c_contiguous for a in arrays)
        strided, copied = str(tmp_path / "strided"), str(tmp_path / "copied")
        write(strided, *arrays)
        write(copied, *[np.ascontiguousarray(a) for a in arrays])
        assert open(strided, "rb").read() == open(copied, "rb").read()

    @pytest.mark.parametrize("previous", [False, True])
    def test_surface_failing_after_its_header_leaves_nothing(self, tmp_path, previous):
        """Object values fail to convert after the header and both axes are
        written: no temp file is left, and no file or the previous one is."""
        path = tmp_path / "s.ddg2"
        grid = DelayDopplerGrid(np.ones((2, 3)), np.arange(2.0), np.arange(3.0), 0.5)
        if previous:
            write_surface(str(path), grid, seed=8)
        before = sorted(tmp_path.iterdir())
        blob = path.read_bytes() if previous else None
        bad = dataclasses.replace(grid, values=np.full((2, 3), "x", dtype=object))
        with pytest.raises(ValueError, match="could not convert"):
            write_surface(str(path), bad, seed=8)
        assert sorted(tmp_path.iterdir()) == before
        assert (path.read_bytes() if previous else None) == blob
