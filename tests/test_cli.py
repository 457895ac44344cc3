"""Command-line pipeline tests.

A miniature drive-by (0.1 s record) exercises every stage end to end; the
full-length scenario statistics live in the acceptance suite.  Exit codes:
0 success, 1 validation, 2 I/O, 3 numerical.
"""

import ctypes
import dataclasses
import json
import multiprocessing
import os
import shutil
import struct
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddsounder import channel, cli
from ddsounder import io as ddio
from ddsounder import manifest
from ddsounder.channel import _record_length, default_scenario
from ddsounder.cli import main
from ddsounder.manifest import RunManifest
from ddsounder.params import ConfigError, SounderConfig, narrowband_config, validate_config
from ddsounder.waveform import SampledSignal


def _mini_configs(directory):
    """Short-record config pair for fast pipeline tests."""
    cfg = SounderConfig(bandwidth=1e6, sample_rate=1.25e6, averaging_count=2)
    cfg_path = os.path.join(directory, "mini_config.ini")
    scn_path = os.path.join(directory, "mini_scenario.ini")
    ddio.save_sounder_config(cfg_path, cfg)
    ddio.save_scenario(scn_path, default_scenario(duration=0.1))
    return cfg_path, scn_path


# an out-of-range analyze flag and the name its error carries
_BAD_ANALYZE_FLAGS = [
    ("--window-length", "4", "window_length"),
    ("--sbl-iters", "0", "iterations"),
    ("--peaks", "0", "active_set_size"),
    ("--windows", "0", "--windows"),
    ("--windows", "-2", "--windows"),
]


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One completed run-all over the miniature scenario."""
    root = tmp_path_factory.mktemp("mini")
    cfg_path, scn_path = _mini_configs(str(root))
    out = str(root / "run")
    rc = main(
        [
            "run-all",
            "--config", cfg_path,
            "--scenario", scn_path,
            "--seed", "42",
            "--out-dir", out,
            "--window-length", "128",
        ]
    )
    assert rc == 0
    return out


# desk-scale designs (1 MHz, two-fold averaging) that fail one plan check each
_FAILING_DESIGNS = [
    ({"sample_rate": 6.25e5}, "samples_per_period_integer"),  # 52.5 samples
    ({"sample_rate": 5e5}, "tones_within_nyquist"),  # 476 kHz tone
    ({"grid_ratio": 2, "sample_rate": 1.5e6}, "noise_slot_free"),
    ({"tone_count": 4}, "tone_count_fits_tapers"),  # the LSF's NW = 2 tapers
    # 8 tones at a 125 kHz spacing sit on 12.5 kHz + 25 kHz multiples
    ({"tone_count": 8, "grid_ratio": 5, "sample_rate": 2e6}, "tones_on_period_grid"),
    ({"averaging_count": 100}, "doppler_sampling"),  # 8.4 ms snapshots
    ({"tx_count": 3, "grid_ratio": 2, "sample_rate": 1.5e6}, "tx_combs_collision_free"),
]


@pytest.mark.parametrize(
    "module",
    [
        "scipy.signal",  # the DPSS tapers are built in-house
        "scipy.optimize",  # the CFO estimate's Newton steps are in closed form
        "scipy.constants",  # params.SPEED_OF_LIGHT
        "scipy.fft",  # params._smooth_length gives the FFT lengths
        "scipy.special",  # loaded by scipy.fft
    ],
)
def test_cli_does_not_import(module):
    """No CLI call pays for importing these scipy subpackages."""
    import subprocess
    import sys

    import ddsounder

    src = os.path.dirname(os.path.dirname(ddsounder.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = f"import sys, ddsounder.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "False"


class TestPlan:
    def test_default_config_passes(self, capsys):
        assert main(["plan"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_report_written_to_out_dir(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["plan", "--out-dir", out]) == 0
        text = open(os.path.join(out, "validation.txt")).read()
        assert "overall: PASS" in text

    def test_violating_config_fails(self, tmp_path, capsys):
        cfg = SounderConfig(bandwidth=1e6, sample_rate=1.25e6, averaging_count=100)
        path = str(tmp_path / "bad.ini")
        ddio.save_sounder_config(path, cfg)
        assert main(["plan", "--config", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_every_check_has_a_failing_design(self, narrowband):
        checks = [c.name for c in validate_config(narrowband).checks]
        assert sorted(checks) == sorted(check for _, check in _FAILING_DESIGNS)

    @pytest.mark.parametrize("design,check", _FAILING_DESIGNS)
    def test_design_that_breaks_later_stages_fails(self, tmp_path, capsys, design, check):
        cfg = SounderConfig(**{"bandwidth": 1e6, "averaging_count": 2, **design})
        report = validate_config(cfg)
        assert not next(c for c in report.checks if c.name == check).passed
        path = str(tmp_path / "bad.ini")
        ddio.save_sounder_config(path, cfg)
        assert main(["plan", "--config", path]) == 1
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith(check)]
        assert " FAIL" in line

    def test_malformed_config_is_validation_error(self, tmp_path):
        path = str(tmp_path / "broken.ini")
        open(path, "w").write("[sounder]\nbogus = 1\n")
        assert main(["plan", "--config", path]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@st.composite
def _designs(draw):
    """A design drawn from the nine [sounder] keys, from the tightest values
    that pass the taper, noise-slot and Nyquist rules up.  The sample rate is
    drawn as an integer period length, so the period lies on the sample grid.
    The Doppler and period-grid rules still fail some of the draws."""
    tone_count = draw(st.integers(5, 24))
    tx_count = draw(st.integers(1, 3))
    grid_ratio = tx_count + draw(st.integers(1, 4))
    bandwidth = draw(st.floats(2e5, 1e6))
    # the highest tone completes (K - 1) g / 2 + T - 1 cycles per period
    nyquist = (tone_count - 1) * grid_ratio + 2 * (tx_count - 1)
    period_length = nyquist + draw(st.integers(1, 2 * tone_count * grid_ratio))
    return SounderConfig(
        center_frequency=draw(st.floats(1e9, 1e11)),
        bandwidth=bandwidth,
        tone_count=tone_count,
        tx_count=tx_count,
        grid_ratio=grid_ratio,
        averaging_count=draw(st.integers(1, 8)),
        max_speed=draw(st.floats(1.0, 30.0)),
        max_doppler=draw(st.floats(100.0, 5000.0)),
        sample_rate=period_length * bandwidth / (tone_count * grid_ratio),
    )


class TestPlannedDesignsRun:
    """Whatever plan passes, simulate, process and analyze run."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(cfg=_designs())
    def test_run_all_exits_zero(self, cfg):
        assume(validate_config(cfg).passed)
        scenario = default_scenario(
            duration=0.1,
            tx_velocity=(cfg.max_speed, 0.0, 0.0),
            beam_elevation_deg=[7.5 * tx for tx in range(cfg.tx_count)],
        )
        snapshots = _record_length(scenario, cfg) // cfg.samples_per_snapshot
        with tempfile.TemporaryDirectory() as root:
            cfg_path = os.path.join(root, "config.ini")
            scn_path = os.path.join(root, "scenario.ini")
            ddio.save_sounder_config(cfg_path, cfg)
            ddio.save_scenario(scn_path, scenario)
            rc = main([
                "run-all", "--config", cfg_path, "--scenario", scn_path,
                "--seed", "3", "--out-dir", os.path.join(root, "run"),
                "--window-length", str(min(snapshots, 64)), "--windows", "1",
            ])
        assert rc == 0, cfg


class TestStages:
    def test_simulate_outputs(self, tmp_path):
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        out = str(tmp_path / "sim")
        rc = main(
            ["simulate", "--config", cfg_path, "--scenario", scn_path,
             "--seed", "7", "--out-dir", out]
        )
        assert rc == 0
        for name in (
            "config.ini", "scenario.ini", "rx_record.dds1", "standstill.dds1",
            "truth_tx0.csv", "truth_tx1.csv",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        _, seed = ddio.read_signal(os.path.join(out, "rx_record.dds1"))
        assert seed == 7

    @pytest.mark.parametrize(
        "design,duration,named",
        [
            # a 10.5 ms sequence period: more than half of the 20 ms standstill
            (dict(bandwidth=8e3, sample_rate=1e4, averaging_count=1,
                  max_doppler=40.0, max_speed=0.2), 1.0, "standstill_duration 0.02 s"),
            (dict(tx_count=3), 0.1, "2 beams for 3 TXs"),  # on the two-beam street
        ],
        ids=["standstill", "beams"],
    )
    def test_simulate_checks_scenario_before_writing(
        self, tmp_path, capsys, design, duration, named
    ):
        """simulate run alone applies run-all's scenario checks: it exits 1
        and writes no file."""
        cfg = dataclasses.replace(narrowband_config(), **design)
        assert validate_config(cfg).passed
        cfg_path = str(tmp_path / "config.ini")
        scn_path = str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, cfg)
        ddio.save_scenario(scn_path, default_scenario(duration=duration))
        out = tmp_path / "x"
        rc = main(["simulate", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_noise_blocks_are_keyed_philox_draws(self, tmp_path, monkeypatch):
        """With silent TXs and no CFO, snapshot block b of the record is the
        start of ``Generator(Philox(key=[seed, b]))``'s standard normals, bit
        for bit, and of the standstill the same with its derived seed.  Both
        records cross several 12-block chunks and end in a partial block."""
        cfg = narrowband_config()
        scenario = default_scenario(duration=0.01, cfo=0.0)  # 59 blocks + 110 samples
        cfg_path, scn_path = str(tmp_path / "config.ini"), str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, cfg)
        ddio.save_scenario(scn_path, scenario)
        waveforms = cli._waveforms

        def silent(cfg):
            plans, signals = waveforms(cfg)
            return plans, [SampledSignal(0 * s.samples, s.sample_rate) for s in signals]

        monkeypatch.setattr(cli, "_waveforms", silent)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "9", "--out-dir", str(out)]) == 0
        block = cfg.samples_per_snapshot
        scale = np.sqrt(scenario.noise_psd * cfg.sample_rate / 2)
        for name, key in (
            ("rx_record.dds1", 9), ("standstill.dds1", cli._derived_seed(9, "standstill"))
        ):
            samples = ddio.read_signal(str(out / name))[0].samples
            assert samples.size > 24 * block and samples.size % block
            for b in range(-(-samples.size // block)):
                piece = samples[b * block : (b + 1) * block]
                philox = np.random.Philox(key=np.array([key, b], dtype=np.uint64))
                w = np.random.Generator(philox).standard_normal(2 * piece.size)
                np.testing.assert_array_equal(piece, scale * (w[0::2] + 1j * w[1::2]))

    def test_process_then_analyze(self, tmp_path):
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        out = str(tmp_path / "steps")
        assert main(["simulate", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "3", "--out-dir", out]) == 0
        assert main(["process", "--out-dir", out]) == 0
        for tx in (0, 1):
            assert os.path.exists(os.path.join(out, f"h_tx{tx}.ddg1"))
            assert os.path.exists(os.path.join(out, f"snr_tx{tx}.csv"))
        rc = main(["analyze", "--out-dir", out, "--window-length", "128",
                   "--windows", "1"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "lsf_tx0_w000.ddg2"))
        assert not os.path.exists(os.path.join(out, "lsf_tx0_w001.ddg2"))

    def test_sbl_peaks_carry_per_pass_traces(self, mini_run, tmp_path):
        out = str(tmp_path / "traces")
        os.makedirs(out)
        for name in ("config.ini", "h_tx0.ddg1", "h_tx1.ddg1"):
            shutil.copyfile(os.path.join(mini_run, name), os.path.join(out, name))
        rc = main(["analyze", "--out-dir", out, "--window-length", "128",
                   "--windows", "1", "--sbl-iters", "3"])
        assert rc == 0
        for tx in (0, 1):
            _, meta = ddio.read_peaks_json(os.path.join(out, f"sbl_peaks_tx{tx}_w000.json"))
            for key in ("noise_var_trace", "residual_power_trace", "churn_trace"):
                assert len(meta[key]) == 3, key
            assert meta["noise_var_trace"][-1] == meta["noise_var"]
            assert meta["residual_power_trace"][-1] == meta["residual_power"]
            assert all(isinstance(c, int) and c >= 0 for c in meta["churn_trace"])

    def test_analyze_window_longer_than_record(self, mini_run):
        rc = main(["analyze", "--out-dir", mini_run, "--window-length", "100000"])
        assert rc == 1

    @pytest.mark.parametrize("flag,value,named", _BAD_ANALYZE_FLAGS)
    def test_analyze_flag_out_of_range(self, mini_run, capsys, flag, value, named):
        """A configuration error (exit 1) that names its cause, before any output."""
        before = sorted(os.listdir(mini_run))
        rc = main(["analyze", "--out-dir", mini_run, flag, value])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert sorted(os.listdir(mini_run)) == before


class TestRunAll:
    def test_expected_outputs(self, mini_run):
        q = 595  # 0.1 s of 168 us snapshots
        windows = q // 128
        names = os.listdir(mini_run)
        for tx in (0, 1):
            for w in range(windows):
                for pattern in ("lsf_tx{t}_w{w:03d}.ddg2", "dsd_tx{t}_w{w:03d}.csv",
                                "peaks_tx{t}_w{w:03d}.json", "gamma_tx{t}_w{w:03d}.ddg2",
                                "sbl_peaks_tx{t}_w{w:03d}.json"):
                    assert pattern.format(t=tx, w=w) in names
        assert "manifest.json" in names
        assert "validation.txt" in names

    def test_manifest_lists_existing_outputs_with_run_seed(self, mini_run):
        manifest = RunManifest.load(os.path.join(mini_run, "manifest.json"))
        assert manifest.seed == 42
        assert [s.name for s in manifest.stages] == [
            "plan", "simulate", "process", "analyze",
        ]
        listed = [p for s in manifest.stages for p in s.outputs]
        assert listed
        for rel in listed:
            full = os.path.join(mini_run, rel)
            assert os.path.exists(full), rel
            if rel.endswith(".dds1"):
                _, seed = ddio.read_signal(full)
                assert seed == 42
            elif rel.endswith(".ddg1"):
                _, seed = ddio.read_grid(full)
                assert seed == 42
            elif rel.endswith(".ddg2"):
                _, seed = ddio.read_surface(full)
                assert seed == 42
            elif rel.endswith(".json"):
                _, meta = ddio.read_peaks_json(full)
                assert meta["seed"] == 42

    def test_snr_csv_time_axis(self, mini_run):
        t, snr = ddio.read_snr_csv(os.path.join(mini_run, "snr_tx0.csv"))
        assert t.size == 595
        assert np.all(np.diff(t) > 0)
        assert t[1] - t[0] == pytest.approx(168e-6)

    def test_rerun_is_byte_identical_except_manifest(self, mini_run, tmp_path):
        cfg_path = os.path.join(mini_run, "config.ini")
        scn_path = os.path.join(mini_run, "scenario.ini")
        out2 = str(tmp_path / "again")
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "42", "--out-dir", out2, "--window-length", "128"])
        assert rc == 0
        names = sorted(os.listdir(mini_run))
        assert names == sorted(os.listdir(out2))
        for name in names:
            a = open(os.path.join(mini_run, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            if name == "manifest.json":
                continue  # wall-clock times differ
            assert a == b, f"{name} differs between identical runs"

    def test_manifest_hashes_each_file_once(self, tmp_path, monkeypatch):
        """Every digest in the manifest is that of the file on disk, and no
        path is hashed twice: an input takes its producer's digest.  Neither
        the record nor the standstill is read back through ``file_digest``:
        simulate hashes each as it is written."""
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        out = str(tmp_path / "once")
        hashed = []
        digest = manifest.file_digest

        def counting_digest(path):
            hashed.append(os.path.relpath(path, out))
            return digest(path)

        monkeypatch.setattr(manifest, "file_digest", counting_digest)
        assert main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "5", "--out-dir", out, "--window-length", "128",
                     "--windows", "1"]) == 0
        assert len(hashed) == len(set(hashed))
        recorded = RunManifest.load(os.path.join(out, "manifest.json"))
        listed = set()
        for stage in recorded.stages:
            for rel, value in {**stage.inputs, **stage.outputs}.items():
                assert value == digest(os.path.join(out, rel)), rel
                listed.add(rel)
        records = {"rx_record.dds1", "standstill.dds1"}
        assert not records & set(hashed)
        assert set(hashed) == listed - records
        assert records <= set(recorded.stages[2].inputs)

    def test_failed_run_keeps_manifest_of_finished_stages(
        self, mini_run, tmp_path, monkeypatch
    ):
        """analyze fails after process; the manifest saved after process lists
        the three finished stages as the full run does."""
        cfg_path = os.path.join(mini_run, "config.ini")
        scn_path = os.path.join(mini_run, "scenario.ini")
        out = str(tmp_path / "stopped")

        def failing_analyze(args):
            raise ConfigError("analyze stopped")

        monkeypatch.setattr(cli, "_stage_analyze", failing_analyze)
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "42", "--out-dir", out, "--window-length", "128"])
        assert rc == 1
        stopped = RunManifest.load(os.path.join(out, "manifest.json"))
        complete = RunManifest.load(os.path.join(mini_run, "manifest.json"))
        assert [s.name for s in stopped.stages] == ["plan", "simulate", "process"]
        for a, b in zip(stopped.stages, complete.stages):
            assert (a.inputs, a.outputs) == (b.inputs, b.outputs)

    def test_window_longer_than_record_fails_before_simulate(self, tmp_path, capsys):
        """0.1 s of 168 us snapshots is 595 of them: a 596-snapshot window exits
        1 naming both counts, and no file is written."""
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        out = tmp_path / "x"
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out), "--window-length", "596"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "595 snapshots" in err and "596-snapshot window" in err
        assert not out.exists()

    def test_standstill_shorter_than_two_periods_fails_before_simulate(
        self, tmp_path, capsys
    ):
        """An 8 kHz design has a 10.5 ms sequence period, more than half of the
        default 20 ms standstill that the CFO estimate reads: run-all exits 1
        naming both values, and no file is written."""
        cfg = SounderConfig(
            bandwidth=8e3, sample_rate=1e4, averaging_count=1,
            max_doppler=40.0, max_speed=0.2,
        )
        assert validate_config(cfg).passed
        cfg_path = str(tmp_path / "config.ini")
        scn_path = str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, cfg)
        ddio.save_scenario(scn_path, default_scenario(duration=1.0))
        out = tmp_path / "x"
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out), "--window-length", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sequence period 0.0105 s" in err and "standstill_duration 0.02 s" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run-all"])
    def test_standstill_of_twelve_periods_fails_before_writing(
        self, tmp_path, capsys, command
    ):
        """A 1 ms desk standstill holds 11.9 sequence periods: too few for the
        CFO estimate to tell a signal from noise, so the command exits 1
        naming the standstill and writes no file."""
        cfg_path = str(tmp_path / "config.ini")
        scn_path = str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, narrowband_config())
        ddio.save_scenario(scn_path, default_scenario(standstill_duration=0.001))
        out = tmp_path / "x"
        rc = main([command, "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "standstill_duration 0.001 s holds 11.9 periods" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run-all"])
    def test_scenario_faster_than_design_fails_before_writing(
        self, tmp_path, capsys, command
    ):
        """100 km/h on the desk design, built for 14 m/s: its LOS Doppler of
        about 5.5 kHz would alias past the +-2,976 Hz its 168 us snapshots
        resolve.  The command exits 1 naming both speeds and writes no file."""
        cfg_path = str(tmp_path / "config.ini")
        scn_path = str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, narrowband_config())
        ddio.save_scenario(scn_path, default_scenario(duration=0.1, tx_velocity=(27.8, 0, 0)))
        out = tmp_path / "x"
        rc = main([command, "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "27.8 m/s" in err and "max_speed of 14 m/s" in err
        assert not out.exists()

    @pytest.mark.parametrize("speed,admitted", [(14.0, True), (14.01, False)])
    def test_speed_bound_is_max_speed(self, speed, admitted):
        """The bound is the design speed itself, not max_doppler: 14 m/s at
        60.15 GHz is 2,808.9 Hz, above the desk design's 2,800 Hz."""
        cfg = narrowband_config()
        scenario = default_scenario(tx_velocity=(speed, 0.0, 0.0))
        if admitted:
            cli._check_scenario(cfg, scenario)
        else:
            with pytest.raises(ConfigError, match="14.01 m/s"):
                cli._check_scenario(cfg, scenario)

    def test_design_for_100_kmh_runs_at_100_kmh(self, tmp_path, capsys):
        """One period per snapshot (84 us) resolves +-5,952 Hz: a design with
        max_speed 27.8 m/s and max_doppler 5,600 Hz passes plan, and run-all
        at 27.78 m/s exits 0 with the first DSD peak near the +5.5 kHz LOS
        Doppler, not aliased."""
        cfg = dataclasses.replace(
            narrowband_config(averaging_count=1), max_speed=27.8, max_doppler=5600.0
        )
        assert validate_config(cfg).passed
        cfg_path = str(tmp_path / "config.ini")
        scn_path = str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, cfg)
        ddio.save_scenario(scn_path, default_scenario(duration=0.1, tx_velocity=(27.78, 0, 0)))
        out = str(tmp_path / "run")
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path, "--seed", "1",
                   "--out-dir", out, "--window-length", "128", "--windows", "1"])
        assert rc == 0
        doppler, power = ddio.read_dsd_csv(os.path.join(out, "dsd_tx0_w000.csv"))
        assert doppler[np.argmax(power)] > 5000.0

    @pytest.mark.parametrize("periods,admitted", [(19, False), (20, True)])
    def test_standstill_needs_twenty_periods(self, periods, admitted):
        cfg = narrowband_config()
        scenario = default_scenario(standstill_duration=periods * cfg.sequence_period)
        if admitted:
            cli._check_scenario(cfg, scenario)
        else:
            with pytest.raises(ConfigError, match="19.0 periods"):
                cli._check_scenario(cfg, scenario)

    def test_beam_count_other_than_tx_count_fails_before_plan(self, tmp_path, capsys):
        """Three TXs on the default two-beam street pass plan, but run-all
        exits 1 before plan writes validation.txt or the manifest."""
        cfg = dataclasses.replace(narrowband_config(), tx_count=3)
        assert validate_config(cfg).passed
        cfg_path = str(tmp_path / "config.ini")
        scn_path = str(tmp_path / "scenario.ini")
        ddio.save_sounder_config(cfg_path, cfg)
        ddio.save_scenario(scn_path, default_scenario(duration=0.1))
        out = tmp_path / "x"
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out), "--window-length", "128"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2 beams for 3 TXs" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,named", _BAD_ANALYZE_FLAGS)
    def test_analyze_flag_out_of_range_fails_before_simulate(
        self, tmp_path, capsys, flag, value, named
    ):
        """run-all checks the analyze flags before any stage writes a file."""
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        out = tmp_path / "x"
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "1", "--out-dir", str(out), flag, value])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_different_seed_changes_record(self, mini_run, tmp_path):
        cfg_path = os.path.join(mini_run, "config.ini")
        scn_path = os.path.join(mini_run, "scenario.ini")
        out2 = str(tmp_path / "seed43")
        rc = main(["simulate", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "43", "--out-dir", out2])
        assert rc == 0
        a = ddio.read_signal(os.path.join(mini_run, "rx_record.dds1"))[0]
        b = ddio.read_signal(os.path.join(out2, "rx_record.dds1"))[0]
        assert np.any(a.samples != b.samples)


class TestWindowPool:
    """analyze runs its windows on one forked worker per available CPU."""

    WINDOW = "32"  # 18 windows per TX on the miniature record

    def _grids(self, mini_run, out):
        os.makedirs(out)
        for name in ("config.ini", "h_tx0.ddg1", "h_tx1.ddg1"):
            shutil.copyfile(os.path.join(mini_run, name), os.path.join(out, name))
        return out

    def _analyze(self, out, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        argv = ["analyze", "--out-dir", out, "--window-length", self.WINDOW]
        return cli._stage_analyze(cli._build_parser().parse_args(argv))

    def _files(self, out):
        return {
            name: open(os.path.join(out, name), "rb").read()
            for name in sorted(os.listdir(out))
        }

    def test_pool_and_single_worker_write_the_same_bytes(
        self, mini_run, tmp_path, monkeypatch, capsys
    ):
        pooled = self._grids(mini_run, str(tmp_path / "pool"))
        single = self._grids(mini_run, str(tmp_path / "single"))
        names = self._analyze(pooled, monkeypatch, 2)
        assert "analyzed 36 windows of 32 snapshots on 2 workers" in capsys.readouterr().out
        assert self._analyze(single, monkeypatch, 1) == names
        assert "on 1 worker\n" in capsys.readouterr().out
        assert names[:6] == [
            "lsf_tx0_w000.ddg2", "dsd_tx0_w000.csv", "peaks_tx0_w000.json",
            "gamma_tx0_w000.ddg2", "sbl_peaks_tx0_w000.json", "lsf_tx0_w001.ddg2",
        ]
        assert names[-1] == "sbl_peaks_tx1_w017.json"
        files = self._files(pooled)
        assert len(files) == 3 + len(names)
        assert files == self._files(single)
        assert multiprocessing.active_children() == []

    def test_nan_window_fails_fast_with_the_serial_message(
        self, mini_run, tmp_path, monkeypatch, capsys
    ):
        """A NaN in h_tx1 window 5: exit 3 with the message a serial run
        gives, no worker left, no temp file, and the windows queued behind it
        never start (those after it are slowed, so the pool cannot reach them
        before the failure cancels them)."""
        runs = {}
        for kind in ("single", "pool"):
            out = self._grids(mini_run, str(tmp_path / kind))
            path = os.path.join(out, "h_tx1.ddg1")
            grid, seed = ddio.read_grid(path)
            grid.values[5 * 32 + 7, 3] = np.nan
            ddio.write_grid(path, grid, seed)
            runs[kind] = out
        window = cli._analyze_window

        def slow_after_nan(*job):
            tx, w = job[-2:]
            if tx == 1 and w > 5:
                time.sleep(0.2)
            return window(*job)

        monkeypatch.setattr(cli, "_analyze_window", slow_after_nan)
        messages = {}
        for kind, cpus in (("single", 1), ("pool", 2)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            rc = main(["analyze", "--out-dir", runs[kind], "--window-length", self.WINDOW])
            assert rc == 3
            messages[kind] = capsys.readouterr().err
        assert messages["pool"] == messages["single"]
        assert "non-finite" in messages["pool"]
        assert multiprocessing.active_children() == []
        serial, pooled = self._files(runs["single"]), self._files(runs["pool"])
        assert not [name for name in pooled if ".tmp." in name]
        # every window before the NaN one finished, as in the serial run
        assert {name: pooled[name] for name in serial} == serial
        assert "lsf_tx1_w017.ddg2" not in pooled

    def test_dead_worker_is_io_error_naming_analyze(
        self, mini_run, tmp_path, monkeypatch, capsys
    ):
        """TX0 window 3 kills its worker while window 2 waits inside
        ``io._atomic_file`` on the other one: the broken pool terminates that
        worker there, and its temp file is removed with the pool."""
        out = self._grids(mini_run, str(tmp_path / "dead"))
        window = cli._analyze_window

        def die_on_window_3(*job):
            if job[-2:] == (0, 2):
                with ddio._atomic_file(os.path.join(out, "lsf_tx0_w002.ddg2")):
                    time.sleep(60)
            if job[-2:] == (0, 3):
                time.sleep(0.5)
                os._exit(1)
            return window(*job)

        monkeypatch.setattr(cli, "_analyze_window", die_on_window_3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rc = main(["analyze", "--out-dir", out, "--window-length", self.WINDOW])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: analyze: a worker died" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert not [name for name in os.listdir(out) if ".tmp." in name]


class TestSimulatePool:
    """simulate runs the record's groups, the standstill and the truth tables
    on one forked worker per available CPU."""

    @staticmethod
    def _configs(root, tx_count):
        """A 0.2 s drive: three geometry groups and a partial last block."""
        cfg = dataclasses.replace(narrowband_config(), tx_count=tx_count)
        assert validate_config(cfg).passed
        scenario = default_scenario(
            duration=0.2, beam_elevation_deg=[7.5 * tx for tx in range(tx_count)]
        )
        record = channel._RecordGroups(cli._waveforms(cfg)[1], scenario, cfg, 0)
        assert len(record.groups) == 3 and record.length % cfg.samples_per_snapshot
        cfg_path, scn_path = os.path.join(root, "config.ini"), os.path.join(root, "scenario.ini")
        ddio.save_sounder_config(cfg_path, cfg)
        ddio.save_scenario(scn_path, scenario)
        return ["simulate", "--config", cfg_path, "--scenario", scn_path, "--seed", "11"]

    @staticmethod
    def _files(out):
        return {
            name: open(os.path.join(out, name), "rb").read()
            for name in sorted(os.listdir(out))
        }

    @staticmethod
    def _cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @pytest.mark.parametrize("tx_count", [1, 3])
    def test_pool_and_single_worker_write_the_same_bytes(
        self, tmp_path, monkeypatch, capsys, tx_count
    ):
        argv = self._configs(str(tmp_path), tx_count)
        files = {}
        for cpus, says in ((1, "on 1 worker\n"), (2, "on 2 workers\n")):
            self._cpus(monkeypatch, cpus)
            out = str(tmp_path / f"cpus{cpus}")
            assert main(argv + ["--out-dir", out]) == 0
            assert says in capsys.readouterr().out
            files[cpus] = self._files(out)
        truth = [f"truth_tx{tx}.csv" for tx in range(tx_count)]
        assert sorted(files[2]) == sorted(
            ["config.ini", "scenario.ini", "rx_record.dds1", "standstill.dds1", *truth]
        )
        assert files[2] == files[1]
        assert multiprocessing.active_children() == []

    def test_standstill_of_three_groups(self, tmp_path, monkeypatch, capsys):
        """A 0.2 s standstill (1,191 blocks, the last one partial) is three
        geometry groups, read back in the same pass as the drive's groups,
        each into its own file's digest.  On 1 and on 2 CPUs simulate writes
        the same bytes, each digest is that of the file on disk, and the
        standstill is ``write_signal`` of ``apply_channel`` on the parked
        scenario with its derived noise key."""
        cfg = narrowband_config()
        scenario = default_scenario(duration=0.1, standstill_duration=0.2)
        parked = cli._parked(scenario)
        signals = cli._waveforms(cfg)[1]
        still = channel._RecordGroups(signals, parked, cfg, 0)
        assert len(still.groups) == 3 and still.length % cfg.samples_per_snapshot
        files = {}
        for cpus in (1, 2):
            self._cpus(monkeypatch, cpus)
            out = str(tmp_path / f"cpus{cpus}")
            _, digests = cli._stage_simulate(cfg, scenario, 11, out)
            assert f"on {cpus} worker" in capsys.readouterr().out
            for name in ("rx_record.dds1", "standstill.dds1"):
                assert digests[name] == manifest.file_digest(os.path.join(out, name))
            files[cpus] = self._files(out)
        assert files[2] == files[1]
        expected = str(tmp_path / "expected.dds1")
        rx = channel.apply_channel(signals, parked, cfg, cli._derived_seed(11, "standstill"))
        ddio.write_signal(expected, rx, 11)
        assert files[1]["standstill.dds1"] == open(expected, "rb").read()
        assert multiprocessing.active_children() == []

    def test_failing_job_fails_with_the_serial_message(
        self, tmp_path, monkeypatch, capsys
    ):
        """The record's last group raises: exit 3 with the message a serial
        run gives, and no record, temp file or worker left behind."""
        argv = self._configs(str(tmp_path), 2)
        write_group = cli._write_group

        def failing_last_group(samples, record, first):
            if first == record.groups[-1]:
                raise ValueError("delay slopes must be finite")
            return write_group(samples, record, first)

        monkeypatch.setattr(cli, "_write_group", failing_last_group)
        messages = {}
        for cpus in (1, 2):
            self._cpus(monkeypatch, cpus)
            out = str(tmp_path / f"cpus{cpus}")
            assert main(argv + ["--out-dir", out]) == 3
            messages[cpus] = capsys.readouterr().err
            names = os.listdir(out)
            assert "rx_record.dds1" not in names
            assert not [name for name in names if ".tmp." in name]
        assert messages[2] == messages[1] == "numerical failure: delay slopes must be finite\n"
        assert multiprocessing.active_children() == []

    @staticmethod
    def _blas_threads():
        """The thread count of each OpenBLAS loaded in this process."""
        counts = []
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            library = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(library, name):
                    getattr(library, name).restype = ctypes.c_int
                    counts.append(getattr(library, name)())
                    break
        return counts

    def test_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        """Each worker runs every OpenBLAS on one thread; this process keeps
        its own counts."""
        own = self._blas_threads()
        if not own:
            pytest.skip("no OpenBLAS loaded")
        self._cpus(monkeypatch, 2)
        jobs = [(self._blas_threads,)] * 4
        with cli._fork_map("simulate", str(tmp_path), jobs) as (results, workers):
            counts = list(results)
        assert workers == 2
        assert counts == [[1] * len(own)] * 4
        assert self._blas_threads() == own

    def test_dead_worker_is_io_error_naming_simulate(self, tmp_path, monkeypatch, capsys):
        """The first group kills its worker while the other worker waits
        inside ``io._atomic_file`` on TX0's truth table: exit 2, and neither
        the record nor a temp file is left."""
        argv = self._configs(str(tmp_path), 2)
        out = str(tmp_path / "dead")
        write_truth = cli._write_truth

        def stuck_truth(out_dir, scenario, cfg, q_count, tx):
            if tx == 0:
                with ddio._atomic_file(os.path.join(out_dir, "truth_tx0.csv")):
                    time.sleep(60)
            return write_truth(out_dir, scenario, cfg, q_count, tx)

        def dying_group(samples, record, first):
            time.sleep(0.5)
            os._exit(1)

        monkeypatch.setattr(cli, "_write_truth", stuck_truth)
        monkeypatch.setattr(cli, "_write_group", dying_group)
        self._cpus(monkeypatch, 2)
        assert main(argv + ["--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "error: simulate: a worker died" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        names = os.listdir(out)
        assert "rx_record.dds1" not in names and "truth_tx0.csv" not in names
        assert not [name for name in names if ".tmp." in name]


class TestExitCodes:
    def test_missing_inputs_is_io_error(self, tmp_path):
        assert main(["process", "--out-dir", str(tmp_path)]) == 2

    def test_corrupt_record_is_io_error(self, mini_run, tmp_path, capsys):
        out = str(tmp_path / "corrupt")
        os.makedirs(out)
        for name in ("config.ini", "scenario.ini", "standstill.dds1"):
            data = open(os.path.join(mini_run, name), "rb").read()
            open(os.path.join(out, name), "wb").write(data)
        blob = bytearray(open(os.path.join(mini_run, "rx_record.dds1"), "rb").read())
        blob[:4] = b"ZZZZ"
        open(os.path.join(out, "rx_record.dds1"), "wb").write(bytes(blob))
        assert main(["process", "--out-dir", out]) == 2
        assert "bad magic" in capsys.readouterr().err

    def _copy_run(self, mini_run, out):
        os.makedirs(out)
        for name in ("config.ini", "scenario.ini", "standstill.dds1", "rx_record.dds1"):
            data = open(os.path.join(mini_run, name), "rb").read()
            open(os.path.join(out, name), "wb").write(data)
        return os.path.join(out, "rx_record.dds1")

    def test_record_one_sample_short_is_io_error(self, mini_run, tmp_path, capsys):
        out = str(tmp_path / "short")
        record = self._copy_run(mini_run, out)
        os.truncate(record, os.path.getsize(record) - 16)
        assert main(["process", "--out-dir", out]) == 2
        assert "header promises" in capsys.readouterr().err
        assert not any(name.startswith("h_tx") for name in os.listdir(out))

    def test_record_promising_2_to_40_samples_is_io_error(self, mini_run, tmp_path, capsys):
        out = str(tmp_path / "huge")
        record = self._copy_run(mini_run, out)
        with open(record, "r+b") as fh:
            fh.seek(16)  # magic, seed, sample rate, then the length
            fh.write(struct.pack("<Q", 1 << 40))
        assert main(["process", "--out-dir", out]) == 2
        assert "header promises" in capsys.readouterr().err

    def test_record_shrinking_while_processed_is_io_error(
        self, mini_run, tmp_path, capsys, monkeypatch
    ):
        """The record passes its size check, then loses its second half
        while the standstill is searched for the CFO."""
        out = str(tmp_path / "shrink")
        record = self._copy_run(mini_run, out)
        estimate = cli.estimate_cfo

        def shrink_then_estimate(*args):
            os.truncate(record, os.path.getsize(record) // 2)
            return estimate(*args)

        monkeypatch.setattr(cli, "estimate_cfo", shrink_then_estimate)
        assert main(["process", "--out-dir", out]) == 2
        assert "shrank" in capsys.readouterr().err
        assert not any(name.startswith("h_tx") for name in os.listdir(out))

    def test_signal_free_standstill_is_numerical_error(self, mini_run, tmp_path, capsys):
        out = str(tmp_path / "nosig")
        os.makedirs(out)
        for name in ("config.ini", "scenario.ini", "rx_record.dds1"):
            data = open(os.path.join(mini_run, name), "rb").read()
            open(os.path.join(out, name), "wb").write(data)
        rng = np.random.default_rng(0)
        n = 25000
        noise = SampledSignal(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), 1.25e6
        )
        ddio.write_signal(os.path.join(out, "standstill.dds1"), noise, seed=0)
        assert main(["process", "--out-dir", out]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sample_rate_mismatch_is_config_error(self, mini_run, tmp_path, capsys):
        """A 1.25 MS/s record under a 2.5 MS/s config.ini names the record."""
        out = str(tmp_path / "rate")
        os.makedirs(out)
        for name in ("scenario.ini", "rx_record.dds1", "standstill.dds1"):
            data = open(os.path.join(mini_run, name), "rb").read()
            open(os.path.join(out, name), "wb").write(data)
        cfg = SounderConfig(bandwidth=1e6, sample_rate=2.5e6, averaging_count=2)
        ddio.save_sounder_config(os.path.join(out, "config.ini"), cfg)
        assert main(["process", "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert "rx_record.dds1" in err and "sample_rate" in err
        assert not any(name.startswith("h_tx") for name in os.listdir(out))

    @pytest.mark.parametrize("name", ["rx_record.dds1", "standstill.dds1"])
    def test_input_header_rate_mismatch_is_config_error(
        self, mini_run, tmp_path, capsys, name
    ):
        """A record or standstill whose header rate disagrees with config.ini
        exits 1 naming the file, and no grid is written."""
        out = str(tmp_path / "header_rate")
        self._copy_run(mini_run, out)
        with open(os.path.join(out, name), "r+b") as fh:
            fh.seek(8)  # magic, seed, then the sample rate
            fh.write(struct.pack("<d", 2.5e6))
        assert main(["process", "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert name in err and "sample_rate 2500000.0 S/s" in err
        assert not any(f.startswith("h_tx") for f in os.listdir(out))

    def test_both_header_rates_mismatched_names_the_record(
        self, mini_run, tmp_path, capsys
    ):
        """The record's rate is checked before the standstill's."""
        out = str(tmp_path / "both_rates")
        self._copy_run(mini_run, out)
        for name in ("rx_record.dds1", "standstill.dds1"):
            with open(os.path.join(out, name), "r+b") as fh:
                fh.seek(8)
                fh.write(struct.pack("<d", 2.5e6))
        assert main(["process", "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert "rx_record.dds1" in err and "standstill.dds1" not in err

    def test_unknown_scenario_key_is_validation_error(self, tmp_path):
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        with open(scn_path, "a") as fh:
            fh.write("mystery = 1\n")
        assert main(["simulate", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "1", "--out-dir", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "rx_position", "tx_velocity", "tx_antenna_height", "canyon_width",
            "wall_loss_db", "trigger_distance", "duration", "standstill_duration",
            "noise_psd", "cfo", "rx_gain_dbi", "beam_elevation_deg",
            "beam_gain_dbi", "beam_width_deg", "beam_floor_dbi",
        ],
    )
    def test_non_finite_scenario_value_is_validation_error(
        self, tmp_path, capsys, key, value
    ):
        """A NaN or infinite entry in any numeric key fails before simulate."""
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        lines = open(scn_path).read().splitlines(keepends=True)
        (index,) = [i for i, line in enumerate(lines) if line.startswith(f"{key} = ")]
        entries = lines[index].split(" = ")[1].strip().split(", ")
        lines[index] = f"{key} = {', '.join([value] + entries[1:])}\n"
        open(scn_path, "w").writelines(lines)
        out = tmp_path / "x"
        assert main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "1", "--out-dir", str(out)]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_vertical_tx_velocity_is_validation_error(self, tmp_path, capsys):
        """A climbing car would start off the light barrier; fails before simulate."""
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        text = open(scn_path).read()
        level = "tx_velocity = 14, 0, 0\n"
        assert level in text
        open(scn_path, "w").write(text.replace(level, "tx_velocity = 14, 0, 2\n"))
        out = tmp_path / "x"
        assert main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "1", "--out-dir", str(out)]) == 1
        assert "tx_velocity must be horizontal" in capsys.readouterr().err
        assert not out.exists()


class TestBoundedMemory:
    """simulate and process hold chunks of the record, never all of it."""

    @staticmethod
    def _traced_peaks(out, duration, stages=("simulate", "process")):
        """Traced peak bytes of each of ``stages`` on a ``duration`` s drive.
        The design averages eight periods per snapshot (the paper's averages
        212), so the per-snapshot tone grids that process keeps are a small
        share of the record; 0.25 s already spans more than one
        262,144-sample chunk of coherent_average."""
        cfg = SounderConfig(
            bandwidth=1e6, sample_rate=1.25e6, averaging_count=8,
            max_speed=3.5, max_doppler=700.0,
        )
        assert validate_config(cfg).passed
        scenario = default_scenario(duration=duration, tx_velocity=(3.5, 0.0, 0.0))
        run = {
            "simulate": lambda: cli._stage_simulate(cfg, scenario, 7, out),
            "process": lambda: cli._stage_process(out),
        }
        peaks = []
        for stage in stages:
            tracemalloc.start()
            try:
                run[stage]()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_flat_in_record_length(self, tmp_path, monkeypatch, capsys):
        """A 4x longer record (1 s, 20 MB on disk) stays within 1.25x of the
        0.25 s record's peak in both stages.  Simulate runs on one CPU, so
        its jobs run in this process, where tracemalloc sees them."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        short = self._traced_peaks(str(tmp_path / "short"), 0.25)
        long = self._traced_peaks(str(tmp_path / "long"), 1.0)
        assert "on 1 worker\n" in capsys.readouterr().out
        assert os.path.getsize(str(tmp_path / "long" / "rx_record.dds1")) == 32 + 16 * 1_250_000
        for stage, a, b in zip(("simulate", "process"), short, long):
            assert b <= 1.25 * a, f"{stage}: {b / 2**20:.2f} MB vs {a / 2**20:.2f} MB"

    def test_pooled_parent_peak_flat_in_record_length(self, tmp_path, monkeypatch, capsys):
        """On two workers, simulate's own process, which reads every group
        back to hash it, stays within 1.25x of its 0.25 s peak on a 4x longer
        record.  The pool's modules are loaded first, so that neither run
        counts their import."""
        import concurrent.futures.process  # noqa: F401

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        (short,) = self._traced_peaks(str(tmp_path / "short"), 0.25, ["simulate"])
        (long,) = self._traced_peaks(str(tmp_path / "long"), 1.0, ["simulate"])
        assert capsys.readouterr().out.count("on 2 workers\n") == 2
        assert long <= 1.25 * short, f"{long / 2**20:.2f} MB vs {short / 2**20:.2f} MB"
