"""Command-line pipeline tests.

A miniature drive-by (0.1 s record) exercises every stage end to end; the
full-length scenario statistics live in the acceptance suite.  Exit codes:
0 success, 1 validation, 2 I/O, 3 numerical.
"""

import json
import os

import numpy as np
import pytest

from ddsounder import io as ddio
from ddsounder.channel import default_scenario
from ddsounder.cli import main
from ddsounder.manifest import RunManifest
from ddsounder.params import derive_config, validate_config
from ddsounder.waveform import SampledSignal


def _mini_configs(directory):
    """Short-record config pair for fast pipeline tests."""
    cfg = derive_config(
        bandwidth=1e6, sample_rate=1.25e6, averaging_count=2, recording_time=0.1
    )
    cfg_path = os.path.join(directory, "mini_config.ini")
    scn_path = os.path.join(directory, "mini_scenario.ini")
    ddio.save_sounder_config(cfg_path, cfg)
    ddio.save_scenario(scn_path, default_scenario(duration=0.1))
    return cfg_path, scn_path


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
        cfg = derive_config(
            bandwidth=1e6, sample_rate=1.25e6, averaging_count=100, recording_time=0.1
        )
        path = str(tmp_path / "bad.ini")
        ddio.save_sounder_config(path, cfg)
        assert main(["plan", "--config", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "design,check",
        [
            ({"sample_rate": 6.25e5}, "samples_per_period_integer"),  # 52.5 samples
            ({"sample_rate": 5e5}, "tones_within_nyquist"),  # 476 kHz tone
            ({"grid_ratio": 2, "sample_rate": 1.5e6}, "noise_slot_free"),
        ],
    )
    def test_design_that_breaks_later_stages_fails(self, tmp_path, capsys, design, check):
        cfg = derive_config(**{"bandwidth": 1e6, "averaging_count": 2, **design})
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

    def test_analyze_window_longer_than_record(self, mini_run):
        rc = main(["analyze", "--out-dir", mini_run, "--window-length", "100000"])
        assert rc == 1


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

    def test_failed_run_keeps_manifest_of_finished_stages(self, mini_run, tmp_path):
        """analyze rejects a window longer than the record; the manifest saved
        after process lists the three finished stages as the full run does."""
        cfg_path = os.path.join(mini_run, "config.ini")
        scn_path = os.path.join(mini_run, "scenario.ini")
        out = str(tmp_path / "stopped")
        rc = main(["run-all", "--config", cfg_path, "--scenario", scn_path,
                   "--seed", "42", "--out-dir", out, "--window-length", "100000"])
        assert rc == 1
        stopped = RunManifest.load(os.path.join(out, "manifest.json"))
        complete = RunManifest.load(os.path.join(mini_run, "manifest.json"))
        assert [s.name for s in stopped.stages] == ["plan", "simulate", "process"]
        for a, b in zip(stopped.stages, complete.stages):
            assert (a.inputs, a.outputs) == (b.inputs, b.outputs)

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

    def test_unknown_scenario_key_is_validation_error(self, tmp_path):
        cfg_path, scn_path = _mini_configs(str(tmp_path))
        with open(scn_path, "a") as fh:
            fh.write("mystery = 1\n")
        assert main(["simulate", "--config", cfg_path, "--scenario", scn_path,
                     "--seed", "1", "--out-dir", str(tmp_path / "x")]) == 1
