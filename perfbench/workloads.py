"""The benchmark's three workloads: inputs from a seed, the timed CLI call, output checks.

All three use the default desk-scale design (``narrowband_config()``:
1.25 MS/s, 105-sample period, two-period 168 us snapshots) and the default
street canyon.  Each puts a different layer on top, so that a gain in one
layer and a cost in another both show:

* ``driveby`` loads ``channel`` and ``_kernels`` (simulate is most of its
  time) and runs every other layer behind them; it bypasses nothing, and it
  is the only workload that hashes files (``manifest``).
* ``windows`` loads ``sbl`` and ``tfanalysis`` and is the only workload that
  runs the ``DDS_THREADS`` window pool; it bypasses ``channel``,
  ``_kernels`` and ``rxproc``.
* ``record`` loads ``rxproc`` and the ``io`` readers with the largest array
  of any stage; it bypasses ``sbl``, ``tfanalysis`` and the analyze pool.

Set-up runs in its own interpreter (see ``child.py``) and writes the inputs
into the workload's run directory; the timed command reads them from there.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil

import numpy as np

from ddsounder import io as ddio
from ddsounder.channel import apply_channel, default_scenario, transfer_function
from ddsounder.params import narrowband_config
from ddsounder.rxproc import TransferFunctionGrid
from ddsounder.waveform import multitone_waveform, tone_plan

WINDOW_LENGTH = 360

DRIVEBY_DOPPLER_FLOOR_HZ = 2500.0  # acceptance 8a: first tx0 window above this


def seed32(seed: int) -> int:
    """The program's noise streams take 32-bit seeds."""
    return seed % (1 << 32)


def _plans(cfg):
    return [tone_plan(cfg, tx) for tx in range(cfg.tx_count)]


def h_nmse(run_dir, cfg, scenario, references: dict) -> float:
    """NMSE of the recovered ``h_tx*.ddg1`` against the exact transfer function,
    pooled over both TX, at the grids' own snapshot times.

    ``references`` caches the exact grids between repetitions of one run.
    """
    err = ref_power = 0.0
    for plan in _plans(cfg):
        grid, _ = ddio.read_grid(os.path.join(run_dir, f"h_tx{plan.tx_index}.ddg1"))
        key = (plan.tx_index, grid.snapshot_times.tobytes())
        if key not in references:
            references[key] = transfer_function(scenario, cfg, plan, grid.snapshot_times)
        ref = references[key]
        err += float(np.sum(np.abs(grid.values - ref) ** 2))
        ref_power += float(np.sum(np.abs(ref) ** 2))
    return err / ref_power


def lsf_sbl_agree(run_dir, cfg) -> float:
    """Share of windows whose strongest LSF and SBL peaks agree (acceptance 7's
    rule): within one native delay bin, circularly, and one native Doppler bin."""
    native_delay = 1.0 / (cfg.tone_count * cfg.tone_spacing)
    native_doppler = 1.0 / (WINDOW_LENGTH * cfg.snapshot_time)
    delay_span = cfg.tone_count * native_delay
    lsf_files = sorted(glob.glob(os.path.join(run_dir, "peaks_tx*_w*.json")))
    agree = 0
    for path in lsf_files:
        lsf, _ = ddio.read_peaks_json(path)
        sbl, _ = ddio.read_peaks_json(
            os.path.join(run_dir, "sbl_" + os.path.basename(path))
        )
        if not lsf.entries or not sbl.entries:
            continue
        a, b = lsf.entries[0], sbl.entries[0]
        d_err = abs(a.delay - b.delay)
        d_err = min(d_err, delay_span - d_err)
        if d_err <= native_delay and abs(a.doppler - b.doppler) <= native_doppler:
            agree += 1
    return agree / len(lsf_files) if lsf_files else 0.0


def _window_outputs(cfg, windows_per_tx):
    return [
        f"{kind}_tx{tx}_w{w:03d}.{ext}"
        for tx in range(cfg.tx_count)
        for w in range(windows_per_tx)
        for kind, ext in (
            ("lsf", "ddg2"),
            ("dsd", "csv"),
            ("peaks", "json"),
            ("gamma", "ddg2"),
            ("sbl_peaks", "json"),
        )
    ]


class Workload:
    """One named workload; subclasses fill in the parts below."""

    name = ""
    # value of DDS_THREADS in the timed command's environment (None: unset)
    dds_threads: int | None = None
    # set-up is repeated this many times per run and its median reported
    setup_repeats = 3
    # h_nmse above this fails the run (workloads that write h_tx*.ddg1)
    h_nmse_ceiling = float("inf")
    # lsf_sbl_agree below this fails the run (workloads that analyze)
    agree_floor = 0.0

    def __init__(self, run_dir: str, seed: int):
        self.run_dir = run_dir
        self.seed = seed
        self.cfg = narrowband_config()
        self.references = {}

    def make_inputs(self) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def output_dir(self) -> str:
        return self.run_dir

    def expected_outputs(self) -> list[str]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for name in self.expected_outputs():
            path = os.path.join(self.output_dir(), name)
            if os.path.exists(path):
                os.unlink(path)

    def check(self) -> tuple[list[str], dict[str, float]]:
        """Problems found in the outputs, and the quality values measured."""
        missing = [
            n for n in self.expected_outputs()
            if not os.path.isfile(os.path.join(self.output_dir(), n))
        ]
        if missing:
            return [f"{len(missing)} expected outputs missing, e.g. {missing[0]}"], {}
        return self.check_outputs()

    def check_outputs(self) -> tuple[list[str], dict[str, float]]:
        raise NotImplementedError

    def stage_times(self, wall_s: float) -> dict[str, float]:
        """Wall time of each stage of one timed command."""
        raise NotImplementedError


class DriveBy(Workload):
    """``run-all`` on the first 0.5 s of the default drive (625k samples,
    2,976 snapshots and 8 windows per TX).  Simulate-bound: loads
    ``channel`` and ``_kernels``; the only workload that hashes (``manifest``)."""

    name = "driveby"
    # a sixth of the 3.2 s drive, so that 22 runs of every workload fit the
    # benchmark's time budget
    duration = 0.5
    # 3.1e-3 to 9.8e-3 over eleven seeds.  The 20 ms standstill leaves a
    # CFO error of about 0.015 Hz rms across seeds; over a 1 s drive its
    # phase drift alone gives 0.08 at 0.06 Hz.
    h_nmse_ceiling = 0.15
    # every window agreed on all eleven seeds
    agree_floor = 0.75
    windows_per_tx = 8

    def make_inputs(self):
        os.makedirs(self.run_dir, exist_ok=True)
        ddio.save_sounder_config(os.path.join(self.run_dir, "config.ini"), self.cfg)
        ddio.save_scenario(
            os.path.join(self.run_dir, "scenario.ini"),
            default_scenario(duration=self.duration),
        )

    def output_dir(self):
        return os.path.join(self.run_dir, "out")

    def argv(self):
        return [
            "run-all",
            "--config", os.path.join(self.run_dir, "config.ini"),
            "--scenario", os.path.join(self.run_dir, "scenario.ini"),
            "--seed", str(seed32(self.seed)),
            "--out-dir", self.output_dir(),
        ]

    def clear_outputs(self):
        shutil.rmtree(self.output_dir(), ignore_errors=True)

    def expected_outputs(self):
        return [
            "config.ini", "scenario.ini", "validation.txt", "manifest.json",
            "rx_record.dds1", "standstill.dds1",
            *(f"{kind}_tx{tx}.{ext}" for tx in range(self.cfg.tx_count)
              for kind, ext in (("truth", "csv"), ("h", "ddg1"), ("snr", "csv"))),
            *_window_outputs(self.cfg, self.windows_per_tx),
        ]

    def check_outputs(self):
        out = self.output_dir()
        scenario = ddio.load_scenario(os.path.join(self.run_dir, "scenario.ini"))
        quality = {
            "h_nmse": h_nmse(out, self.cfg, scenario, self.references),
            "lsf_sbl_agree": lsf_sbl_agree(out, self.cfg),
        }
        doppler, power = ddio.read_dsd_csv(os.path.join(out, "dsd_tx0_w000.csv"))
        quality["dsd_argmax_hz"] = float(doppler[np.argmax(power)])
        problems = []
        if quality["h_nmse"] > self.h_nmse_ceiling:
            problems.append(f"h_nmse {quality['h_nmse']:.3g} above {self.h_nmse_ceiling}")
        if quality["lsf_sbl_agree"] < self.agree_floor:
            problems.append(
                f"lsf_sbl_agree {quality['lsf_sbl_agree']:.3g} below {self.agree_floor}"
            )
        if quality["dsd_argmax_hz"] <= DRIVEBY_DOPPLER_FLOOR_HZ:
            problems.append(
                f"first tx0 DSD argmax {quality['dsd_argmax_hz']:.1f} Hz "
                f"at or below {DRIVEBY_DOPPLER_FLOOR_HZ} Hz"
            )
        return problems, quality

    def stage_times(self, wall_s):
        with open(os.path.join(self.output_dir(), "manifest.json")) as fh:
            stages = json.load(fh)["stages"]
        return {f"{s['name']}_s": s["wall_clock_s"] for s in stages if s["name"] != "plan"}


class Windows(Workload):
    """``analyze`` alone with ``DDS_THREADS=2`` on two grids of 16 x 360
    snapshots of the pass-by (t = 2.2 s onward, the part ``driveby`` skips),
    made with ``channel.transfer_function`` plus seeded white noise at 25 dB
    SNR.  Loads ``sbl`` and ``tfanalysis``, runs the window pool; bypasses
    ``channel``, ``_kernels`` and ``rxproc``."""

    name = "windows"
    dds_threads = 2
    # 18/32 to 24/32 over sixteen seeds
    agree_floor = 0.3
    start_time = 2.2
    snr_db = 25.0
    windows_per_tx = 16

    def make_inputs(self):
        os.makedirs(self.run_dir, exist_ok=True)
        ddio.save_sounder_config(os.path.join(self.run_dir, "config.ini"), self.cfg)
        scenario = default_scenario()
        rng = np.random.default_rng(seed32(self.seed))
        count = self.windows_per_tx * WINDOW_LENGTH
        times = self.start_time + np.arange(count) * self.cfg.snapshot_time
        for plan in _plans(self.cfg):
            h = transfer_function(scenario, self.cfg, plan, times)
            noise_var = np.mean(np.abs(h) ** 2) / 10 ** (self.snr_db / 10)
            h = h + np.sqrt(noise_var / 2) * (
                rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
            )
            grid = TransferFunctionGrid(
                tx_index=plan.tx_index,
                values=h,
                snapshot_times=times,
                tone_frequencies=plan.tone_frequencies,
            )
            ddio.write_grid(
                os.path.join(self.run_dir, f"h_tx{plan.tx_index}.ddg1"),
                grid,
                seed32(self.seed),
            )

    def argv(self):
        return ["analyze", "--out-dir", self.run_dir]

    def expected_outputs(self):
        return _window_outputs(self.cfg, self.windows_per_tx)

    def check_outputs(self):
        problems = []
        for path in sorted(glob.glob(os.path.join(self.run_dir, "*peaks_tx*.json"))):
            try:
                ddio.read_peaks_json(path)
            except ddio.FileFormatError as exc:
                problems.append(f"unparsable peak list: {exc}")
        if problems:
            return problems, {}
        agree = lsf_sbl_agree(self.run_dir, self.cfg)
        if agree < self.agree_floor:
            problems.append(f"lsf_sbl_agree {agree:.3g} below {self.agree_floor}")
        return problems, {"lsf_sbl_agree": agree}

    def stage_times(self, wall_s):
        return {"analyze_s": wall_s}


class Record(Workload):
    """``process`` alone on a full-length 3.2 s record (4M samples, 64 MB),
    synthesized with ``apply_channel`` on the default drive without
    reflectors (process cost does not depend on the path count) and with a
    0.1 s standstill capture.  Loads
    ``rxproc`` and the ``io`` readers with the largest array of any stage;
    bypasses ``sbl``, ``tfanalysis`` and the analyze pool."""

    name = "record"
    # one synthesis of the record takes longer than the measured command
    setup_repeats = 1
    # 0.9e-3 to 2.1e-3 over seventeen seeds.  With the default 20 ms
    # standstill the CFO error's phase drift over 3.2 s dominates h_nmse
    # (0.032 at seed 3, 0.0019 at seed 5); 0.1 s shrinks that error about
    # elevenfold, so h_nmse measures the stage.
    h_nmse_ceiling = 0.01

    def scenario(self):
        return dataclasses.replace(
            default_scenario(), reflectors=[], standstill_duration=0.1
        )

    def make_inputs(self):
        os.makedirs(self.run_dir, exist_ok=True)
        cfg, scenario, seed = self.cfg, self.scenario(), seed32(self.seed)
        ddio.save_sounder_config(os.path.join(self.run_dir, "config.ini"), cfg)
        signals = [multitone_waveform(cfg, plan) for plan in _plans(cfg)]
        rx = apply_channel(signals, scenario, cfg, seed)
        ddio.write_signal(os.path.join(self.run_dir, "rx_record.dds1"), rx, seed)
        parked = dataclasses.replace(
            scenario, tx_velocity=np.zeros(3), duration=scenario.standstill_duration
        )
        still = apply_channel(signals, parked, cfg, seed32(seed + 1))
        ddio.write_signal(os.path.join(self.run_dir, "standstill.dds1"), still, seed)

    def argv(self):
        return ["process", "--out-dir", self.run_dir]

    def expected_outputs(self):
        return [
            f"{kind}_tx{tx}.{ext}"
            for tx in range(self.cfg.tx_count)
            for kind, ext in (("h", "ddg1"), ("snr", "csv"))
        ]

    def check_outputs(self):
        quality = {"h_nmse": h_nmse(self.run_dir, self.cfg, self.scenario(), self.references)}
        problems = []
        if quality["h_nmse"] > self.h_nmse_ceiling:
            problems.append(f"h_nmse {quality['h_nmse']:.3g} above {self.h_nmse_ceiling}")
        return problems, quality

    def stage_times(self, wall_s):
        return {"process_s": wall_s}


WORKLOADS = {w.name: w for w in (DriveBy, Windows, Record)}
