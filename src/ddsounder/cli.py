"""Command-line pipeline around the library.

Stages write into a run directory and communicate only through files, so
any stage can be re-run in place::

    ddsounder plan     --out-dir run
    ddsounder simulate --out-dir run --seed 7
    ddsounder process  --out-dir run
    ddsounder analyze  --out-dir run --windows 4
    ddsounder run-all  --out-dir run --seed 7

Exit codes: 0 success, 1 validation failure, 2 I/O error, 3 numerical
failure.  ``run-all`` rewrites ``manifest.json`` after each stage, so a
failed run's manifest lists the stages that finished.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from . import io as ddio
from .channel import apply_channel, default_scenario, path_sets
from .manifest import RunManifest
from .params import ConfigError, narrowband_config, validate_config
from .rxproc import (
    NoSignalError,
    coherent_average,
    demultiplex,
    estimate_cfo,
    noise_power_estimate,
    snr_per_tx,
)
from .sbl import SBLConfig, sbl_fit
from .tfanalysis import LSFConfig, dsd, lsf_estimate, top_peaks_2d
from .waveform import SampledSignal, multitone_waveform, tone_plan

_CONFIG = "config.ini"
_SCENARIO = "scenario.ini"
_REPORT = "validation.txt"
_RECORD = "rx_record.dds1"
_STILL = "standstill.dds1"
_MANIFEST = "manifest.json"


def _derived_seed(seed: int, label: str) -> int:
    """Independent 32-bit stream key for a named sub-record of a run."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _resolve_configs(args):
    cfg = (
        ddio.load_sounder_config(args.config)
        if args.config
        else narrowband_config()
    )
    scenario = (
        ddio.load_scenario(args.scenario)
        if getattr(args, "scenario", None)
        else default_scenario()
    )
    return cfg, scenario


def _waveforms(cfg):
    plans = [tone_plan(cfg, tx) for tx in range(cfg.tx_count)]
    return plans, [multitone_waveform(cfg, plan) for plan in plans]


# -- stages -------------------------------------------------------------------


def _stage_plan(cfg, out_dir: str | None) -> tuple[bool, list[str]]:
    report = validate_config(cfg)
    text = report.to_text()
    sys.stdout.write(text)
    outputs = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ddio.atomic_write(os.path.join(out_dir, _REPORT), text.encode("ascii"))
        outputs.append(_REPORT)
    return report.passed, outputs


def _stage_simulate(cfg, scenario, seed: int, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    ddio.save_sounder_config(os.path.join(out_dir, _CONFIG), cfg)
    ddio.save_scenario(os.path.join(out_dir, _SCENARIO), scenario)
    outputs = [_CONFIG, _SCENARIO]

    plans, signals = _waveforms(cfg)
    rx = apply_channel(signals, scenario, cfg, seed)
    ddio.write_signal(os.path.join(out_dir, _RECORD), rx, seed)
    outputs.append(_RECORD)

    # Same geometry frozen at the trigger position: the car has not moved
    # yet, so the only frequency offset left in this record is the CFO.
    parked = dataclasses.replace(
        scenario,
        tx_velocity=np.zeros(3),
        duration=scenario.standstill_duration,
    )
    still = apply_channel(signals, parked, cfg, _derived_seed(seed, "standstill"))
    ddio.write_signal(os.path.join(out_dir, _STILL), still, seed)
    outputs.append(_STILL)

    # the rays of every complete snapshot block, at its start as in the record
    block = cfg.samples_per_snapshot
    q_count = rx.samples.size // block
    block_starts = np.arange(q_count) * block / cfg.sample_rate
    for tx in range(cfg.tx_count):
        name = f"truth_tx{tx}.csv"
        ddio.write_paths_csv(
            os.path.join(out_dir, name), path_sets(scenario, cfg, block_starts, tx)
        )
        outputs.append(name)
    print(f"simulated {rx.samples.size} samples, {q_count} snapshots, seed {seed}")
    return outputs


def _stage_process(out_dir: str) -> list[str]:
    cfg = ddio.load_sounder_config(os.path.join(out_dir, _CONFIG))
    rx, seed = ddio.read_signal(os.path.join(out_dir, _RECORD))
    still, _ = ddio.read_signal(os.path.join(out_dir, _STILL))
    plans, signals = _waveforms(cfg)
    composite = SampledSignal(
        samples=sum(sig.samples for sig in signals),
        sample_rate=cfg.sample_rate,
    )
    cfo = estimate_cfo(still, composite)
    print(f"carrier frequency offset: {cfo:+.3f} Hz")
    outputs = []
    for tx in range(cfg.tx_count):
        averaged = coherent_average(rx, cfg, cfo, tx)
        noise = noise_power_estimate(averaged, cfg)
        grid = demultiplex(averaged, cfg, plans[tx], t0=rx.t0)
        snr = snr_per_tx(grid, noise)
        ddio.write_grid(os.path.join(out_dir, f"h_tx{tx}.ddg1"), grid, seed)
        ddio.write_snr_csv(
            os.path.join(out_dir, f"snr_tx{tx}.csv"), grid.snapshot_times, snr
        )
        outputs += [f"h_tx{tx}.ddg1", f"snr_tx{tx}.csv"]
        print(
            f"tx{tx}: {grid.values.shape[0]} snapshots, "
            f"median SNR {np.median(snr):.1f} dB"
        )
    return outputs


def _analyze_window(out_dir, cfg, lsf_cfg, sbl_cfg, peak_count, grid, seed, tx, w):
    m = lsf_cfg.window_length
    window = grid.values[w * m : (w + 1) * m].T.copy()
    start = float(grid.snapshot_times[w * m])
    tag = f"tx{tx}_w{w:03d}"

    surface = lsf_estimate(
        window, lsf_cfg, cfg.tone_spacing, cfg.snapshot_time, start
    )
    ddio.write_surface(os.path.join(out_dir, f"lsf_{tag}.ddg2"), surface, seed)
    ddio.write_dsd_csv(
        os.path.join(out_dir, f"dsd_{tag}.csv"), surface.doppler_axis, dsd(surface)
    )
    peaks = top_peaks_2d(surface, peak_count)
    ddio.write_peaks_json(
        os.path.join(out_dir, f"peaks_{tag}.json"),
        peaks,
        start,
        extra={"seed": seed, "source": "lsf"},
    )

    fit = sbl_fit(window, cfg.tone_spacing, cfg.snapshot_time, sbl_cfg, start)
    ddio.write_surface(os.path.join(out_dir, f"gamma_{tag}.ddg2"), fit.gamma, seed)
    ddio.write_peaks_json(
        os.path.join(out_dir, f"sbl_peaks_{tag}.json"),
        fit.peaks,
        start,
        extra={
            "seed": seed,
            "source": "sbl",
            "noise_var": fit.noise_var,
            "residual_power": fit.residual_power,
        },
    )
    return [
        f"lsf_{tag}.ddg2",
        f"dsd_{tag}.csv",
        f"peaks_{tag}.json",
        f"gamma_{tag}.ddg2",
        f"sbl_peaks_{tag}.json",
    ]


def _stage_analyze(
    out_dir: str,
    window_length: int,
    window_limit: int | None,
    sbl_iterations: int,
    peak_count: int,
) -> list[str]:
    cfg = ddio.load_sounder_config(os.path.join(out_dir, _CONFIG))
    lsf_cfg = LSFConfig(window_length=window_length, tone_count=cfg.tone_count)
    sbl_cfg = SBLConfig(iterations=sbl_iterations, active_set_size=peak_count)
    jobs = []
    for tx in range(cfg.tx_count):
        grid, seed = ddio.read_grid(os.path.join(out_dir, f"h_tx{tx}.ddg1"))
        count = grid.values.shape[0] // window_length
        if count == 0:
            raise ConfigError(
                f"h_tx{tx}.ddg1 has {grid.values.shape[0]} snapshots, "
                f"shorter than one {window_length}-snapshot window"
            )
        if window_limit is not None:
            count = min(count, window_limit)
        jobs += [(grid, seed, tx, w) for w in range(count)]

    outputs: list[str] = []
    for job in jobs:
        outputs += _analyze_window(out_dir, cfg, lsf_cfg, sbl_cfg, peak_count, *job)
    print(f"analyzed {len(jobs)} windows of {window_length} snapshots")
    return outputs


# -- subcommands ---------------------------------------------------------------


def cmd_plan(args) -> int:
    cfg, _ = _resolve_configs(args)
    passed, _ = _stage_plan(cfg, args.out_dir)
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    cfg, scenario = _resolve_configs(args)
    report = validate_config(cfg)
    if not report.passed:
        sys.stderr.write(report.to_text())
        return 1
    _stage_simulate(cfg, scenario, args.seed, args.out_dir)
    return 0


def cmd_process(args) -> int:
    _stage_process(args.out_dir)
    return 0


def cmd_analyze(args) -> int:
    _stage_analyze(
        args.out_dir, args.window_length, args.windows, args.sbl_iters, args.peaks
    )
    return 0


def cmd_run_all(args) -> int:
    cfg, scenario = _resolve_configs(args)
    out_dir = args.out_dir
    manifest = RunManifest(
        seed=args.seed,
        version=f"v{__version__}",
        config_paths=[_CONFIG, _SCENARIO],
    )

    def finish(name, inputs, outputs, start):
        manifest.add_stage(name, inputs, outputs, time.perf_counter() - start, out_dir)
        manifest.save(os.path.join(out_dir, _MANIFEST))

    start = time.perf_counter()
    passed, outputs = _stage_plan(cfg, out_dir)
    finish("plan", [], outputs, start)
    if not passed:
        return 1

    start = time.perf_counter()
    outputs = _stage_simulate(cfg, scenario, args.seed, out_dir)
    finish("simulate", [], outputs, start)

    start = time.perf_counter()
    outputs = _stage_process(out_dir)
    finish("process", [_CONFIG, _RECORD, _STILL], outputs, start)

    start = time.perf_counter()
    grids = [f"h_tx{tx}.ddg1" for tx in range(cfg.tx_count)]
    outputs = _stage_analyze(
        out_dir, args.window_length, args.windows, args.sbl_iters, args.peaks
    )
    finish("analyze", [_CONFIG] + grids, outputs, start)
    print(f"run complete: {out_dir}/{_MANIFEST}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddsounder",
        description="Multitone drive-by channel sounding pipeline.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flag(p):
        p.add_argument(
            "--config",
            help="sounder INI ([sounder] section); default: built-in narrowband "
            "desk-scale design",
        )

    def analyze_flags(p):
        p.add_argument(
            "--windows", type=int, help="analyze at most this many windows per TX"
        )
        p.add_argument(
            "--window-length",
            type=int,
            default=360,
            help="snapshots per evaluation window (default 360)",
        )
        p.add_argument(
            "--sbl-iters", type=int, default=10, help="fixed-point iterations"
        )
        p.add_argument(
            "--peaks", type=int, default=10, help="peaks kept per window and method"
        )

    p = sub.add_parser("plan", help="validate a design and report derived values")
    config_flag(p)
    p.add_argument("--out-dir", help="also write validation.txt here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="synthesize a drive-by RX record")
    config_flag(p)
    p.add_argument("--scenario", help="scenario INI ([scenario] section)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("process", help="sync, average, and demultiplex a record")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("analyze", help="per-window LSF, DSD, and sparse fits")
    p.add_argument("--out-dir", required=True)
    analyze_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run-all", help="full pipeline plus manifest")
    config_flag(p)
    p.add_argument("--scenario")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out-dir", required=True)
    analyze_flags(p)
    p.set_defaults(func=cmd_run_all)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ddio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NoSignalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
