"""Command-line pipeline around the library.

Stages write into a run directory and communicate only through files, so
any stage can be re-run in place::

    ddsounder plan     --out-dir run
    ddsounder simulate --out-dir run --seed 7
    ddsounder process  --out-dir run
    ddsounder analyze  --out-dir run --windows 4
    ddsounder run-all  --out-dir run --seed 7

``simulate`` writes the record and the standstill capture to disk chunk by
chunk as they are synthesized, and ``process`` reads the record back in
chunks of whole snapshots, so neither stage holds a whole record in memory.

``analyze`` runs its windows on one worker process per CPU it may run on
(``os.sched_getaffinity``), at most one per window; there is no setting for
it.  The workers are forked, so they inherit the loaded grids and modules:
a spawned or forkserver worker would import numpy and the package again,
about 0.5 s, more than the pool saves on a desk-scale run.  Threads would
share one interpreter lock through the Python-level SBL passes: on two CPUs
the 32 windows of 21 tones x 360 snapshots take 1.44 s on two threads, 0.92 s
on two forked workers and 1.75 s in one process.  Every window writes its
own files, so the output bytes do not depend on the worker count.

Exit codes: 0 success, 1 validation failure, 2 I/O error (also an analyze
worker that died, killed by a signal or the out-of-memory killer), 3
numerical failure.  ``simulate`` and ``run-all`` check that the scenario has
one beam per TX and that the standstill holds two sequence periods before
they write anything; ``run-all`` also checks the analyze flags and that the
record holds at least one window.  It rewrites ``manifest.json`` after each
stage, so a failed run's manifest lists the stages that finished.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import io as ddio
from .channel import _record_length, block_tracks, default_scenario, record_chunks
from .manifest import RunManifest
from .params import ConfigError, narrowband_config, validate_config
from .rxproc import NoSignalError, demultiplex_record, estimate_cfo, snr_per_tx
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


def _parked(scenario):
    """The standstill capture's scenario: the drive's geometry frozen at the
    trigger position for ``standstill_duration``.  The car has not moved yet,
    so the only frequency offset left in its record is the CFO."""
    return dataclasses.replace(
        scenario, tx_velocity=np.zeros(3), duration=scenario.standstill_duration
    )


def _check_scenario(cfg, scenario) -> None:
    """``ConfigError`` unless the scenario has one beam per TX and a
    standstill of the two sequence periods that the CFO estimate needs."""
    if len(scenario.tx_beams) != cfg.tx_count:
        raise ConfigError(
            f"the scenario configures {len(scenario.tx_beams)} beams for "
            f"{cfg.tx_count} TXs; it must configure one beam per TX"
        )
    if _record_length(_parked(scenario), cfg) < 2 * cfg.samples_per_period:
        raise ConfigError(
            f"sequence period {cfg.sequence_period:g} s is longer than half of "
            f"standstill_duration {scenario.standstill_duration:g} s; the CFO "
            "estimate needs two periods of the standstill"
        )


def _stage_simulate(cfg, scenario, seed: int, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    ddio.save_sounder_config(os.path.join(out_dir, _CONFIG), cfg)
    ddio.save_scenario(os.path.join(out_dir, _SCENARIO), scenario)
    outputs = [_CONFIG, _SCENARIO]

    plans, signals = _waveforms(cfg)
    record_length, chunks = record_chunks(signals, scenario, cfg, seed)
    ddio.write_signal_chunks(
        os.path.join(out_dir, _RECORD), chunks, record_length, cfg.sample_rate, seed
    )
    outputs.append(_RECORD)

    still_length, chunks = record_chunks(
        signals, _parked(scenario), cfg, _derived_seed(seed, "standstill")
    )
    ddio.write_signal_chunks(
        os.path.join(out_dir, _STILL), chunks, still_length, cfg.sample_rate, seed
    )
    outputs.append(_STILL)

    # the rays of every complete snapshot block, at its start as in the record
    q_count = record_length // cfg.samples_per_snapshot
    for tx in range(cfg.tx_count):
        name = f"truth_tx{tx}.csv"
        ddio.write_paths_csv(
            os.path.join(out_dir, name), block_tracks(scenario, cfg, q_count, tx)
        )
        outputs.append(name)
    print(f"simulated {record_length} samples, {q_count} snapshots, seed {seed}")
    return outputs


def _check_rate(name: str, rate: float, cfg) -> None:
    if not math.isclose(rate, cfg.sample_rate, rel_tol=1e-12):
        raise ConfigError(
            f"{name}: sample_rate {rate!r} S/s differs from "
            f"{_CONFIG} sample_rate {cfg.sample_rate!r} S/s"
        )


def _standstill_cfo(out_dir: str, cfg, signals) -> float:
    """CFO of the standstill record, found with the sum of the TX periods."""
    still, _ = ddio.read_signal(os.path.join(out_dir, _STILL))
    _check_rate(_STILL, still.sample_rate, cfg)
    composite = SampledSignal(
        samples=sum(sig.samples for sig in signals),
        sample_rate=cfg.sample_rate,
    )
    return estimate_cfo(still, composite)


def _stage_process(out_dir: str) -> list[str]:
    cfg = ddio.load_sounder_config(os.path.join(out_dir, _CONFIG))
    # the record is read chunk by chunk; it is never whole in memory
    with ddio.SignalReader(os.path.join(out_dir, _RECORD)) as record:
        _check_rate(_RECORD, record.sample_rate, cfg)
        plans, signals = _waveforms(cfg)
        cfo = _standstill_cfo(out_dir, cfg, signals)
        print(f"carrier frequency offset: {cfo:+.3f} Hz")
        grids, noise = demultiplex_record(record, cfg, cfo, plans)
    outputs = []
    for grid, noise_power in zip(grids, noise):
        tx = grid.tx_index
        snr = snr_per_tx(grid, noise_power)
        ddio.write_grid(os.path.join(out_dir, f"h_tx{tx}.ddg1"), grid, record.seed)
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
            "noise_var_trace": fit.noise_var_trace.tolist(),
            "residual_power_trace": fit.residual_power_trace.tolist(),
            "churn_trace": fit.churn_trace.tolist(),
        },
    )
    return [
        f"lsf_{tag}.ddg2",
        f"dsd_{tag}.csv",
        f"peaks_{tag}.json",
        f"gamma_{tag}.ddg2",
        f"sbl_peaks_{tag}.json",
    ]


# The window jobs of the running analyze stage.  They are set before its pool
# forks, so the workers inherit the grids and a task sends only an index.
_JOBS: list[tuple] = []


def _run_window(index: int) -> list[str]:
    return _analyze_window(*_JOBS[index])


def _map_windows(jobs: list[tuple]) -> tuple[list[list[str]], int]:
    """``_analyze_window(*job)`` for every job, on one forked worker per
    available CPU (at most one per job); the file names in job order, and the
    worker count.  With one worker the jobs run in this process.  The first
    window that raises cancels the windows not yet started, and its exception
    is raised once the started ones have finished.  A worker that dies
    raises ``ChildProcessError`` naming the analyze stage."""
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    _JOBS[:] = jobs
    try:
        if workers == 1:
            return list(map(_run_window, range(len(jobs)))), 1
        # imported here, so that the commands without a pool do not load it
        # (0.5 MB of peak RSS on process alone)
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, mp_context=fork)
        try:
            return list(pool.map(_run_window, range(len(jobs)))), workers
        except BrokenProcessPool as exc:
            raise ChildProcessError(
                "analyze: a window worker died (killed by a signal or the "
                f"out-of-memory killer?): {exc}"
            ) from exc
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _JOBS.clear()


def _analysis_configs(cfg, args):
    """LSF and SBL settings from the analyze flags; ``ConfigError`` names a bad flag."""
    if args.windows is not None and args.windows < 1:
        raise ConfigError(f"--windows must be at least 1, got {args.windows}")
    lsf_cfg = LSFConfig(window_length=args.window_length, tone_count=cfg.tone_count)
    return lsf_cfg, SBLConfig(iterations=args.sbl_iters, active_set_size=args.peaks)


def _stage_analyze(args) -> list[str]:
    out_dir, window_length, window_limit = args.out_dir, args.window_length, args.windows
    cfg = ddio.load_sounder_config(os.path.join(out_dir, _CONFIG))
    lsf_cfg, sbl_cfg = _analysis_configs(cfg, args)
    common = (out_dir, cfg, lsf_cfg, sbl_cfg, args.peaks)
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
        jobs += [common + (grid, seed, tx, w) for w in range(count)]

    names, workers = _map_windows(jobs)
    print(
        f"analyzed {len(jobs)} windows of {window_length} snapshots "
        f"on {workers} worker{'s' if workers > 1 else ''}"
    )
    return [name for window in names for name in window]


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
    _check_scenario(cfg, scenario)
    _stage_simulate(cfg, scenario, args.seed, args.out_dir)
    return 0


def cmd_process(args) -> int:
    _stage_process(args.out_dir)
    return 0


def cmd_analyze(args) -> int:
    _stage_analyze(args)
    return 0


def cmd_run_all(args) -> int:
    cfg, scenario = _resolve_configs(args)
    # a bad scenario, a bad analyze flag or a window longer than the record
    # fails before anything is written
    _check_scenario(cfg, scenario)
    _analysis_configs(cfg, args)
    snapshots = _record_length(scenario, cfg) // cfg.samples_per_snapshot
    if snapshots < args.window_length:
        raise ConfigError(
            f"the record has {snapshots} snapshots, "
            f"shorter than one {args.window_length}-snapshot window"
        )
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
    outputs = _stage_analyze(args)
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
