"""Command-line pipeline around the library.

Stages write into a run directory and communicate only through files, so
any stage can be re-run in place::

    ddsounder plan     --out-dir run
    ddsounder simulate --out-dir run --seed 7
    ddsounder process  --out-dir run
    ddsounder analyze  --out-dir run --windows 4
    ddsounder run-all  --out-dir run --seed 7

``simulate`` and ``analyze`` run their jobs on one worker process per CPU
they may run on (``os.sched_getaffinity``), at most one per job; there is no
setting for it.  Simulate's jobs are the geometry groups of its two records,
the drive and the standstill, and one truth table per TX: each record's file
is made at full size before the workers start, each group is written in place
at its offset, and simulate reads each file's groups back in order to hash
them for the manifest.  Analyze's jobs are its windows.  The workers are
forked, so they inherit the loaded modules and the stage's data: a spawned
or forkserver worker would import numpy and the package again, about 0.5 s,
more than the pool saves on a desk-scale run.  Each worker runs OpenBLAS on
one thread (``_one_blas_thread``).  Threads would share one interpreter lock
through the Python-level SBL passes: on two CPUs the 32 windows of 21 tones
x 360 snapshots take 1.44 s on two threads, 0.92 s on two forked workers and
1.75 s in one process.  Every job writes its own bytes, and a group's bytes
depend only on its first block, so the output bytes do not depend on the
worker count.

Neither simulate nor process holds a whole record in memory: a simulate
job makes its group chunk by chunk, and ``process`` reads the record back
in chunks of whole snapshots.

Exit codes: 0 success, 1 validation failure, 2 I/O error (also a simulate
or analyze worker that died, killed by a signal or the out-of-memory
killer), 3 numerical failure.  ``simulate`` and ``run-all`` check that the
scenario has one beam per TX, that the standstill holds 20 sequence periods
and that the car drives no faster than the design's ``max_speed`` before
they write anything; ``run-all`` also checks the analyze flags and that the
record holds at least one window.  It rewrites ``manifest.json`` after each
stage, so a failed run's manifest lists the stages that finished.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from . import io as ddio
from .channel import _RecordGroups, _record_length, block_tracks, default_scenario
from .manifest import RunManifest
from .params import LSF_TIME_BANDWIDTH, ConfigError, dpss_fits, narrowband_config, validate_config
from .rxproc import (
    NoSignalError,
    _check_rate,
    demultiplex_record,
    estimate_cfo,
    snr_per_tx,
)
from .sbl import SBLConfig, sbl_fit
from .tfanalysis import dsd, lsf_estimate, top_peaks_2d
from .waveform import multitone_waveform, tone_plan

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


# The fewest sequence periods a standstill must hold.  estimate_cfo is exact
# on a noise-free capture of two, but on noise its periodic share falls only
# slowly with the period count: of 200 desk-scale captures of white noise
# alone (numpy seeds 0-199) it accepts 178 at 2 periods, 164 at 4, 15 at 10
# and none at 16 or 20.  Fewer periods would let process derotate the drive
# by a CFO read from noise.
_MIN_STANDSTILL_PERIODS = 20


def _check_scenario(cfg, scenario) -> None:
    """``ConfigError`` unless the scenario has one beam per TX, a standstill
    of at least ``_MIN_STANDSTILL_PERIODS`` sequence periods (the CFO
    estimate compares the standstill's periods with each other) and a speed
    of at most ``cfg.max_speed``.  The speed is compared, not its Doppler:
    14 m/s at 60.15 GHz is 2,808.9 Hz, above the rounded 2,800 Hz that the
    desk and full designs store as ``max_doppler``."""
    if len(scenario.tx_beams) != cfg.tx_count:
        raise ConfigError(
            f"the scenario configures {len(scenario.tx_beams)} beams for "
            f"{cfg.tx_count} TXs; it must configure one beam per TX"
        )
    periods = _record_length(_parked(scenario), cfg) / cfg.samples_per_period
    if periods < _MIN_STANDSTILL_PERIODS:
        raise ConfigError(
            f"standstill_duration {scenario.standstill_duration:g} s holds "
            f"{periods:.1f} periods of the sequence period "
            f"{cfg.sequence_period:g} s; the CFO estimate needs at least "
            f"{_MIN_STANDSTILL_PERIODS} to tell the standstill's signal from noise"
        )
    speed = float(np.linalg.norm(scenario.tx_velocity))
    if speed > cfg.max_speed:
        raise ConfigError(
            f"the scenario drives at {speed:g} m/s, faster than the design's "
            f"max_speed of {cfg.max_speed:g} m/s; its Doppler may alias"
        )


def _write_group(samples, record, first: int) -> tuple[int, int]:
    """Write the record's geometry group from block ``first`` into its place
    in ``samples``; its first sample and its sample count."""
    start = sample = first * record.cfg.samples_per_snapshot
    for rx in record.chunks(first):
        samples.write(sample, rx)
        sample += rx.size
    return start, sample - start


def _write_truth(out_dir: str, scenario, cfg, q_count: int, tx: int) -> None:
    """The rays of every complete snapshot block, at its start as in the record."""
    ddio.write_paths_csv(
        os.path.join(out_dir, f"truth_tx{tx}.csv"), block_tracks(scenario, cfg, q_count, tx)
    )


def _stage_simulate(cfg, scenario, seed: int, out_dir: str) -> tuple[list[str], dict[str, str]]:
    """Write the record, the standstill and the truth tables; the files
    written, and the digests of those hashed as they were written."""
    os.makedirs(out_dir, exist_ok=True)
    ddio.save_sounder_config(os.path.join(out_dir, _CONFIG), cfg)
    ddio.save_scenario(os.path.join(out_dir, _SCENARIO), scenario)

    _, signals = _waveforms(cfg)
    record = _RecordGroups(signals, scenario, cfg, seed)
    still = _RecordGroups(signals, _parked(scenario), cfg, _derived_seed(seed, "standstill"))
    q_count = record.length // cfg.samples_per_snapshot
    truth = [f"truth_tx{tx}.csv" for tx in range(cfg.tx_count)]
    # both records carry the run's seed in their headers
    with (
        ddio._signal_in_place(
            os.path.join(out_dir, _RECORD), record.length, cfg.sample_rate, seed
        ) as samples,
        ddio._signal_in_place(
            os.path.join(out_dir, _STILL), still.length, cfg.sample_rate, seed
        ) as still_samples,
    ):
        # longest first: a truth table covers the whole drive (0.2-0.3 s
        # each on the 3.2 s desk drive), a group at most 0.1 s
        jobs = [(_write_truth, out_dir, scenario, cfg, q_count, tx) for tx in range(cfg.tx_count)]
        jobs += [(_write_group, still_samples, still, first) for first in still.groups]
        jobs += [(_write_group, samples, record, first) for first in record.groups]
        with _fork_map("simulate", out_dir, jobs) as (results, workers):
            # the results come back in job order, so each file's groups in
            # its own order, and each group is hashed into its file's digest
            for (_, into, *_), result in zip(jobs, results):
                if result is not None:
                    into.read_back(*result)
    print(
        f"simulated {record.length} samples, {q_count} snapshots, seed {seed}, "
        f"on {workers} worker{'s' if workers > 1 else ''}"
    )
    digests = {_RECORD: samples.digest, _STILL: still_samples.digest}
    return [_CONFIG, _SCENARIO, _RECORD, _STILL, *truth], digests


def _standstill_cfo(out_dir: str, cfg) -> float:
    """CFO of the standstill record."""
    still, _ = ddio.read_signal(os.path.join(out_dir, _STILL))
    _check_rate(still.sample_rate, cfg, _STILL)
    return estimate_cfo(still, cfg)


def _stage_process(out_dir: str) -> list[str]:
    cfg = ddio.load_sounder_config(os.path.join(out_dir, _CONFIG))
    # the record is read chunk by chunk; it is never whole in memory
    with ddio.SignalReader(os.path.join(out_dir, _RECORD)) as record:
        _check_rate(record.sample_rate, cfg, _RECORD)
        cfo = _standstill_cfo(out_dir, cfg)
        print(f"carrier frequency offset: {cfo:+.3f} Hz")
        grids, noise_power = demultiplex_record(record, cfg, cfo)
    outputs = []
    for grid in grids:
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


def _analyze_window(out_dir, cfg, m, sbl_cfg, grid, seed, tx, w):
    """LSF, DSD and SBL fit of window ``w`` of ``m`` snapshots of TX ``tx``;
    both peak lists keep ``sbl_cfg.active_set_size`` peaks."""
    window = grid.values[w * m : (w + 1) * m].T.copy()
    start = float(grid.snapshot_times[w * m])
    tag = f"tx{tx}_w{w:03d}"

    surface = lsf_estimate(window, cfg.tone_spacing, cfg.snapshot_time, start)
    ddio.write_surface(os.path.join(out_dir, f"lsf_{tag}.ddg2"), surface, seed)
    ddio.write_dsd_csv(
        os.path.join(out_dir, f"dsd_{tag}.csv"), surface.doppler_axis, dsd(surface)
    )
    peaks = top_peaks_2d(surface, sbl_cfg.active_set_size)
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


# The jobs of the running pooled stage, each a function and its arguments.
# They are set before the pool forks, so the workers inherit their data and
# a task sends only an index.
_JOBS: list[tuple] = []


def _run_job(index: int):
    function, *args = _JOBS[index]
    return function(*args)


def _one_blas_thread() -> None:
    """Run every OpenBLAS loaded in this process on one thread; the
    initializer of each pool worker.  Where ``/proc/self/maps`` or the
    OpenBLAS entry points are missing, nothing changes.

    The pool already runs one worker per CPU, and OpenBLAS's own threads on
    top of it thrash: on a 0.2 s drive of the 100 MHz design, simulate took
    5.2-5.8 s on two workers of two OpenBLAS threads each, 3.5-4.4 s in one
    process and 2.1-2.9 s on two workers of one thread.  Setting the count
    restarts the thread pool that the fork shut down, and its idle thread
    then spins for about 0.1 s of CPU, so the pool is shut down again."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        libraries = [ctypes.CDLL(path) for path in paths if path.startswith("/")]
    except OSError:
        return
    for library in libraries:
        setters = [
            getattr(library, name)
            for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_", "openblas_set_num_threads")
            if hasattr(library, name)
        ]
        if setters and hasattr(library, "blas_thread_shutdown_"):
            setters[0].argtypes, setters[0].restype = [ctypes.c_int], None
            setters[0](1)
            library.blas_thread_shutdown_.argtypes = []
            library.blas_thread_shutdown_.restype = ctypes.c_int
            library.blas_thread_shutdown_()


@contextlib.contextmanager
def _fork_map(stage: str, out_dir: str, jobs: list[tuple]):
    """``function(*args)`` for every job ``(function, *args)``, on one forked
    worker per available CPU (at most one per job), each on one OpenBLAS
    thread.  Yields an iterator over
    the results in job order, and the worker count.  With one worker the
    jobs run in this process as the iterator is taken.  The first job that
    raises cancels the jobs not yet started, and its exception is raised
    once the started ones have finished.  A worker that dies raises
    ``ChildProcessError`` naming ``stage``, once the temp files left in
    ``out_dir`` are removed."""
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    _JOBS[:] = jobs
    try:
        if workers == 1:
            yield map(_run_job, range(len(jobs))), 1
            return
        # imported here, so that the commands without a pool do not load it
        # (0.5 MB of peak RSS on process alone)
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread)
        try:
            yield pool.map(_run_job, range(len(jobs))), workers
            return
        except BrokenProcessPool as exc:
            broken = exc
        finally:
            pool.shutdown(cancel_futures=True)
        # a broken pool terminates its other workers wherever they are, maybe
        # inside io.atomic_write; now none is alive, and this process writes
        # nothing in the run directory meanwhile, so every temp file there is
        # theirs or the one this process drops on failure (simulate's record)
        for name in os.listdir(out_dir):
            if name.rpartition(".tmp.")[2].isdigit():
                os.unlink(os.path.join(out_dir, name))
        raise ChildProcessError(
            f"{stage}: a worker died (killed by a signal or the "
            f"out-of-memory killer?): {broken}"
        ) from broken
    finally:
        _JOBS.clear()


def _analysis_configs(args) -> SBLConfig:
    """SBL settings from the analyze flags, once ``--windows`` and
    ``--window-length`` are checked; ``ConfigError`` names a bad flag."""
    if args.windows is not None and args.windows < 1:
        raise ConfigError(f"--windows must be at least 1, got {args.windows}")
    if not dpss_fits(args.window_length, LSF_TIME_BANDWIDTH):
        raise ConfigError(
            f"window_length = {args.window_length} must exceed 2*time_bandwidth = "
            f"{2 * LSF_TIME_BANDWIDTH:g} for the Slepian tapers"
        )
    return SBLConfig(iterations=args.sbl_iters, active_set_size=args.peaks)


def _stage_analyze(args) -> list[str]:
    out_dir, window_length, window_limit = args.out_dir, args.window_length, args.windows
    cfg = ddio.load_sounder_config(os.path.join(out_dir, _CONFIG))
    common = (out_dir, cfg, window_length, _analysis_configs(args))
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
        jobs += [(_analyze_window, *common, grid, seed, tx, w) for w in range(count)]

    with _fork_map("analyze", out_dir, jobs) as (results, workers):
        names = list(results)
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
    _analysis_configs(args)
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

    def finish(name, inputs, outputs, start, digests=None):
        wall = time.perf_counter() - start
        manifest.add_stage(name, inputs, outputs, wall, out_dir, digests)
        manifest.save(os.path.join(out_dir, _MANIFEST))

    start = time.perf_counter()
    passed, outputs = _stage_plan(cfg, out_dir)
    finish("plan", [], outputs, start)
    if not passed:
        return 1

    start = time.perf_counter()
    outputs, digests = _stage_simulate(cfg, scenario, args.seed, out_dir)
    finish("simulate", [], outputs, start, digests)

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
