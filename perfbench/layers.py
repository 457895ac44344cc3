"""Per-layer tracing of ``ddsounder``: which calls get spans, and what they add up to.

A layer is one module of the package.  :func:`install` wraps the public
functions of each module (its ``__all__``) in every ``ddsounder`` namespace
that binds them -- ``cli`` imports most of them by name, ``sbl`` imports
``top_peaks_2d`` -- so a call is traced whichever binding it goes through.
Nothing under ``src/`` is changed.  The CLI's stage functions are wrapped
too; they mark the stage boundaries that the per-stage numbers refer to.

:func:`layer_metrics` turns the spans of one traced command into the
benchmark's ``per_layer`` metrics.  Every metric is reported on every
workload; a layer a workload bypasses reads 0.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict

from spans import busy_time, coverage, pool_utilisation, self_time, self_times, union_length

LAYER_OF_MODULE = {
    "ddsounder.channel": "channel",
    "ddsounder._kernels": "kernels",
    "ddsounder.rxproc": "rxproc",
    "ddsounder.tfanalysis": "tfanalysis",
    "ddsounder.sbl": "sbl",
    "ddsounder.io": "io",
    "ddsounder.manifest": "manifest",
    "ddsounder.waveform": "waveform",
    "ddsounder.params": "params",
}

# Evaluated once per ray inside a traced scenario_paths call: spans for them
# would multiply the span count about tenfold and add no coverage.
PER_RAY_HELPERS = {"horn_gain", "tx_position", "free_space_path_loss"}

# CLI stage boundaries (private names; a missing one is skipped and its
# metrics read 0).
CLI_SPANS = {
    "_stage_plan": "cli.plan",
    "_stage_simulate": "cli.simulate",
    "_stage_process": "cli.process",
    "_stage_analyze": "cli.analyze",
    "_analyze_window": "cli.analyze_window",
}
STAGES = ("simulate", "process", "analyze")

MB = float(1 << 20)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


WORK = {
    "kernels.synthesize_paths": lambda a, k, r: {
        "samples": int(_arg(a, k, 5, "n_samples")),
        "path_samples": int(_arg(a, k, 5, "n_samples")) * len(_arg(a, k, 2, "gains")),
    },
    "channel.scenario_paths": lambda a, k, r: {"rays": len(r.paths)},
    "rxproc.coherent_average": lambda a, k, r: {"snapshots": int(r.shape[0])},
    "sbl.sbl_fit": lambda a, k, r: {"iterations": int(r.iterations)},
    "io.atomic_write": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "data"))},
    "io.read_signal": _file_bytes,
    "io.read_grid": _file_bytes,
    "manifest.file_digest": _file_bytes,
}


def install(tracer) -> None:
    """Wrap every traced callable of the package in every namespace binding it."""
    importlib.import_module("ddsounder.cli")
    targets = {}
    for module_name, layer in LAYER_OF_MODULE.items():
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isroutine(obj) and name not in PER_RAY_HELPERS:
                targets[id(obj)] = (obj, f"{layer}.{name}")
    cli = sys.modules["ddsounder.cli"]
    for attr, span_name in CLI_SPANS.items():
        if hasattr(cli, attr):
            targets[id(getattr(cli, attr))] = (getattr(cli, attr), span_name)

    wrappers = {
        key: tracer.wrap(obj, name, WORK.get(name)) for key, (obj, name) in targets.items()
    }
    namespaces = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "ddsounder" or n.startswith("ddsounder."))
    ]
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            if id(value) in targets and value is targets[id(value)][0]:
                setattr(module, attr, wrappers[id(value)])


# name, unit, better
PER_LAYER = [
    ("channel.scenario_paths.calls", "count", "lower"),
    ("channel.scenario_paths.busy_s", "s", "lower"),
    ("channel.rays_per_s", "1/s", "higher"),
    ("channel.apply_channel.self_s", "s", "lower"),
    ("kernels.synthesize_paths.calls", "count", "lower"),
    ("kernels.synthesize_paths.busy_s", "s", "lower"),
    ("kernels.msamples_per_s", "Msamples/s", "higher"),
    ("kernels.path_samples", "count", "lower"),
    ("rxproc.estimate_cfo.busy_s", "s", "lower"),
    ("rxproc.coherent_average.busy_s", "s", "lower"),
    ("rxproc.coherent_average.snapshots_per_s", "1/s", "higher"),
    ("rxproc.demultiplex.busy_s", "s", "lower"),
    ("rxproc.noise_power_estimate.busy_s", "s", "lower"),
    ("tfanalysis.lsf_estimate.calls", "count", "lower"),
    ("tfanalysis.lsf_estimate.busy_s", "s", "lower"),
    ("tfanalysis.top_peaks_2d.calls", "count", "lower"),
    ("tfanalysis.top_peaks_2d.busy_s", "s", "lower"),
    ("sbl.sbl_fit.calls", "count", "lower"),
    ("sbl.sbl_fit.self_s", "s", "lower"),
    ("sbl.ms_per_iteration", "ms", "lower"),
    ("sbl.peak_select_2d.busy_s", "s", "lower"),
    ("io.write.files", "count", "lower"),
    ("io.write.mb", "MB", "lower"),
    ("io.write.busy_s", "s", "lower"),
    ("io.read.mb", "MB", "lower"),
    ("io.read.busy_s", "s", "lower"),
    ("io.write_paths_csv.self_s", "s", "lower"),
    ("manifest.file_digest.calls", "count", "lower"),
    ("manifest.hash_mb", "MB", "lower"),
    ("manifest.file_digest.busy_s", "s", "lower"),
    *(
        (f"cli.{stage}.{what}", "s", "lower")
        for stage in STAGES
        for what in ("wall_s", "uncovered_s")
    ),
    ("cli.analyze.pool_utilisation", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_metrics(spans, main_start, main_end, workers, untraced_wall) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``main_start``/``main_end`` bound the traced ``main()`` call, ``workers``
    is the analyze pool size and ``untraced_wall`` the wall time of the same
    command run without tracing.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    layer_spans = [s for s in spans if not s.name.startswith("cli.")]
    selfs = self_times(spans)

    def calls(name):
        return float(len(by_name[name]))

    def busy(*names):
        return busy_time(spans, names)

    def total(name, key):
        return float(sum(s.work[key] for s in by_name[name] if s.work))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {
        "channel.scenario_paths.calls": calls("channel.scenario_paths"),
        "channel.scenario_paths.busy_s": busy("channel.scenario_paths"),
        "channel.rays_per_s": rate(
            total("channel.scenario_paths", "rays"), busy("channel.scenario_paths")
        ),
        "channel.apply_channel.self_s": self_time(spans, "channel.apply_channel", selfs),
        "kernels.synthesize_paths.calls": calls("kernels.synthesize_paths"),
        "kernels.synthesize_paths.busy_s": busy("kernels.synthesize_paths"),
        "kernels.msamples_per_s": rate(
            total("kernels.synthesize_paths", "samples") / 1e6,
            busy("kernels.synthesize_paths"),
        ),
        "kernels.path_samples": total("kernels.synthesize_paths", "path_samples"),
        "rxproc.coherent_average.snapshots_per_s": rate(
            total("rxproc.coherent_average", "snapshots"), busy("rxproc.coherent_average")
        ),
        "tfanalysis.lsf_estimate.calls": calls("tfanalysis.lsf_estimate"),
        "tfanalysis.top_peaks_2d.calls": calls("tfanalysis.top_peaks_2d"),
        "sbl.sbl_fit.calls": calls("sbl.sbl_fit"),
        "sbl.sbl_fit.self_s": self_time(spans, "sbl.sbl_fit", selfs),
        "sbl.ms_per_iteration": 1e3 * rate(
            busy("sbl.sbl_fit"), total("sbl.sbl_fit", "iterations")
        ),
        "io.write.files": calls("io.atomic_write"),
        "io.write.mb": total("io.atomic_write", "bytes") / MB,
        "io.write.busy_s": busy("io.atomic_write"),
        "io.read.mb": (total("io.read_signal", "bytes") + total("io.read_grid", "bytes")) / MB,
        "io.read.busy_s": busy("io.read_signal", "io.read_grid"),
        "io.write_paths_csv.self_s": self_time(spans, "io.write_paths_csv", selfs),
        "manifest.file_digest.calls": calls("manifest.file_digest"),
        "manifest.hash_mb": total("manifest.file_digest", "bytes") / MB,
        "trace.coverage": coverage(layer_spans, main_start, main_end),
        "trace.overhead_ratio": (main_end - main_start) / untraced_wall - 1.0,
    }
    for name in (
        "rxproc.estimate_cfo",
        "rxproc.coherent_average",
        "rxproc.demultiplex",
        "rxproc.noise_power_estimate",
        "tfanalysis.lsf_estimate",
        "tfanalysis.top_peaks_2d",
        "sbl.peak_select_2d",
        "manifest.file_digest",
    ):
        m[f"{name}.busy_s"] = busy(name)

    for stage in STAGES:
        runs = by_name[f"cli.{stage}"]
        wall = float(sum(s.duration for s in runs))
        covered = sum(
            union_length(((s.start, s.end) for s in layer_spans), r.start, r.end)
            for r in runs
        )
        m[f"cli.{stage}.wall_s"] = wall
        m[f"cli.{stage}.uncovered_s"] = wall - covered
    analyze = by_name["cli.analyze"]
    m["cli.analyze.pool_utilisation"] = (
        pool_utilisation(by_name["cli.analyze_window"], analyze[0].start, analyze[0].end, workers)
        if analyze
        else 0.0
    )
    return {name: m[name] for name, _, _ in PER_LAYER}
