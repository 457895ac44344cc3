"""Pipeline benchmark of ddsounder: three workloads through the real CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload driveby --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Each run sets up the workload's inputs from ``--seed`` (repeated, in fresh
interpreters, for ``setup_s``), then runs the workload's CLI command through
``ddsounder.cli.main`` in a fresh interpreter per repetition until
``--seconds`` have passed (at least once), and checks every repetition's
outputs.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the command runs once
untraced and once traced, and the JSON object carries the per-layer metrics
of the traced run.  Lines before it are a readable report.  The full record
(context, every repetition, spans of the traced run) is written under
``.perfbench/results/``; inputs and outputs live in ``.perfbench/work/``
and are removed when the run ends.

See ``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import layers
from spans import Span

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# relative to the checkout root
RESULTS_DIR = os.path.join(".perfbench", "results")
WORK_DIR = os.path.join(".perfbench", "work")

# A run must end within 180 s; leave room for set-up, checks and start-up.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
]
# printed in the report only: each exists on some workloads
REPORTED_UNITS = {
    "simulate_s": "s",
    "process_s": "s",
    "analyze_s": "s",
    "h_nmse": "ratio",
    "lsf_sbl_agree": "ratio",
    "dsd_argmax_hz": "Hz",
}


class SetupError(RuntimeError):
    """A workload's inputs could not be made; no measurement is possible."""


def machine_context(root: str) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Attempt:
    """One timed command: the child's result, problems found and quality values."""

    def __init__(self, result, problems, quality=None, stages=None):
        self.result = result
        self.problems = problems
        self.quality = quality or {}
        self.stages = stages or {}

    @property
    def ok(self):
        return not self.problems

    def to_json(self):
        return {
            "ok": self.ok,
            "problems": self.problems,
            "quality": self.quality,
            "stages": self.stages,
            **{k: self.result[k] for k in ("rc", "wall_s", "peak_rss_mb")
               if self.result is not None},
        }


class Runner:
    def __init__(self, root, workload_cls, seed):
        self.root = root
        self.seed = seed
        self.work_dir = os.path.join(
            root, WORK_DIR, f"{workload_cls.name}-{seed}-{os.getpid()}"
        )
        self.results_dir = os.path.join(root, RESULTS_DIR)
        self.workload = workload_cls(os.path.join(self.work_dir, "run"), seed)
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env.pop("DDS_THREADS", None)
        if workload_cls.dds_threads is not None:
            env["DDS_THREADS"] = str(workload_cls.dds_threads)
        self.env = env
        self.context = None
        # time spent in timed processes, start-up and exit included
        self.measured_s = 0.0

    def child(self, *args):
        """Run ``child.py`` to completion; None if it overran its timeout."""
        try:
            return subprocess.run(
                [sys.executable, CHILD, *args], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None

    def setup(self) -> list[float]:
        os.makedirs(self.work_dir, exist_ok=True)
        times = []
        for _ in range(self.workload.setup_repeats):
            start = time.perf_counter()
            proc = self.child("setup", self.workload.name, str(self.seed), self.workload.run_dir)
            times.append(time.perf_counter() - start)
            if proc is None or proc.returncode != 0:
                detail = "timed out" if proc is None else proc.stderr[-2000:]
                raise SetupError(f"{self.workload.name} set-up failed: {detail}")
        return times

    def attempt(self, trace: bool, spans_path: str | None = None) -> Attempt:
        wl = self.workload
        wl.clear_outputs()
        result_path = os.path.join(self.work_dir, "result.json")
        spec_path = os.path.join(self.work_dir, "spec.json")
        if os.path.exists(result_path):
            os.unlink(result_path)
        with open(spec_path, "w") as fh:
            json.dump(
                {"argv": wl.argv(), "trace": trace, "result": result_path, "spans": spans_path},
                fh,
            )
        start = time.monotonic()
        proc = self.child("timed", spec_path)
        self.measured_s += time.monotonic() - start
        if proc is None:
            return Attempt(None, [f"timed command exceeded {CHILD_TIMEOUT_S:.0f} s"])
        if proc.returncode != 0 or not os.path.exists(result_path):
            return Attempt(None, [f"timing process exited {proc.returncode}: {proc.stderr[-2000:]}"])
        with open(result_path) as fh:
            result = json.load(fh)
        self.context = self.context or result["context"]
        if result["rc"] != 0:
            detail = result["error"] or proc.stderr[-2000:]
            return Attempt(result, [f"exit code {result['rc']}: {detail}"])
        try:
            problems, quality = wl.check()
            stages = wl.stage_times(result["wall_s"]) if not problems else {}
        except Exception:  # a check that cannot read the outputs is a failed run
            return Attempt(result, [f"output check raised: {traceback.format_exc()}"])
        return Attempt(result, problems, quality, stages)


def run_workload(root, workload_cls, seed, seconds, trace) -> dict:
    runner = Runner(root, workload_cls, seed)
    began = time.monotonic()
    try:
        setup_times = runner.setup()
        per_layer = None
        spans_path = None
        if trace:
            os.makedirs(runner.results_dir, exist_ok=True)
            spans_path = os.path.join(
                runner.results_dir, f"{workload_cls.name}-seed{seed}.spans.json"
            )
            untraced = runner.attempt(False)
            traced = runner.attempt(True, spans_path)
            attempts = [untraced, traced]
            if untraced.result and traced.result and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    spans = [Span(*row) for row in json.load(fh)]
                per_layer = layers.layer_metrics(
                    spans,
                    traced.result["main_start"],
                    traced.result["main_end"],
                    workload_cls.dds_threads or 1,
                    untraced.result["wall_s"],
                )
        else:
            attempts = []
            while runner.measured_s < seconds:
                before = runner.measured_s
                attempts.append(runner.attempt(False))
                if time.monotonic() - began + runner.measured_s - before > RUN_BUDGET_S:
                    break
    finally:
        shutil.rmtree(runner.work_dir, ignore_errors=True)

    timed = [a.result for a in attempts if a.result is not None]
    failed = sum(not a.ok for a in attempts)
    report = {
        "workload": workload_cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "context": {**machine_context(root), **(runner.context or {})},
        "setup_s": setup_times,
        "attempts": [a.to_json() for a in attempts],
        "attempted": len(attempts),
        "failed": failed,
    }
    if trace:
        report["per_layer"] = per_layer
        report["spans_file"] = spans_path and os.path.relpath(spans_path, root)
    elif timed:
        report["end_to_end"] = {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "ok_ratio": (len(attempts) - failed) / len(attempts),
        }
    else:
        report["end_to_end"] = None
    for key in ("stages", "quality"):
        names = sorted({n for a in attempts for n in getattr(a, key)})
        report[key] = {
            n: statistics.median(getattr(a, key)[n] for a in attempts if n in getattr(a, key))
            for n in names
        }
    return report


def _metrics(report):
    """The metrics of the JSON line, with their units; None if nothing was timed."""
    if report["trace"]:
        return report["per_layer"], {name: unit for name, unit, _ in layers.PER_LAYER}
    return report["end_to_end"], {name: unit for name, unit, _ in END_TO_END}


def print_report(report):
    wl = report["workload"]
    print(f"# {wl}: seed {report['seed']}, trace {report['trace']}, "
          f"{report['attempted']} timed run(s), {report['failed']} failed "
          f"(failed_ratio {report['failed'] / report['attempted']:.3g})")
    print(f"# context: {json.dumps(report['context'], sort_keys=True)}")
    for a in report["attempts"]:
        for problem in a["problems"]:
            print(f"# FAILED: {problem.strip()}")
    metrics, units = _metrics(report)
    for name, value in (metrics or {}).items():
        print(f"{wl:8s} {name:42s} {value:14.6g} {units[name]}")
    for name, value in {**report["stages"], **report["quality"]}.items():
        print(f"{wl:8s} {name:42s} {value:14.6g} {REPORTED_UNITS[name]}")
    if report["trace"] and metrics:
        for stage in ("simulate", "process", "analyze"):
            wall = metrics[f"cli.{stage}.wall_s"]
            if wall > 0:
                share = 1.0 - metrics[f"cli.{stage}.uncovered_s"] / wall
                print(f"{wl:8s} {'cli.' + stage + '.coverage':42s} {share:14.6g} ratio")


def result_line(report) -> str:
    metrics, units = _metrics(report)
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ddsounder", "cli.py")):
        print(f"error: no ddsounder sources under {src}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    reports = []
    for name in names:
        try:
            report = run_workload(root, WORKLOADS[name], args.seed, args.seconds, args.trace)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results_dir = os.path.join(root, RESULTS_DIR)
        os.makedirs(results_dir, exist_ok=True)
        out = os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print_report(report)
        if _metrics(report)[0] is None:
            print(f"error: {name}: no repetition produced a measurement", file=sys.stderr)
            return 1
        reports.append(report)
    for report in reports:
        print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
