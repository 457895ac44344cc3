"""One benchmark step in a fresh interpreter.

``child.py setup <workload> <seed> <run_dir>`` writes a workload's inputs.
``child.py timed <spec.json>`` runs one CLI command through
``ddsounder.cli.main`` and writes a result file: exit code, wall time of the
``main()`` call, peak RSS of this process and the software context.  With
``"trace": true`` in the spec, the package's layers are wrapped first and the
spans are written to the spec's ``spans`` path after ``main()`` returns.

``run.py`` starts this script with ``PYTHONPATH`` pointing at ``src/``, so
the timed process holds nothing but the interpreter, the package and the
command's own data.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads():
    """Thread count reported by the BLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(
                {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
            )
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for query in BLAS_THREAD_QUERIES:
            if hasattr(lib, query):
                fn = getattr(lib, query)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def software_context():
    import numpy as np
    import scipy

    from ddsounder import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "backend": _kernels.BACKEND,
        "dds_threads": os.environ.get("DDS_THREADS"),
    }


def timed(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from ddsounder.cli import main

    tracer = None
    if spec["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    error = None
    start = time.perf_counter()
    try:
        rc = main(spec["argv"])
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = None, traceback.format_exc()
    end = time.perf_counter()

    result = {
        "rc": rc,
        "error": error,
        "wall_s": end - start,
        "main_start": start,
        "main_end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": software_context(),
    }
    if tracer is not None:
        with open(spec["spans"], "w") as fh:
            json.dump([list(s) for s in tracer.spans], fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


def setup(workload: str, seed: str, run_dir: str) -> None:
    from workloads import WORKLOADS

    WORKLOADS[workload](run_dir, int(seed)).make_inputs()


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"setup": setup, "timed": timed}[mode](*rest)
