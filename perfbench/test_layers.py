"""Per-layer metric derivation and the metric declarations in BENCHMARK.json.

Run with ``python3 -m pytest perfbench/test_layers.py``.
"""

import json
import os

import pytest

import layers
import run
from spans import Span

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def test_bypassed_layers_read_zero():
    stage = Span(0, "cli.process", 0.0, 4.0, None, 1)
    spans = [
        stage,
        Span(1, "io.read_signal", 0.0, 1.0, 0, 1, {"bytes": 3 << 20}),
        Span(2, "rxproc.coherent_average", 1.0, 3.0, 0, 1, {"snapshots": 100}),
    ]
    m = layers.layer_metrics(spans, 0.0, 5.0, 1, 4.0)
    assert list(m) == [name for name, _, _ in layers.PER_LAYER]
    assert m["io.read.mb"] == 3.0
    assert m["rxproc.coherent_average.snapshots_per_s"] == 50.0
    assert m["cli.process.wall_s"] == 4.0
    assert m["cli.process.uncovered_s"] == 1.0
    assert m["trace.coverage"] == pytest.approx(3.0 / 5.0)
    assert m["trace.overhead_ratio"] == pytest.approx(0.25)
    for name in ("sbl.sbl_fit.calls", "kernels.msamples_per_s", "cli.analyze.wall_s",
                 "cli.analyze.pool_utilisation", "channel.rays_per_s"):
        assert m[name] == 0.0


@pytest.mark.skipif(not os.path.exists(BENCHMARK_JSON), reason="outside a checkout")
def test_benchmark_json_declares_what_the_code_reports():
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [tuple(m) for m in layers.PER_LAYER]
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert declared == [tuple(m) for m in run.END_TO_END]
