"""BENCHMARK.json names exactly what the runner and the layers print."""

import json
from pathlib import Path

from perfbench.layers import METRICS
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS

DOC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_workloads_match():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in DOC["end_to_end"])


def test_per_layer_metrics_match():
    assert [
        (m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _ in METRICS]
    assert len(DOC["per_layer"]) <= 128


def test_per_layer_reports_every_metric_once():
    from perfbench.layers import per_layer
    from perfbench.tracer import Tracer
    from perfbench.workloads import Batch, OpRecord

    untraced = [Batch([OpRecord(1.0, True, factor_s={"conflux": 0.5})], {})]
    traced = [Batch([OpRecord(1.25, True)], {})]
    values = per_layer(Tracer(), untraced, traced)
    assert list(values) == [name for name, _, _, _ in METRICS]
    assert values["trace.overhead_s"] == 0.25
    assert values["algorithms.api.factor.conflux.p50_s"] == 0.5
