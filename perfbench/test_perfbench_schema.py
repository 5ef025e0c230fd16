"""``BENCHMARK.json``, the result line and the result-file records."""

import copy
import importlib
import json

import pytest

from perfbench import schema
from perfbench.common import ROOT
from perfbench.layers import PREDICTIONS

BENCHMARK = schema.load_benchmark(ROOT / "BENCHMARK.json")
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _record(trace: int) -> dict:
    specs = schema.metric_specs(BENCHMARK, bool(trace))
    return {"schema": schema.RECORD_SCHEMA, "workload": "cli_cached",
            "seed": 3, "seconds": 30, "trace": trace, "correct": True,
            "attempted": 10, "failed": 0, "checks": {"commands_exit_0": True},
            "metrics": {spec["name"]: {"value": 1.5, "unit": spec["unit"],
                                       "samples": 4} for spec in specs},
            "details": {"cli_sweep_cached_s": {"value": 1.4, "unit": "s",
                                               "samples": 3}}}


def test_benchmark_json_follows_the_format():
    assert schema.benchmark_problems(BENCHMARK) == []
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("mutate, problem", [
    (lambda b: b["end_to_end"][0].update(bound=0.3), "bound"),
    (lambda b: b["per_layer"].append(dict(b["per_layer"][0])), "twice"),
    (lambda b: b["end_to_end"][-1].update(bound=0.05), "largest bound"),
    (lambda b: b["workloads"][0].update(why="a\nb"), "one line"),
    (lambda b: b.update(run_seconds=61), "run_seconds"),
    (lambda b: b["command"].append("../outside"), "leaves"),
    (lambda b: b["per_layer"][0].update(unit="no spaces"), "unit"),
])
def test_benchmark_problems_catch_each_broken_limit(mutate, problem):
    broken = copy.deepcopy(BENCHMARK)
    mutate(broken)
    assert any(problem in text for text in schema.benchmark_problems(broken))


def test_every_per_layer_metric_has_a_prediction_naming_real_metrics():
    per_layer = {spec["name"] for spec in BENCHMARK["per_layer"]}
    end_to_end = {spec["name"] for spec in BENCHMARK["end_to_end"]}
    workloads = {entry["name"] for entry in BENCHMARK["workloads"]}
    assert set(PREDICTIONS) == per_layer
    for _layer, moves in PREDICTIONS.values():
        if moves is not None:
            assert moves[0] in end_to_end and moves[1] in workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_module_explains_every_end_to_end_metric(name):
    module = importlib.import_module(f"perfbench.{name}")
    assert set(module.MEANING) == {spec["name"]
                                   for spec in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_well_formed_record_and_its_result_line_pass(trace, tmp_path):
    record = _record(trace)
    assert schema.record_problems(record, BENCHMARK) == []
    line = schema.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(entry) == {"value", "unit"}
               for entry in line["metrics"].values())
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(record) + "\n\n" + json.dumps(record) + "\n")
    assert schema.read_results(path, BENCHMARK) == [record, record]


def test_result_line_problems_name_what_is_wrong():
    line = schema.result_line(_record(0))
    first = BENCHMARK["end_to_end"][0]["name"]

    def problems(change):
        broken = copy.deepcopy(line)
        change(broken)
        return " ".join(schema.result_line_problems(broken, BENCHMARK,
                                                    False))

    assert "never 0" in problems(
        lambda b: b["metrics"][first].update(value=0.0))
    assert "finite" in problems(
        lambda b: b["metrics"][first].update(value=None))
    assert "unit" in problems(lambda b: b["metrics"][first].update(unit="h"))
    assert "exactly" in problems(lambda b: b["metrics"].pop(first))
    assert "at least 1" in problems(lambda b: b.update(attempted=0))
    assert "exactly" in problems(lambda b: b.update(extra=1))
    # Per-layer metrics may read 0: a layer a workload never runs.
    traced = schema.result_line(_record(1))
    traced["metrics"]["rx.rake_s"]["value"] = 0.0
    assert schema.result_line_problems(traced, BENCHMARK, True) == []


def test_read_results_rejects_a_malformed_record(tmp_path):
    record = _record(0)
    record["workload"] = "nope"
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="results.jsonl:1: unknown workload"):
        schema.read_results(path, BENCHMARK)
