"""Tests of the benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q`` (outside tier-1's
``testpaths``; about ten seconds, because two tests run real passes).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


# -- spans -----------------------------------------------------------------------

def _span(id, name, parent, start, end):
    return {"id": id, "name": name, "parent": parent, "workload": "t",
            "start": start, "end": end}


def test_self_time_is_duration_minus_direct_children():
    spans = [_span(0, "pass", None, 0.0, 10.0),
             _span(1, "grid", 0, 1.0, 7.0),
             _span(2, "get", 1, 2.0, 3.0),
             _span(3, "get", 1, 4.0, 6.5),
             _span(4, "check", 0, 7.0, 9.0)]
    own = layers.self_times(spans)
    assert own == {0: 2.0, 1: 2.5, 2: 1.0, 3: 2.5, 4: 2.0}
    # grandchildren are not subtracted twice: self times add up to the root
    assert sum(own.values()) == pytest.approx(10.0)
    assert layers.self_time_by_name(spans) == \
        {"pass": 2.0, "grid": 2.5, "get": 3.5, "check": 2.0}


def test_tracer_nests_and_disabled_tracer_records_nothing():
    tracer = layers.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    off = layers.Tracer("t", enabled=False)
    with off.span("outer"):
        pass
    assert off.spans == []


def test_recorded_stream_replays_into_a_fresh_controller():
    from repro.registry import make_controller

    recorded = layers.record_jobs(seed=3, duration=0.3)
    job, jr, log = recorded["cubic"]
    kinds = {kind for kind, _ in log}
    assert {"start", "ack"} <= kinds
    assert type(jr.result.controllers[0]).__name__ == "Cubic"
    # The wrapper must not change what the run computes.
    assert workloads._flow_stats(job.run()) == workloads._flow_stats(jr.result)
    spent = layers.replay(make_controller("cubic", seed=job.seed), log)
    assert spent["ack"][1] == sum(1 for kind, _ in log if kind == "ack")
    assert spent["ack"][0] > 0


# -- BENCHMARK.json against the code -----------------------------------------------

def test_workloads_and_metric_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    # the issue's bounds; fail_ratio is carried by correct/attempted/failed
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == \
        {"wall_s": 0.10, "ops_per_s": 0.10, "cpu_us_per_op": 0.07,
         "peak_rss_mb": 0.05, "setup_s": 0.25}
    assert spec["paths"] == ["benchmarks/e2e"]
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(layers.ON_ACK.values()) <= layer_names
    assert {"unattributed_share", "trace_overhead_ratio"} <= layer_names


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "train-ppo", "--seed", "1", "--seconds", "1", "--trace", "0",
         "--src", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- real passes -------------------------------------------------------------------

def test_output_document_schema(spec, tmp_path):
    """One short real run: every end-to-end metric is in the last line
    and in the document, with unit, n and quartiles."""
    doc_path = tmp_path / "doc.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "train-ppo", "--seed", "2", "--seconds", "1", "--trace", "0",
         "--doc", str(doc_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    doc = json.loads(doc_path.read_text())
    for metric in spec["end_to_end"]:
        name = metric["name"]
        assert last["metrics"][name]["unit"] == metric["unit"]
        assert last["metrics"][name]["value"] > 0
        entry = doc["metrics"][name]
        assert entry["unit"] == metric["unit"]
        assert entry["n"] >= 1 and entry["q1"] <= entry["value"] <= entry["q3"]
        assert name in proc.stdout
    assert doc["metrics"]["wall_s"]["n"] == run.MIN_PASSES
    assert doc["metrics"]["setup_s"]["n"] == run.SETUP_REPS
    assert doc["metrics"]["fail_ratio"]["value"] == 0.0
    assert len(doc["digest"]) == 64


def test_one_crashing_grid_job_is_one_failure_in_24(tmp_path):
    from repro.parallel import single_flow_job

    jobs = workloads.grid_jobs(seed=1, duration=0.2)
    jobs[5] = single_flow_job("crash-test", jobs[5].scenario, seed=jobs[5].seed,
                              duration=0.2)
    workload = workloads.GridCold(1, 2, str(tmp_path), jobs=jobs)
    result = workload.run_pass(layers.Tracer("grid-cold", enabled=False))
    assert (result.attempted, result.failed) == (24, 1)
    assert result.failed / result.attempted == pytest.approx(1 / 24)
    assert any("failed" in line for line in result.errors)
    # the other 23 still produced results
    assert sum(1 for s in result.info["stats"] if s is not None) == 23


def test_fallback_count_survives_the_engine_collapse():
    """Results and scenarios that name no engine never count as a fallback."""
    from types import SimpleNamespace as NS

    named = NS(scenario=NS(engine="batched"))
    assert workloads._fell_back(named, NS(engine_used="reference")) is True
    assert workloads._fell_back(named, NS(engine_used="batched")) is False
    assert workloads._fell_back(named, NS()) is False
    assert workloads._fell_back(NS(scenario=NS()), NS()) is False
    assert workloads._fell_back(NS(scenario=NS()),
                                NS(engine_used="reference")) is False


def test_worsening_follows_the_metric_direction():
    lower = {"better": "lower"}
    higher = {"better": "higher"}
    assert run.worsening(lower, 2.0, 2.2) == pytest.approx(0.1)
    assert run.worsening(higher, 100.0, 90.0) == pytest.approx(0.1)
    assert run.worsening(higher, 100.0, 110.0) == pytest.approx(-0.1)
