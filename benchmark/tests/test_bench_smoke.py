"""Short runs of each workload, traced and untraced, and the command's contract."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as W

TRIM = {"suite-noisy": 2, "recording-large": 1, "scene-multiseg": 1}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    bench = run.Bench(workload, seed=3, work=tmp_path)
    recs = bench.round(0)[: TRIM[workload]]
    outcomes = [bench.recording(rec) for rec in recs]
    bench.check_document(traced=False)
    assert bench.problems == []
    assert not any(o.failed for o in outcomes)
    assert [len(o.errors) for o in outcomes] == [len(r.interactions) for r in recs]
    assert all(o.chain_s > o.run_s > 0 for o in outcomes)


def test_traced_run_writes_every_layer_and_the_same_document(tmp_path):
    tracer = tracing.Tracer()
    bench = run.Bench("suite-noisy", seed=0, work=tmp_path, tracer=tracer)
    tracer.install()
    try:
        outcome = bench.recording(bench.round(0)[0])
    finally:
        tracer.uninstall()
    bench.check_document(traced=True)
    assert bench.problems == []
    metrics = tracer.layer_metrics(1, outcome.tracks_bytes)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    zero = {"trajest.fit_regularized.non_converged"}
    assert all(v > 0 for k, (v, _) in metrics.items() if k not in zero)
    names = {s["name"] for s in tracer.spans}
    assert {"synth.generate", "pipeline.stage_estimate", "trajest.fit_regularized"} <= names
    assert all(s["recording"] == "suite-0" and s["end"] >= s["start"] for s in tracer.spans)


def test_gauge_fault_fails_scene_37_every_time(tmp_path):
    bench = run.Bench("suite-noisy", seed=0, work=tmp_path)
    (rec,) = [r for r in bench.round(0) if r.label == "suite-37"]
    outcome = bench.recording(rec)
    assert outcome.failed
    assert bench.problems == []


def test_end_to_end_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS) == list(W.ROUNDS)


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "scene-multiseg", "--seed", "4",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "suite-noisy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
