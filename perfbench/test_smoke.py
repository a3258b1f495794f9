"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402

bench.import_package()

import workloads  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _expect_metrics(line, kind):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_workload_emits_every_metric(workload):
    line, record = bench.run(workload, None, 0, trace=False, shapes=workloads.TOY_SHAPES)
    _expect_metrics(line, "end_to_end")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, record["failures"]
    assert all(line["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    tline, trecord = bench.run(workload, None, 0, trace=True, shapes=workloads.TOY_SHAPES)
    _expect_metrics(tline, "per_layer")
    assert tline["correct"] and tline["metrics"]["failed_frac"]["value"] == 0
    assert trecord["absent"] == []
    # deterministic counters repeat between untraced and traced runs
    assert trecord["counters"] == record["counters"]
    layer = {k: v["value"] for k, v in tline["metrics"].items()}
    for name, value in record["counters"].items():
        assert layer[name] == value, name
    for stamp in ("python", "numpy", "git_sha", "nproc"):
        assert record["stamp"][stamp]


def _corrupt_trace(out, manifest):
    entry = manifest.cells[0]
    path = os.path.join(out, entry["paths"]["trace"])
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = lines[1].replace('"transition":"', '"transition":"no_such_')
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_trace_is_counted_not_raised(trace):
    line, record = bench.run("package_grid", None, 0, trace=trace,
                             shapes=workloads.TOY_SHAPES, corrupt=_corrupt_trace)
    assert not line["correct"]
    assert line["failed"] >= 1 + trace  # each traced run holds two iterations
    assert any("read back" in f for f in record["failures"])
    if trace:
        assert line["metrics"]["failed_frac"]["value"] == line["failed"] / line["attempted"]


def test_traced_firings_must_match_the_manifest(monkeypatch):
    import tracer
    # a tracer that no longer recognises firings, as after a change to what
    # `step` returns, must fail the run instead of reporting zero firings
    monkeypatch.setattr(tracer.Tracer, "_observe_simulate_step",
                        lambda self, args, kwargs, result, dt: None)
    line, record = bench.run("oracle_score", None, 0, trace=True, shapes=workloads.TOY_SHAPES)
    assert not line["correct"]
    assert any("traced simulate.firings" in f for f in record["failures"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "energy_cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
