"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    out, result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == workloads.E2E_UNITS
    renames = workloads.DECODE_NAMES if workloads.WORKLOADS[workload].decode else workloads.TRAIN_NAMES
    for name in workloads.E2E_UNITS:
        assert f"  {renames.get(name, name)} " in out
    assert re.search(r"^  error_rate +0  \(0 of \d+ failed\)$", out, re.M)
    assert '"blas_threads": 1' in out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_prints_every_per_layer_metric(workload):
    out, result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.per_layer_units()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workloads.WORKLOADS[workload].decode:
        assert metrics["model.decode_positions_per_byte"] > 0
    else:
        # every tape record belongs to exactly one layer
        parts = sum(metrics[f"model.{p}_records"] for p in ("frontend", "encoder", "decoder", "loss"))
        assert parts == pytest.approx(metrics["tensor.records_per_step"])


def test_decode_check_fails_on_a_corrupted_byte():
    w = workloads.WORKLOADS["greedy_decode"]
    runner = workloads.Runner(w, workloads.prepare(w, seed=0), seed=0)
    runner.item()
    memory, emitted, target = runner.decoded[0]
    assert workloads.decode_mismatches(runner.p.state, memory, emitted) == 0
    bad = list(emitted)
    bad[len(bad) // 2] = (bad[len(bad) // 2] + 1) % 256
    runner.decoded[0] = (memory, bad, target)
    runner.check()
    assert runner.failed == 1


def test_non_finite_training_step_counts_as_failed():
    w = workloads.WORKLOADS["desk_pretrain"]
    runner = workloads.Runner(w, workloads.prepare(w, seed=0), seed=0)
    runner.p.state["out_proj"].data[0, 0] = np.nan
    assert runner.item() == 0
    assert (runner.attempted, runner.failed) == (1, 1)


def test_run_fails_without_the_package_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_pretrain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
