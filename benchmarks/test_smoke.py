"""Smoke run of the benchmark: every workload at tiny sizes, end to end, so
that the harness cannot rot unnoticed.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be nonzero where their layer runs, and zero
# where it must not
BUSY = {
    "train-paper": [f"ops.L{i}.{d}_s" for i in range(5) for d in ("fwd", "bwd")]
    + [
        "model.forward_batch_s",
        "model.backward_batch_s",
        "model.sgd_step_s",
        "model.validation_s",
        "model.train.self_s",
        "pipeline.make_pairs_s",
        "pipeline.pairs",
        "resample.downsample_s",
        "metrics.psnr_s",
    ],
    "infer-slice": [f"ops.L{i}.fwd_s" for i in range(5)]
    + [
        "model.forward_s",
        "model.infer.self_s",
        "model.infer.useful_ratio",
        "model.load_checkpoint_s",
        "volume.deserialize_s",
        "volume.bytes",
    ],
    "eval-baseline": [
        "resample.downsample_s",
        "resample.bicubic_s",
        "metrics.psnr_s",
        "metrics.ssim_s",
        "metrics.ttest_s",
        "volume.serialize_s",
        "volume.deserialize_s",
        "volume.bytes",
    ],
    "grid-sweep": [f"ops.L{i}.{d}_s" for i in range(4) for d in ("fwd", "bwd")]
    + ["grid.combos", "grid.pair_cache_hit_ratio", "pipeline.make_pairs_s"],
}
IDLE = {
    "train-paper": ["model.forward_s", "model.infer.self_s", "grid.combos"],
    "infer-slice": [f"ops.L{i}.bwd_s" for i in range(5)] + ["model.backward_batch_s"],
    "eval-baseline": [
        m["name"] for m in SPEC["per_layer"] if m["name"].startswith(("ops.L", "model."))
    ],
    "grid-sweep": ["ops.L4.fwd_s", "ops.L4.bwd_s", "model.forward_s"],
}
# two window depths over eight combos: two pair-cache misses, six hits
EXACT = {"grid-sweep": {"grid.combos": 8, "grid.pair_cache_hit_ratio": 0.75}}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert all(values[n] > 0 for n in BUSY[workload]), values
        assert all(values[n] == 0 for n in IDLE[workload]), values
        assert all(values[n] == v for n, v in EXACT.get(workload, {}).items()), values
    else:
        assert all(values[m["name"]] > 0 for m in listed)
    env = json.loads(proc.stdout.splitlines()[-2])["env"]
    assert env["seed"] == 5 and env["blas_threads"] <= env["nproc"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks")
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
