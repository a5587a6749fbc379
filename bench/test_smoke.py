"""Fast smoke test of the benchmark itself: one traced round per workload
with every output check on, the result line's shape, and the refusal to run
outside a densefocus checkout.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_passes_every_check(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
         "--seed", "3", "--rounds", "2", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = _last_json(proc.stdout)
    assert res["failed"] == 0 and res["attempted"] >= 2
    assert len(res["checks"]) >= 3
    assert all(res["checks"].values()), res["checks"]
    assert {s["phase"] for s in res["spans"]} == {"setup", "warmup", "timed"}
    assert any(s["phase"] == "timed" for s in res["spans"])
    assert any(res["traced"]) and not all(res["traced"])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric(trace, kind):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "train_dgb", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = _last_json(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
