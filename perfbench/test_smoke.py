"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every metric of ``BENCHMARK.json`` with its unit,
in both trace modes, and a wrong output must be counted as a failed
operation rather than slip through.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from dtanet import pipeline  # noqa: E402


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.RUNNERS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert trace or metric["value"] > 0


def tiny_run(workload: str, work: Path) -> workloads.Run:
    return workloads.Run(seed=3, seconds=0.0,
                         size=workloads.SIZES["tiny"][workload], work=work,
                         tracer=None)


def test_a_tampered_prediction_file_is_a_failed_request(tmp_path, monkeypatch):
    real = pipeline.run_predict
    calls = []

    def tampered(model_path, pairs_csv, proteins_path, out_csv):
        real(model_path, pairs_csv, proteins_path, out_csv)
        calls.append(out_csv)
        if len(calls) % 2:
            return
        lines = Path(out_csv).read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[3] = f"{float(fields[3]) + 1e-3:.6g}"
        lines[1] = ",".join(fields)
        Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")

    monkeypatch.setattr(pipeline, "run_predict", tampered)
    run = tiny_run("screen", tmp_path)
    workloads.screen(run)
    assert run.attempted == len(calls) >= 4
    assert run.failed == len(calls) // 2


def test_a_missing_fold_row_is_a_failed_fold(tmp_path, monkeypatch):
    real = pipeline.run_cv

    def dropped(*args, **kwargs):
        path = real(*args, **kwargs)
        lines = path.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines
                if not line.startswith("cold-cluster,3,0,1,0,")]
        assert len(kept) == len(lines) - 1
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        return path

    monkeypatch.setattr(pipeline, "run_cv", dropped)
    run = tiny_run("cv-cluster", tmp_path)
    workloads.cv_cluster(run)
    assert run.attempted == 3 and run.failed == 1  # fold 1 of one run_cv


def test_printed_precision_check():
    assert workloads.agrees(2.34568, 2.345678901)
    assert workloads.agrees(10.0, 9.9999996)
    assert not workloads.agrees(2.34578, 2.345678901)
    assert workloads.agrees(-0.000123457, -0.000123456789)
