"""Smoke tests of the benchmark command at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, run: Path = RUN):
    return subprocess.run([sys.executable, str(run), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(results, workload, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct(results, workload, trace):
    result = results[workload, trace]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert metrics["ok_ops_frac"] == 1.0
        assert all(v > 0 for v in metrics.values())
    elif workload == "eval-report":
        assert metrics["autodiff.tape_entries"] == 0
        assert metrics["metrics.reconstruction_nll_ms"] > 0
    else:
        assert metrics["autodiff.tape_entries"] > 0
        assert metrics["model.decode_batch_calls"] == (2 if workload == "train-fraternal" else 1)
        assert (metrics["objectives.fraternal_batch_self_ms"] > 0) == (workload == "train-fraternal")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
