"""Tests of the benchmark itself: run them with ``python -m pytest perfbench``.

Each workload runs at reduced size (``--size small``) through the real
command line, in both modes, and must pass its checks and print every
metric that BENCHMARK.json names.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_passes_checks_and_reports_every_metric(workload, trace):
    out = run(["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "small"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)


def test_same_seed_gives_same_iterations():
    args = ["--workload", "aniso-solve", "--seed", "5", "--seconds", "0",
            "--size", "small"]
    counts = [json.loads(run(args).stdout.strip().splitlines()[-1])
              ["metrics"]["iterations"]["value"] for _ in range(2)]
    assert counts[0] == counts[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "traces",
                                                  "__pycache__"))
    out = run(["--workload", "aniso-solve", "--seed", "0", "--seconds", "1"],
              cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 3.0, 4.0, 1.0])
    assert tracing.self_times(parent, duration).tolist() == [3.0, 3.0, 3.0,
                                                            1.0]
    assert tracing.top_ancestors(parent).tolist() == [0, 0, 0, 0]


def test_tracer_restores_what_it_wraps():
    from richlab import sparse
    original = sparse.SparseMatrix.matvec
    tracer = tracing.Tracer()
    A = sparse.SparseMatrix.identity(3)
    with tracer.installed(), tracer.span(tracing.ROUND_SPAN):
        assert sparse.SparseMatrix.matvec is not original
        A.matvec(np.ones(3))
        A.rmatvec(np.ones(3))
    assert sparse.SparseMatrix.matvec is original
    metrics = tracing.summarise(tracer)
    assert metrics["sparse.matvec_calls"] == 2
