"""Guards for the timing harnesses that live outside ``testpaths``: the
benchmark's tracer (``perfbench/tracing.py``), the layer timings
(``benchmarks/interleave.py``) and the spectral set-up cells
(``benchmarks/spectral_cells.py``). All reach into the library by name,
so a rename there breaks them without failing any library test; and a
call path that stops going through a traced name leaves its span empty.
"""
import importlib.util
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# every op of the layer harness's op sets but ``epochs``, which takes
# about 10 s a round and whose ``train_ns`` the library tests run
LAYER_OPS = {
    "products": ["assembly", "spectral_bounds", "matvec",
                 "plain_inner_update", "cheb_sweep",
                 "nagex_ssor_inner_update",
                 "sample_dataset"],
    "precond": ["ssor_build", "apply_20_rows", "apply_transpose_20_rows"],
    "batches": ["block_diagonal_20x961", "hybrid_lambda_batch",
                "hybrid_omega_batch", "plain_schedule_batch_5",
                "nagex_ssor_schedule_batch_20"],
    "helmholtz": ["helmholtz_assembly", "complex_fine_matvec", "v_cycle",
                  "fgmres_arnoldi_step", "nag_smoothing_pass"],
}


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.PATCHES
               if inspect.getattr_static(owner, attr, None) is None]
    assert missing == []


def test_training_spans_stay_live(tmp_path):
    """A traced small train-schedule run passes its checks, and the
    training batch's forward, its backward and the network's forward
    each take time in a traced span. The benchmark runs from a copy, so
    its results and traces stay out of the source tree."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "traces",
                                                  "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-schedule",
         "--seed", "0", "--size", "small", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in ("tape.forward_s", "tape.backward_s", "metanet.forward_s"):
        assert metrics[name]["value"] > 0, name


def test_layer_timings_run_once(tmp_path):
    out = tmp_path / "layers.json"
    done = subprocess.run(
        [sys.executable, "benchmarks/interleave.py", "src", "src",
         "--rounds", "1", "--ops", *LAYER_OPS, "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    record = json.loads(out.read_text())
    names = [name for ops in LAYER_OPS.values() for name in ops]
    assert list(record["results"]) == names
    assert set(record["environment"]) == {
        "python", "numpy", "scipy", "blas", "scipy_blas",
        "openblas_num_threads", "cpu_count"}


def test_spectral_cells_run_once(tmp_path):
    out = tmp_path / "spectral.json"
    done = subprocess.run(
        [sys.executable, "benchmarks/spectral_cells.py", "src", "src",
         "--sizes", "16", "--rounds", "2", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    records = json.loads(out.read_text())["records"]
    assert len(records) == 3
    for record in records:
        # one tree on both sides: the counts and bounds must repeat
        parent, change = record["parent"], record["change"]
        for key in ("products", "solves", "factorisations", "lambda_min",
                    "lambda_max"):
            assert parent[key] == change[key]
        assert change["products"] > 0 and change["solves"] > 0
        assert change["factorisations"] >= 3
