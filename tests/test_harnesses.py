"""Guards for the timing harnesses that live outside ``testpaths``: the
benchmark's tracer (``perfbench/tracing.py``), the layer timings
(``benchmarks/interleave.py``), the spectral set-up cells
(``benchmarks/spectral_cells.py``) and the traffic counter
(``benchmarks/traffic.py``). All reach into the library by name,
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
    "precond": ["ssor_build", "apply_20_rows"],
    "batches": ["plain_schedule_batch_5",
                "nagex_ssor_schedule_batch_20", "plain_warm_batch_5",
                "nagex_ssor_warm_batch_20", "krylov_projection_20",
                "krylov_projection_20_ssor"],
    "helmholtz": ["helmholtz_assembly", "complex_fine_matvec", "v_cycle",
                  "fgmres_arnoldi_step", "nag_smoothing_pass",
                  "hierarchy_build"],
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


def test_traffic_counter_runs_small():
    # the counter patches library names; one it cannot find, or a path
    # that stops going through them, fails or reads zero here
    done = subprocess.run(
        [sys.executable, "benchmarks/traffic.py", "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    sections = {}
    for line in done.stdout.splitlines():
        if not line.startswith(" "):
            name = line.rstrip(":")
            sections[name] = []
        else:
            sections[name].append(line.strip())
    assert list(sections) == ["aniso-solve", "train-schedule",
                              "helmholtz-fgmres"]
    aniso, train, helmholtz = sections.values()

    def cells(line):   # "name: kind n, kind n" -> {kind: n}
        return {kind: int(n.replace(",", "")) for kind, n in (
            cell.rsplit(" ", 1) for cell in line.split(": ", 1)[1].split(", "))}
    products = cells(aniso[0])
    assert aniso[0].startswith("products: ")
    assert list(products) == ["bound matvec", "bound accumulate", "matvec",
                              "rmatvec"]
    # the Horner sweeps accumulate on the operator each solve binds
    assert products["bound matvec"] > 0 and products["bound accumulate"] > 0
    # the projection multiplies by each sample's own matrix, unbound
    assert cells(train[0])["matvec"] > 0
    # the V-cycle restricts by R's matvec and prolongs by its rmatvec,
    # once each per smoothed level
    transfers = cells(helmholtz[0])
    assert transfers["rmatvec"] > 0
    assert transfers["rmatvec"] == transfers["matvec"]
    assert train[2].startswith("_unroll calls: H stack ")
    # the small set's 20 samples, plain and SSOR, projected in the first
    # of the two rounds only, and served by the memo in the second
    computed, served = zip(*(map(int, cell.split(" / ")) for cell in
                             train[3].split(": ", 1)[1].split("; ")))
    assert train[3].startswith("projections (computed / served")
    assert computed == (40, 0)
    assert served == (0, 40)
    assert any(line.startswith("recurrence, nagex, ssor: ")
               for line in train)
    # one bind per solve; a V-cycle level binds on its first product,
    # and the hierarchy built in set-up keeps it for the next rounds
    binds = {name: [int(cell.replace(",", "")) for cell in
                    section[1].split("by round): ")[1].split(";")[:3]]
             for name, section in sections.items()}
    assert binds["aniso-solve"] == [0, 47, 47]
    assert binds["train-schedule"] == [0, 12, 12]
    first, second = binds["helmholtz-fgmres"][1:]
    assert binds["helmholtz-fgmres"][0] == 0 and first > second > 0
    # the training set shares one pattern and never needs scipy's view of
    # a matrix: SSOR reads its diagonal from the CSR arrays, and the
    # held-out operators run the DIA kernel
    views = [int(cell) for cell in train[1].split("by round): ")[2].split("; ")]
    assert views[:2] == [0, 0]
    # the spectral bounds of set-up do build views: the count is live
    assert int(aniso[1].split("by round): ")[2].split("; ")[0]) > 0
