"""Layer timings of two source trees, interleaved in one process.

Each tree's ``richlab`` package is loaded whole under its own name, so
every module of one tree calls that tree's code, and each op set builds
its inputs with that code. To time one tree, pass it twice. The op sets
(``--ops``, all by default):

- ``products``: the single-level anisotropic layers at n=64 (the
  eps=1e-2, theta=0 cell of ``aniso-solve``, 3,969 unknowns): assembly,
  spectral bounds, one product (the mean of MATVECS), and one plain
  inner update as the solver runs it (a sweep of UPDATES updates of the
  constant schedule 1/lambda_max, over UPDATES: its sweep polynomial's
  amplification bound is at least 2^UPDATES, so the solver keeps the
  step recurrence); one Chebyshev(3) sweep as ``aniso-solve`` runs it
  (SWEEPS sweeps from zero, over SWEEPS: Horner's rule on its sweep
  polynomial); and one NAG-ex update with SSOR at
  n=32 (eps=1e-2, theta=0), as the ``train-schedule`` held-out solves
  run it (a sweep of UPDATES updates of a constant NAG-ex schedule with
  the preconditioner built beforehand, over UPDATES); and the
  ``train-schedule`` training set, ``sample_dataset`` of TRAIN_COUNT
  anisotropic samples at n=32 (seed 42).
- ``precond``: one ``Preconditioner.ssor`` build at n=32, cycling
  through the 20-sample anisotropic set, and one forward and one
  transposed apply over its 20-row stack, one preconditioner per row,
  as a preconditioned training batch runs them.
- ``batches``: ``block_diagonal`` of that set (the mean of REPEATS);
  one recorded hybrid batch on it in each training phase, lambda and
  omega (forward and backward, the ``FnsTrainConfig`` defaults, the
  initial smoother and zero correction rows); and one recorded forward
  and backward of each ``train-schedule`` net at its untrained initial
  state with the unroll K=50: the plain net (log-omega output, seed 1)
  on the first 5 samples, and the SSOR NAG-ex net (seed 0) on all 20,
  with the preconditioners built beforehand as training builds them.
- ``helmholtz``: the ``helmholtz-fgmres`` layers at frequency 5, on
  damped Helmholtz at n=128 (16,129 complex unknowns) and its
  ``multigrid.helmholtz_hierarchy``: its assembly, one complex product
  (the mean of MATVECS), one V-cycle from zero, one Arnoldi step of
  unpreconditioned FGMRES(RESTART) (a restart cycle, over RESTART), and
  one NAG-Richardson(5) smoothing pass on the finest level, from a copy
  of a fixed iterate.
- ``epochs``: one ``train_ns`` epoch of each schedule net of the
  criterion-2/3 fixture (plain, nag, nagex and SSOR NAG-ex, with the
  fixture's batch sizes, seeds and output maps) on its 200-sample set at
  n=32, from the net's initial state. Training keeps each matrix's
  preconditioners with the matrix, so later rounds time a warm memo.

Each op's time and minor page faults (``resource.getrusage``) are
taken per call. ``--json`` also records the python, numpy and scipy
builds, the BLAS of each (numpy's ``blas``, scipy's ``scipy_blas``: they
load separate OpenBLAS libraries with separate thread pools; ARPACK and
the banded Cholesky run on scipy's), ``OPENBLAS_NUM_THREADS`` and the
CPU count: FGMRES bits and times move with the BLAS thread count, so
fix it before comparing.

In every round both trees run every op once, and which tree goes first
alternates between rounds, so both see the same machine load. Run from
the repository root:

    python benchmarks/interleave.py OLD_SRC NEW_SRC --rounds 100 \\
        --json out.json
"""
import argparse
import importlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

N = 64
HELMHOLTZ_N = 128
FREQUENCY = 5.0
RESTART = 20
TRAIN_N = 32
TRAIN_COUNT = 200
UPDATES = 50
SWEEPS = 50
MATVECS = 200
REPEATS = 20
UNROLL = 50


def load_package(src, name):
    """The ``richlab`` package under ``src`` as the top-level ``name``;
    returns a function mapping a module name to that tree's module."""
    root = Path(src) / "richlab"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return lambda module: importlib.import_module(f"{name}.{module}")


def _repeat(fn, count):
    def run():
        for _ in range(count):
            fn()
    return run


def products(mod):
    problems, spectral = mod("problems"), mod("spectral")
    richardson, schedules = mod("richardson"), mod("schedules")
    spec = problems.AnisotropicProblem(epsilon=1e-2, theta=0.0, n=N)
    A = problems.assemble_anisotropic(spec)
    x = np.random.default_rng(0).standard_normal(A.ncols)
    bounds = spectral.dense_spectral_bounds(A)
    plain = schedules.WeightSchedule(
        omega=np.full(UPDATES, 1.0 / bounds.lambda_max))
    cheb = schedules.chebyshev_schedule(bounds.lambda_max, bounds.lambda_min,
                                        3)
    small = problems.assemble_anisotropic(problems.AnisotropicProblem(
        epsilon=1e-2, theta=0.0, n=TRAIN_N))
    ssor = mod("precond").Preconditioner.ssor(small)
    nagex = schedules.WeightSchedule(
        omega=np.full(UPDATES, 0.5), alpha=np.full(UPDATES, 0.3),
        alpha_tilde=np.full(UPDATES, 0.2), variant="nagex")
    g = np.random.default_rng(1).standard_normal(small.ncols)
    sample_dataset = mod("data").sample_dataset
    return {
        "assembly": (lambda: problems.assemble_anisotropic(spec), 1),
        "spectral_bounds": (lambda: spectral.dense_spectral_bounds(A), 1),
        "matvec": (_repeat(lambda: A.matvec(x), MATVECS), MATVECS),
        "plain_inner_update": (
            lambda: richardson.solve_stationary(A, x, plain, tol=1e-300,
                                                max_outer=1), UPDATES),
        "cheb_sweep": (
            lambda: richardson.solve_stationary(A, x, cheb, tol=1e-300,
                                                max_outer=SWEEPS), SWEEPS),
        "nagex_ssor_inner_update": (
            lambda: richardson.solve_stationary(small, g, nagex, P=ssor,
                                                tol=1e-300, max_outer=1),
            UPDATES),
        "sample_dataset": (
            lambda: sample_dataset("anisotropic", TRAIN_COUNT, seed=42,
                                   n=TRAIN_N), 1),
    }


def _training_set(mod):
    samples = list(mod("data").sample_dataset("anisotropic", 20, seed=0,
                                              n=TRAIN_N))
    return samples, np.stack([s.f for s in samples])


def precond(mod):
    ssor = mod("precond").Preconditioner.ssor
    samples, X = _training_set(mod)
    apply, apply_t = mod("training")._rowwise([ssor(s.A) for s in samples])
    cycle = itertools.cycle(samples)
    return {
        "ssor_build": (lambda: ssor(next(cycle).A), 1),
        "apply_20_rows": (lambda: apply(X), 1),
        "apply_transpose_20_rows": (lambda: apply_t(X), 1),
    }


def batches(mod):
    fns, training = mod("fns"), mod("training")
    samples, _ = _training_set(mod)
    blocks = [s.A for s in samples]
    cfg = fns.FnsTrainConfig()
    net = fns._initial_net(cfg, input_dim=2)
    rows = np.zeros((len(samples), (TRAIN_N - 1) ** 2))

    def hybrid_batch(train_lambda):
        def run():
            (omega, _, _), records = training._schedules(samples, net)
            _, row_grads = fns._hybrid_loss(
                samples, omega, rows, cfg.unroll, cfg.smooth_steps,
                wrt=("lam",) if train_lambda else ("omega",))
            if train_lambda:
                row_grads()
            else:
                net.backward(records, row_grads().get("omega"))
        return run

    def schedule_batch(variant, precond, log_omega, batch_size, seed):
        net = mod("metanet").MetaNet.create(
            3, variant=variant, input_dim=2, learn_log_omega=log_omega,
            seed=seed)
        batch = samples[:batch_size]
        for sample in batch:
            training.make_preconditioner(precond, sample.A)
        return lambda: training.gradient(*training.loss_relative_residual(
            batch, net, UNROLL, precond=precond))

    block_diagonal = mod("sparse").block_diagonal
    return {
        "block_diagonal_20x961": (
            _repeat(lambda: block_diagonal(blocks), REPEATS), REPEATS),
        "hybrid_lambda_batch": (hybrid_batch(True), 1),
        "hybrid_omega_batch": (hybrid_batch(False), 1),
        "plain_schedule_batch_5": (
            schedule_batch("plain", None, True, 5, 1), 1),
        "nagex_ssor_schedule_batch_20": (
            schedule_batch("nagex", "ssor", False, 20, 0), 1),
    }


def helmholtz(mod):
    problems, multigrid, krylov = (mod("problems"), mod("multigrid"),
                                   mod("fgmres"))
    spec = problems.HelmholtzProblem(angular_frequency=2 * np.pi * FREQUENCY,
                                     n=HELMHOLTZ_N)
    A = problems.assemble_helmholtz(spec)
    h = multigrid.helmholtz_hierarchy(A, HELMHOLTZ_N)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)
    u = multigrid.v_cycle(h, f)
    cfg = krylov.FgmresConfig(restart=RESTART, tol=1e-300, max_outer=1)

    def restart_cycle():
        return krylov.fgmres(A, f, None, cfg)

    assert restart_cycle()[1].iterations == RESTART
    return {
        "helmholtz_assembly": (lambda: problems.assemble_helmholtz(spec), 1),
        "complex_fine_matvec": (_repeat(lambda: A.matvec(f), MATVECS),
                                MATVECS),
        "v_cycle": (lambda: multigrid.v_cycle(h, f), 1),
        "fgmres_arnoldi_step": (restart_cycle, RESTART),
        "nag_smoothing_pass": (
            lambda: multigrid._smooth(h.levels[0], f, u.copy(), 1), 1),
    }


# name, variant, preconditioner, log-omega output, batch size, seed
FIXTURE_NETS = (("plain", "plain", None, True, 5, 1),
                ("nag", "nag", None, False, 20, 0),
                ("nagex", "nagex", None, False, 20, 0),
                ("nagex_ssor", "nagex", "ssor", False, 20, 0))


def epochs(mod):
    training = mod("training")
    dataset = mod("data").sample_dataset("anisotropic", TRAIN_COUNT,
                                         seed=42, n=TRAIN_N)

    def epoch(variant, precond, log_omega, batch_size, seed):
        cfg = training.TrainConfig(
            m=3, unroll=UNROLL, n_epochs=1, batch_size=batch_size, seed=seed,
            variant=variant, precond=precond, learn_log_omega=log_omega)
        return lambda: training.train_ns(cfg, dataset)

    return {f"epoch_{name}": (epoch(*config), 1)
            for name, *config in FIXTURE_NETS}


OP_SETS = {"products": products, "precond": precond, "batches": batches,
           "helmholtz": helmholtz, "epochs": epochs}


def summary(times, faults):
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(med), "q1_s": float(q1), "q3_s": float(q3),
            "median_minor_faults": float(np.median(faults))}


def environment():
    """The builds and thread settings the timings depend on."""
    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--ops", nargs="+", choices=OP_SETS, default=list(OP_SETS))
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--json")
    args = ap.parse_args()
    ops = {}
    for side, src in (("parent", args.old_src), ("change", args.new_src)):
        mod = load_package(src, f"richlab_{side}")
        ops[side] = {name: op for op_set in args.ops
                     for name, op in OP_SETS[op_set](mod).items()}
    names = list(ops["parent"])
    times = {side: {name: [] for name in names} for side in ops}
    faults = {side: {name: [] for name in names} for side in ops}
    for k in range(args.rounds):
        for side in (list(ops) if k % 2 == 0 else list(ops)[::-1]):
            for name, (run, per) in ops[side].items():
                f0 = _minor_faults()
                t0 = time.perf_counter()
                run()
                times[side][name].append((time.perf_counter() - t0) / per)
                faults[side][name].append((_minor_faults() - f0) / per)
    result = {}
    for name in names:
        sides = {side: summary(times[side][name], faults[side][name])
                 for side in ops}
        sides["change_over_parent"] = (sides["change"]["median_s"]
                                       / sides["parent"]["median_s"])
        result[name] = sides
        print(f"{name:30s} parent {sides['parent']['median_s'] * 1e6:.1f} us"
              f" ({sides['parent']['median_minor_faults']:.0f} faults)"
              f"  change {sides['change']['median_s'] * 1e6:.1f} us"
              f" ({sides['change']['median_minor_faults']:.0f} faults)"
              f"  ratio {sides['change_over_parent']:.3f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rounds": args.rounds, "ops": args.ops,
                       "environment": environment(), "results": result},
                      fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
