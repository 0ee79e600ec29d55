"""Layer timings of two source trees, interleaved in one process.

Each tree's ``richlab`` package is loaded whole under its own name, so
every module of one tree calls that tree's code, and each op builds its
inputs with that code. To time one tree, pass it twice. The op sets
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
  through the 20-sample anisotropic set, and one apply of each sample's
  preconditioner to its right-hand side, as one Arnoldi step of the
  Krylov projection of the 20 samples runs them, one sample at a time.
- ``batches``: ``block_diagonal`` of that set (the mean of REPEATS);
  one recorded hybrid batch on it in each training phase, lambda and
  omega (forward and backward, the ``FnsTrainConfig`` defaults, the
  initial smoother and zero correction rows); one recorded forward and
  backward of each ``train-schedule`` net at its untrained initial
  state with the unroll K=50: the plain net (log-omega output, seed 1)
  on the first 5 samples, and the SSOR NAG-ex net (seed 0) on all 20,
  with the batch projected afresh in the call; the same two batches as
  ``train_ns`` runs them, with every projection served by the memo of
  ``training.krylov_projection`` (filled beforehand; a tree without
  that memo does not run these two); and ``training.krylov_projection``
  of the 20 samples at K=50, one sample at a time, without a
  preconditioner and with SSOR, as ``train_ns`` projects a set it has
  not seen before the first epoch. The projection builds each sample's
  factor for itself and drops it, so the SSOR projection and the SSOR
  batch include their 20 factor builds in every call. (A tree whose
  ``training.make_preconditioner`` keeps each matrix's factors builds
  them in the first call only.)
- ``helmholtz``: the ``helmholtz-fgmres`` layers at frequency 5, on
  damped Helmholtz at n=128 (16,129 complex unknowns) and its
  ``multigrid.helmholtz_hierarchy``: its assembly, one complex product
  (the mean of MATVECS), one V-cycle from zero, one Arnoldi step of
  unpreconditioned FGMRES(RESTART) (a restart cycle, over RESTART), one
  NAG-Richardson(5) smoothing pass on the finest level, from a copy of a
  fixed iterate, and one build of the hierarchy itself (transfers,
  Galerkin products and the coarsest factorisation), through public
  names only.
- ``epochs``: one ``train_ns`` epoch of each schedule net of the
  criterion-2/3 fixture (plain, nag, nagex and SSOR NAG-ex, with the
  fixture's batch sizes, seeds and output maps) on its 200-sample set at
  n=32, from the net's initial state, the Krylov projection of the set
  included, and with it the SSOR net's 200 factor builds.

Every call of an op that projects afresh (the two projections, the two
schedule batches and the epochs) first empties the projection memo of
its tree, if the tree has one, so each round times the cold projection
that a new dataset's first call pays; emptying it drops at most 200
entries, a small part of the call.

Ops run one after another. Each op is built in both trees just before
its rounds, and dropped after them, so what other ops allocate does not
move its timings. In every round both trees run the op once, and which
tree goes first alternates between rounds, so both see the same machine
load. An op that reads a library name one tree lacks (a layer the change
adds or removes) is timed in the other tree only. Each op's time and
minor page faults (``resource.getrusage``) are taken per call.
``--json`` also records the python, numpy and scipy builds, the BLAS of
each (numpy's ``blas``, scipy's ``scipy_blas``: they
load separate OpenBLAS libraries with separate thread pools; ARPACK and
the banded Cholesky run on scipy's), ``OPENBLAS_NUM_THREADS`` and the
CPU count: FGMRES bits and times move with the BLAS thread count, so
fix it before comparing. Run from the repository root:

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
    small_spec = problems.AnisotropicProblem(epsilon=1e-2, theta=0.0,
                                             n=TRAIN_N)

    def operator():
        A = problems.assemble_anisotropic(spec)
        return A, np.random.default_rng(0).standard_normal(A.ncols)

    def spectral_bounds():
        A, _ = operator()
        return lambda: spectral.dense_spectral_bounds(A)

    def matvec():
        A, x = operator()
        return _repeat(lambda: A.matvec(x), MATVECS)

    def sweep(schedule, max_outer):
        def build():
            A, x = operator()
            bounds = spectral.dense_spectral_bounds(A)
            sched = schedule(bounds)
            return lambda: richardson.solve_stationary(
                A, x, sched, tol=1e-300, max_outer=max_outer)
        return build

    def nagex_ssor():
        small = problems.assemble_anisotropic(small_spec)
        ssor = mod("precond").Preconditioner.ssor(small)
        nagex = schedules.WeightSchedule(
            omega=np.full(UPDATES, 0.5), alpha=np.full(UPDATES, 0.3),
            alpha_tilde=np.full(UPDATES, 0.2), variant="nagex")
        g = np.random.default_rng(1).standard_normal(small.ncols)
        return lambda: richardson.solve_stationary(
            small, g, nagex, P=ssor, tol=1e-300, max_outer=1)

    def sample_dataset():
        sample = mod("data").sample_dataset
        return lambda: sample("anisotropic", TRAIN_COUNT, seed=42,
                              n=TRAIN_N)

    return {
        "assembly": (lambda: lambda: problems.assemble_anisotropic(spec), 1),
        "spectral_bounds": (spectral_bounds, 1),
        "matvec": (matvec, MATVECS),
        "plain_inner_update": (sweep(
            lambda b: schedules.WeightSchedule(
                omega=np.full(UPDATES, 1.0 / b.lambda_max)), 1), UPDATES),
        "cheb_sweep": (sweep(
            lambda b: schedules.chebyshev_schedule(b.lambda_max,
                                                   b.lambda_min, 3),
            SWEEPS), SWEEPS),
        "nagex_ssor_inner_update": (nagex_ssor, UPDATES),
        "sample_dataset": (sample_dataset, 1),
    }


def _training_set(mod):
    return list(mod("data").sample_dataset("anisotropic", 20, seed=0,
                                           n=TRAIN_N))


def precond(mod):
    ssor = mod("precond").Preconditioner.ssor

    def build():
        cycle = itertools.cycle(_training_set(mod))
        return lambda: ssor(next(cycle).A)

    def apply():
        samples = _training_set(mod)
        Ps = [ssor(s.A) for s in samples]
        X = [s.f for s in samples]
        return lambda: [P.apply(x) for P, x in zip(Ps, X)]

    return {"ssor_build": (build, 1), "apply_20_rows": (apply, 1)}


def _forget_projections(training):
    """A function that empties ``training``'s projection memo, or does
    nothing in a tree without one."""
    memo = getattr(training, "_PROJECTIONS", None)
    return (lambda: None) if memo is None else memo.clear


def batches(mod):
    fns, training = mod("fns"), mod("training")
    forget = _forget_projections(training)
    cfg = fns.FnsTrainConfig()

    def hybrid_batch(train_lambda):
        def build():
            samples = _training_set(mod)
            net = fns._initial_net(cfg, input_dim=2)
            rows = np.zeros((len(samples), (TRAIN_N - 1) ** 2))

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
        return build

    def schedule_batch(variant, precond, log_omega, batch_size, seed):
        def build():
            net = mod("metanet").MetaNet.create(
                3, variant=variant, input_dim=2, learn_log_omega=log_omega,
                seed=seed)
            batch = _training_set(mod)[:batch_size]

            def run():
                forget()
                return training.gradient(*training.loss_relative_residual(
                    batch, net, UNROLL, precond=precond))
            return run
        return build

    def warm_batch(variant, precond, log_omega, batch_size, seed):
        def build():
            net = mod("metanet").MetaNet.create(
                3, variant=variant, input_dim=2, learn_log_omega=log_omega,
                seed=seed)
            batch = _training_set(mod)[:batch_size]
            training.krylov_projection(batch, UNROLL, precond)
            # a tree without the memo has no warm batch: AttributeError
            training._PROJECTIONS
            return lambda: training.gradient(
                *training.loss_relative_residual(batch, net, UNROLL,
                                                 precond=precond))
        return build

    def projection(precond):
        def build():
            project = training.krylov_projection
            samples = _training_set(mod)

            def run():
                forget()
                return project(samples, UNROLL, precond)
            return run
        return build

    def block_diagonal():
        blocks = [s.A for s in _training_set(mod)]
        block_diagonal = mod("sparse").block_diagonal
        return _repeat(lambda: block_diagonal(blocks), REPEATS)

    return {
        "block_diagonal_20x961": (block_diagonal, REPEATS),
        "hybrid_lambda_batch": (hybrid_batch(True), 1),
        "hybrid_omega_batch": (hybrid_batch(False), 1),
        "plain_schedule_batch_5": (
            schedule_batch("plain", None, True, 5, 1), 1),
        "nagex_ssor_schedule_batch_20": (
            schedule_batch("nagex", "ssor", False, 20, 0), 1),
        "plain_warm_batch_5": (warm_batch("plain", None, True, 5, 1), 1),
        "nagex_ssor_warm_batch_20": (
            warm_batch("nagex", "ssor", False, 20, 0), 1),
        "krylov_projection_20": (projection(None), 1),
        "krylov_projection_20_ssor": (projection("ssor"), 1),
    }


def helmholtz(mod):
    problems, multigrid, krylov = (mod("problems"), mod("multigrid"),
                                   mod("fgmres"))
    spec = problems.HelmholtzProblem(angular_frequency=2 * np.pi * FREQUENCY,
                                     n=HELMHOLTZ_N)

    def operator():
        A = problems.assemble_helmholtz(spec)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)
        return A, f

    def matvec():
        A, f = operator()
        return _repeat(lambda: A.matvec(f), MATVECS)

    def v_cycle():
        A, f = operator()
        h = multigrid.helmholtz_hierarchy(A, HELMHOLTZ_N)
        return lambda: multigrid.v_cycle(h, f)

    def restart_cycle():
        A, f = operator()
        cfg = krylov.FgmresConfig(restart=RESTART, tol=1e-300, max_outer=1)

        def run():
            return krylov.fgmres(A, f, None, cfg)

        assert run()[1].iterations == RESTART
        return run

    def smoothing_pass():
        A, f = operator()
        h = multigrid.helmholtz_hierarchy(A, HELMHOLTZ_N)
        u = multigrid.v_cycle(h, f)
        return lambda: multigrid._smooth(h.levels[0], f, u.copy())

    def hierarchy_build():
        A, _ = operator()
        return lambda: multigrid.helmholtz_hierarchy(A, HELMHOLTZ_N)

    return {
        "helmholtz_assembly": (
            lambda: lambda: problems.assemble_helmholtz(spec), 1),
        "complex_fine_matvec": (matvec, MATVECS),
        "v_cycle": (v_cycle, 1),
        "fgmres_arnoldi_step": (restart_cycle, RESTART),
        "nag_smoothing_pass": (smoothing_pass, 1),
        "hierarchy_build": (hierarchy_build, 1),
    }


# name, variant, preconditioner, log-omega output, batch size, seed
FIXTURE_NETS = (("plain", "plain", None, True, 5, 1),
                ("nag", "nag", None, False, 20, 0),
                ("nagex", "nagex", None, False, 20, 0),
                ("nagex_ssor", "nagex", "ssor", False, 20, 0))


def epochs(mod):
    training = mod("training")
    forget = _forget_projections(training)

    def epoch(variant, precond, log_omega, batch_size, seed):
        def build():
            dataset = mod("data").sample_dataset("anisotropic", TRAIN_COUNT,
                                                 seed=42, n=TRAIN_N)
            cfg = training.TrainConfig(
                m=3, unroll=UNROLL, n_epochs=1, batch_size=batch_size,
                seed=seed, variant=variant, precond=precond,
                learn_log_omega=log_omega)

            def run():
                forget()
                return training.train_ns(cfg, dataset)
            return run
        return build

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
    mods = {side: load_package(src, f"richlab_{side}")
            for side, src in (("parent", args.old_src),
                              ("change", args.new_src))}
    op_sets = {side: {name: op for op_set in args.ops
                      for name, op in OP_SETS[op_set](mod).items()}
               for side, mod in mods.items()}
    result = {}
    for name in op_sets["parent"]:
        runs = {}
        for side, ops in op_sets.items():
            build, per = ops[name]
            try:
                runs[side] = build()
            except AttributeError as exc:   # a layer this tree lacks
                print(f"{name}: not in the {side} tree ({exc})")
        times = {side: [] for side in runs}
        faults = {side: [] for side in runs}
        for k in range(args.rounds):
            for side in (list(runs) if k % 2 == 0 else list(runs)[::-1]):
                f0 = _minor_faults()
                t0 = time.perf_counter()
                runs[side]()
                times[side].append((time.perf_counter() - t0) / per)
                faults[side].append((_minor_faults() - f0) / per)
        del runs
        sides = {side: summary(times[side], faults[side]) for side in times}
        line = [f"{name:30s}"]
        for side in ("parent", "change"):
            if side in sides:
                line.append(f"{side} {sides[side]['median_s'] * 1e6:.1f} us"
                            f" ({sides[side]['median_minor_faults']:.0f}"
                            " faults)")
        if len(sides) == 2:
            sides["change_over_parent"] = (sides["change"]["median_s"]
                                           / sides["parent"]["median_s"])
            line.append(f"ratio {sides['change_over_parent']:.3f}")
        result[name] = sides
        print("  ".join(line), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rounds": args.rounds, "ops": args.ops,
                       "environment": environment(), "results": result},
                      fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
