"""Experiment command line: assemble, solve, train, and benchmark grids.

Subcommands
-----------
reproduce  run a benchmark grid (t2 / t3 / t4 / helmholtz-sweep) to CSV
train      fit a weight-schedule network (or the hybrid model) and save it
solve      solve one problem instance with a chosen method
assemble   build an operator and export it in Matrix Market form

Configuration may come from an INI file with one section per subcommand;
command-line flags override file values. Exit codes: 0 success, 1 solver
or training failure (divergence, a failed coarse solve, a non-finite
training loss, an operator that is not SPD where spectral bounds need
one, a zero diagonal under a preconditioner), 2 configuration error
(a path that cannot be read or written included).
"""
from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time

import numpy as np

from .data import assemble, sample_dataset
from .fgmres import FgmresConfig, fgmres
from .metanet import MetaNet, meta_forward
from .multigrid import (HELMHOLTZ_COARSEST, CoarseSolveError,
                        coarsening_sides, helmholtz_hierarchy, v_cycle)
from .precond import ZeroDiagonalError
from .problems import (MIN_POINTS_PER_WAVELENGTH, AnisotropicProblem,
                       HelmholtzProblem)
from .richardson import DivergenceError, solve_stationary
from .schedules import (WeightSchedule, chebyshev_schedule,
                        chebyshev_semi_schedule)
from .sparse import write_matrix_market
from .spectral import NotSPDError, dense_spectral_bounds
from .training import (NanLossError, TrainConfig, TrainingDiverged,
                       make_preconditioner, train_ns)

CSV_COLUMNS = ["table", "eps", "theta", "n", "method", "m", "precond",
               "seed", "inner_iters", "outer_iters", "converged",
               "rel_residual", "setup_ms", "wall_ms"]

THETA_GRID = [0.0, np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3,
              5 * np.pi / 6, np.pi]
N_GRID_FULL = [32, 64, 128, 256, 512]
EPS_GRID = [1.0, 1e-2, 1e-4, 1e-6]

HELMHOLTZ_N_MIN = 64
DESK_N_LIMIT = 128
DESK_TRAIN_LIMIT = 500


class ConfigError(ValueError):
    pass


# -- configuration plumbing ---------------------------------------------

def _load_config(path, section):
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if section not in parser:
        return {}
    return dict(parser[section])


def _file_value(action, raw):
    """A config file's string for the flag ``action``, converted and
    checked as argparse converts and checks the flag's own values, or
    ValueError."""
    if action.nargs == 0:   # a switch such as --full
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ValueError(f"{raw!r} is not a boolean")
        return states[raw.lower()]
    value = raw if action.type is None else action.type(raw)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {raw!r} (choose from "
                         f"{', '.join(map(str, action.choices))})")
    return value


def _parse(argv):
    """The command line parsed over the config file's values: each file
    value goes through its subcommand flag's type and choices and becomes
    that flag's default, so a flag given on the command line wins."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    sub = subparsers[args.command]
    flags = {action.dest: action for action in sub._actions
             if action.option_strings and action.dest != "help"}
    for key, raw in _load_config(args.config, args.command).items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r} in "
                              f"[{args.command}]")
        try:
            sub.set_defaults(**{action.dest: _file_value(action, raw)})
        except ValueError as exc:
            raise ConfigError(f"config key {key!r} in [{args.command}]: "
                              f"{exc}") from None
    return parser.parse_args(argv)


def _print_config(args):
    print(f"[{args.command}]")
    for key in sorted(vars(args)):
        if key in ("command", "print_config", "func"):
            continue
        print(f"{key.replace('_', '-')} = {getattr(args, key)}")


# -- shared solve helpers ------------------------------------------------

def _schedule_for(args, A):
    """Resolve the weight source into a WeightSchedule."""
    source = args.weights
    if source == "chebyshev":
        b = dense_spectral_bounds(A)
        return chebyshev_schedule(b.lambda_max, b.lambda_min, args.m)
    if source == "semi":
        b = dense_spectral_bounds(A)
        return chebyshev_semi_schedule(b.lambda_max, args.m,
                                       alpha=args.semi_alpha)
    if source == "literal":
        return WeightSchedule(omega=_literal_weights(args.omega))
    # checkpoint path
    net = MetaNet.load(source)
    prob = _make_problem(args)
    return meta_forward(net, prob.mu)


def _literal_weights(text):
    """The comma list of ``--omega`` as an array; a ConfigError names the
    entry that is not a number."""
    weights = []
    for entry in text.split(","):
        try:
            weights.append(float(entry))
        except ValueError:
            raise ConfigError(f"--omega entry {entry!r} in {text!r} is not "
                              "a number") from None
    return np.array(weights)


def _check_flags(args, positive, **minimums):
    """Refuse the ``positive`` flag unless it is above 0, and a flag in
    ``minimums`` below its minimum; the ConfigError names flag and value."""
    for dest, low in [(positive, None), *minimums.items()]:
        value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
        if low is None and not value > 0:
            raise ConfigError(f"{flag} must be positive, got {value:g}")
        if low is not None and value < low:
            raise ConfigError(f"{flag} must be at least {low}, got {value}")


def _make_problem(args):
    if args.problem == "anisotropic":
        return AnisotropicProblem(epsilon=args.eps, theta=args.theta,
                                  n=args.n)
    return HelmholtzProblem(angular_frequency=2 * np.pi * args.frequency,
                            n=args.n)


# -- reproduce ----------------------------------------------------------

def _helmholtz_n(freq, n):
    """Grid side for a Helmholtz frequency.

    An explicit ``n`` must resolve the wavelength and coarsen to the
    recipe's coarsest grid; otherwise the smallest power of two
    >= HELMHOLTZ_N_MIN that resolves it is chosen.
    """
    def resolved(side):
        prob = HelmholtzProblem(angular_frequency=2 * np.pi * freq, n=side)
        return prob.wavelength_cells >= MIN_POINTS_PER_WAVELENGTH

    if n is not None:
        if not resolved(n):
            raise ConfigError(
                f"--n {n} gives fewer than {MIN_POINTS_PER_WAVELENGTH:g} "
                f"grid points per wavelength at frequency {freq:g}")
        try:
            coarsening_sides(n, HELMHOLTZ_COARSEST)
        except ValueError as exc:
            raise ConfigError(f"--n {n}: {exc}") from None
        return n
    n = HELMHOLTZ_N_MIN
    while not resolved(n):
        n *= 2
    return n


def _grid_cells(table, args):
    """Deterministic cell list for a benchmark table."""
    cells = []
    seeds = list(range(args.seeds))
    n_fixed = 64 if args.n is None else args.n
    if table == "t2":
        for eps in EPS_GRID:
            for method in ("cheb", "semi", "learned"):
                for seed in seeds:
                    cells.append(dict(table="t2", eps=eps, theta=0.0,
                                      n=n_fixed, method=method, seed=seed))
    elif table == "t3":
        for theta in THETA_GRID:
            for method in ("cheb", "learned"):
                for seed in seeds:
                    cells.append(dict(table="t3", eps=1e-2, theta=theta,
                                      n=n_fixed, method=method, seed=seed))
    elif table == "t4":
        ns = [n for n in N_GRID_FULL if args.full or n <= DESK_N_LIMIT]
        for n in ns:
            for method in ("cheb", "learned"):
                for seed in seeds:
                    cells.append(dict(table="t4", eps=1e-2, theta=0.0,
                                      n=n, method=method, seed=seed))
    elif table == "helmholtz-sweep":
        freqs = [3.0, 5.0] if not args.full else [3.0, 5.0, 10.0, 20.0]
        for freq in freqs:
            n = _helmholtz_n(freq, args.n)
            for method in ("fgmres-identity", "fgmres-vcycle"):
                for seed in seeds:
                    cells.append(dict(table="helmholtz-sweep", eps="",
                                      theta=freq, n=n, method=method,
                                      seed=seed))
    else:
        raise ConfigError(f"unknown table id {table!r}")
    if table != "helmholtz-sweep":   # refuse a bad side before any row
        for cell in cells:
            AnisotropicProblem(epsilon=cell["eps"], theta=cell["theta"],
                               n=cell["n"])
    return cells


def _cached(cache, key, build):
    """(cache[key], seconds spent building it): build() runs on a miss."""
    if key in cache:
        return cache[key], 0.0
    t0 = time.perf_counter()
    cache[key] = build()
    return cache[key], time.perf_counter() - t0


def _run_cell(cell, args, cache):
    """One benchmark grid cell -> CSV row dict.

    ``setup_ms`` is the time spent building the cell's cached operator,
    bounds or hierarchy, or loading the network, so it is nonzero only on
    the first row that needs them; ``wall_ms`` times the solve alone.
    """
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(table=cell["table"], eps=cell["eps"], theta=cell["theta"],
               n=cell["n"], method=cell["method"], m=args.m, precond="none",
               seed=cell["seed"])
    if cell["method"] == "learned" and not args.checkpoint:
        row["method"] = "skipped"
        return row
    rng = np.random.default_rng(cell["seed"])
    if cell["table"] == "helmholtz-sweep":
        prob = HelmholtzProblem(angular_frequency=2 * np.pi * cell["theta"],
                                n=cell["n"])

        def build():
            A = assemble(prob)
            return A, helmholtz_hierarchy(A, cell["n"])

        (A, h), setup = _cached(cache, ("H", cell["n"], cell["theta"]), build)
        t0 = time.perf_counter()
        f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)
        pre = (lambda r: v_cycle(h, r)) \
            if cell["method"] == "fgmres-vcycle" else None
        row["precond"] = "vcycle-nag5" \
            if cell["method"] == "fgmres-vcycle" else "identity"
        _, rep = fgmres(A, f, precond_apply=pre,
                        cfg=FgmresConfig(restart=20, tol=args.tol,
                                         max_outer=200))
    else:
        prob = AnisotropicProblem(epsilon=cell["eps"], theta=cell["theta"],
                                  n=cell["n"])

        def build():
            A = assemble(prob)
            return A, dense_spectral_bounds(A)

        (A, b), setup = _cached(
            cache, ("A", cell["n"], cell["eps"], cell["theta"]), build)
        if cell["method"] == "cheb":
            sched = chebyshev_schedule(b.lambda_max, b.lambda_min, args.m)
        elif cell["method"] == "semi":
            sched = chebyshev_semi_schedule(b.lambda_max, args.m)
        else:  # learned, on the net cmd_reproduce loaded
            setup += cache.pop("net_s", 0.0)
            sched = meta_forward(cache["net"], prob.mu)
        t0 = time.perf_counter()
        f = rng.standard_normal(A.ncols)
        _, rep = solve_stationary(A, f, sched, tol=args.tol,
                                  max_outer=args.max_outer)
    row.update(inner_iters=rep.inner_iterations,
               outer_iters=rep.iterations, converged=rep.converged,
               rel_residual=f"{rep.final_relative_residual:.6e}",
               setup_ms=f"{1e3 * setup:.1f}",
               wall_ms=f"{1e3 * (time.perf_counter() - t0):.1f}")
    return row


def cmd_reproduce(args):
    # every flag is checked before the CSV header is written
    _check_flags(args, "tol", seeds=1, max_outer=1, m=1)
    if args.full:
        print("# --full grid requested; expect hours of CPU time at the "
              "largest sizes", file=sys.stderr)
    cells = _grid_cells(args.table, args)
    cache = {}
    if args.checkpoint and any(c["method"] == "learned" for c in cells):
        # loaded before the header, so a bad checkpoint prints no row; the
        # first learned row charges the load to its setup_ms
        t0 = time.perf_counter()
        cache["net"] = MetaNet.load(args.checkpoint)
        cache["net_s"] = time.perf_counter() - t0
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS,
                                quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for cell in cells:
            writer.writerow(_run_cell(cell, args, cache))
    finally:
        if args.output:
            out.close()
    return 0


# -- train / solve / assemble -------------------------------------------

def cmd_train(args):
    # every flag is checked before the dataset is sampled
    _check_flags(args, "lr", count=1, epochs=1, batch_size=1, unroll=0, m=1)
    if args.count > DESK_TRAIN_LIMIT and not args.full:
        raise ConfigError(
            f"training-set size {args.count} above the desk-scale limit "
            f"{DESK_TRAIN_LIMIT}; pass --full to proceed")
    if args.model == "fns" and (args.variant != "plain" or args.precond):
        flag = (f"--variant {args.variant}" if args.variant != "plain"
                else f"--precond {args.precond}")
        raise ConfigError(f"{flag} does not apply to --model fns, whose "
                          "smoother is plain, unpreconditioned Richardson")
    if args.model == "schedule":
        cfg = TrainConfig(m=args.m, unroll=args.unroll,
                          n_epochs=args.epochs, batch_size=args.batch_size,
                          learning_rate=args.lr, seed=args.seed,
                          variant=args.variant, precond=args.precond)
    else:
        from .fns import FnsTrainConfig, train_fns_lite
        # one hybrid step per ten inner updates, at least one
        cfg = FnsTrainConfig(m=args.m, unroll=max(1, args.unroll // 10),
                             n_epochs=args.epochs,
                             batch_size=args.batch_size,
                             learning_rate=args.lr, seed=args.seed)
    ds = sample_dataset("anisotropic", args.count, seed=args.seed, n=args.n)
    if args.model == "schedule":
        net = train_ns(cfg, ds)
        net.save(args.output, extra_metadata={"epochs": args.epochs,
                                              "unroll": args.unroll})
        best = net.training_history["val"][net.best_epoch]
        closed = net.training_history["krylov_closed"]
        if closed:
            print(f"{closed} of {len(ds)} samples' Krylov spaces closed "
                  f"before {args.unroll} steps")
        print(f"saved {args.output} (best validation loss {best:.4g} at "
              f"epoch {net.best_epoch})")
    else:
        model = train_fns_lite(cfg, ds)
        model.save(args.output)
        print(f"saved {args.output}")
    return 0


def cmd_solve(args):
    # every flag is checked before the first line is printed
    _check_flags(args, "tol", max_outer=1, m=1)
    prob = _make_problem(args)
    A = assemble(prob)
    sched = _schedule_for(args, A)
    P = make_preconditioner(args.precond, A)
    print(f"# stopping rule: relative residual < {args.tol:g}")
    f = np.random.default_rng(args.seed).standard_normal(A.ncols)
    if A.is_complex:
        f = f + 1j * np.random.default_rng(args.seed + 1).standard_normal(A.ncols)
    u, rep = solve_stationary(A, f, sched, P=P, tol=args.tol,
                              max_outer=args.max_outer)
    bound = "" if rep.sweep_bound is None else f" bound={rep.sweep_bound:.3g}"
    print(f"converged={rep.converged} outer={rep.iterations} "
          f"inner={rep.inner_iterations} "
          f"rel_residual={rep.final_relative_residual:.3e} "
          f"sweep={rep.sweep_form}{bound} wall={rep.wall_time:.3f}s")
    if args.output:
        np.save(args.output, u)
    return 0 if rep.converged else 1


def cmd_assemble(args):
    prob = _make_problem(args)
    A = assemble(prob)
    print(f"assembled {args.problem} operator: {A.nrows}x{A.ncols}, "
          f"{A.nnz} nonzeros")
    if args.export:
        write_matrix_market(args.export, A)
        print(f"wrote {args.export}")
    return 0


# -- parser --------------------------------------------------------------

def _add_problem_flags(p):
    p.add_argument("--problem", choices=["anisotropic", "helmholtz"],
                   default="anisotropic")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--frequency", type=float, default=5.0,
                   help="Helmholtz frequency (angular frequency / 2 pi)")
    p.add_argument("--n", type=int, default=64)


def build_parser():
    subparsers = {}
    parser = argparse.ArgumentParser(
        prog="richlab", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None,
                        help="INI file with one section per subcommand")
    parser.add_argument("--print-config", action="store_true",
                        help="dump the fully resolved configuration and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run a benchmark grid to CSV")
    p.add_argument("table", choices=["t2", "t3", "t4", "helmholtz-sweep"])
    p.add_argument("--n", type=int, default=None,
                   help="grid-size override for fixed-size tables")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--max-outer", type=int, default=100_000)
    p.add_argument("--checkpoint", default=None,
                   help="schedule-network checkpoint for learned rows")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.add_argument("--full", action="store_true",
                   help="full-scale grid instead of the desk-scale budget")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("train", help="fit and save a model")
    p.add_argument("--model", choices=["schedule", "fns"], default="schedule")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--variant",
                   choices=["plain", "mom", "nag", "nagex"], default="plain")
    p.add_argument("--precond", choices=["ssor", "jacobi", "gs"],
                   default=None)
    p.add_argument("--unroll", type=int, default=50)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true")
    p.add_argument("--output", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve one instance")
    _add_problem_flags(p)
    p.add_argument("--weights", default="chebyshev",
                   help="chebyshev | semi | literal | <checkpoint path>")
    p.add_argument("--semi-alpha", type=float, default=1.0 / 30.0)
    p.add_argument("--omega", default="0.1",
                   help="comma list for --weights literal")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--precond", choices=["ssor", "jacobi", "gs"],
                   default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-outer", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="save the iterate (.npy)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("assemble", help="assemble and optionally export")
    _add_problem_flags(p)
    p.add_argument("--export", default=None, help="Matrix Market path")
    p.set_defaults(func=cmd_assemble)

    subparsers.update(sub.choices)
    return parser, subparsers


def main(argv=None):
    try:
        args = _parse(argv)
        if args.print_config:
            _print_config(args)
            return 0
        return args.func(args)
    # the numerical failures subclass ValueError, so they come first
    except NotSPDError as exc:
        print(f"spectral bounds failed: {exc}", file=sys.stderr)
        return 1
    except ZeroDiagonalError as exc:
        print(f"preconditioner failed: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 1
    except CoarseSolveError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    except (TrainingDiverged, NanLossError) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
