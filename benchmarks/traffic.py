"""Count what one round of each benchmark workload asks of the library.

    python benchmarks/traffic.py --size full

Run from the repository root. Each workload of ``perfbench/workloads.py``
is imported as it is, set up as the benchmark sets it up, and run for
``ROUNDS`` rounds under counting patches; of set-up, only its scipy-view
builds are reported. Per workload it prints, for the first round:

- products by route: a bound operator's probed ``matvec`` and its
  accumulating y += A x (``accumulate``), both of ``sparse._Operator``,
  and a matrix's own ``SparseMatrix.matvec`` and ``rmatvec``, which
  bind the CSR product on each call (the V-cycle's restrictions by
  ``matvec`` and its prolongations by ``rmatvec``, the projection's
  A x in ``training``, and one-off products);
- operator binds (``_Operator`` built: once per solve, and once per
  V-cycle level on its first product, which a hierarchy keeps across
  rounds) and the scipy CSR views built (``SparseMatrix._csr`` on first
  use: ``to_scipy`` and ``to_dense``), in set-up and in each round;
- stationary solver updates by (sweep form, variant, preconditioner),
  from each ``solve_stationary`` report, with the solve count;
- ``training._unroll`` calls on the schedule nets' projected
  (B, K+1, K+1) stacks ("H stack");

and, for each round, the Krylov projections ``training`` computed
(``_arnoldi`` runs, wherever they come from) and the samples whose
projection the memo served to ``train_ns``'s up-front pass (its
``projection_reused``; the batches' lookups are not counted). The
benchmark trains every round on the dataset it set up, so after the
first round nothing should be computed and every sample served.

The counts say which library paths a workload exercises, so a fast path
that no workload runs shows up as a zero. ``--size small`` runs the
benchmark's reduced sizes (its own tests use them).
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True   # nothing is written next to perfbench

from richlab import richardson, training  # noqa: E402
from richlab.sparse import SparseMatrix, _Operator  # noqa: E402
import workloads  # noqa: E402

# the first round projects the training sets; the second shows what the
# projection memo serves when the same sets are trained on again
ROUNDS = 2
# the product routes, in the order the products line lists them
PRODUCTS = ("bound matvec", "bound accumulate", "matvec", "rmatvec")


def _precond_name(P):
    """The builder that made P, read off its apply closure
    (``Preconditioner.ssor.<locals>.<lambda>`` names ``ssor``)."""
    return "none" if P is None else P._apply.__qualname__.split(".")[1]


@contextlib.contextmanager
def counting(counts):
    """Install the counters of ``counts`` (a Counter keyed by tuples)
    for the duration of the block."""
    matvec, rmatvec = SparseMatrix.matvec, SparseMatrix.rmatvec
    bind, bound_matvec = _Operator.__init__, _Operator.matvec
    accumulate = _Operator.accumulate.fget
    solve = richardson.solve_stationary
    arnoldi, train_ns = training._arnoldi, training.train_ns
    unroll = training._unroll
    view = SparseMatrix.__dict__["_csr"]

    def counted_matvec(self, x):
        counts["product", "matvec"] += 1
        return matvec(self, x)

    def counted_rmatvec(self, x):
        counts["product", "rmatvec"] += 1
        return rmatvec(self, x)

    def counted_bind(self, A):
        counts["build", "operator"] += 1
        bind(self, A)

    def counted_bound_matvec(self, x):
        counts["product", "bound matvec"] += 1
        return bound_matvec(self, x)

    @property
    def counted_accumulate(self):
        run = accumulate(self)

        def counted(x, y):
            counts["product", "bound accumulate"] += 1
            return run(x, y)
        return counted

    @functools.cached_property
    def counted_view(self):
        counts["build", "scipy view"] += 1
        return view.func(self)
    counted_view.__set_name__(SparseMatrix, "_csr")

    def counted_solve(A, f, schedule, P=None, **kwargs):
        u, report = solve(A, f, schedule, P=P, **kwargs)
        key = (report.sweep_form, schedule.variant, _precond_name(P))
        counts[("updates",) + key] += report.inner_iterations
        counts[("solves",) + key] += 1
        return u, report

    def counted_arnoldi(*args):
        counts["projections", "computed"] += 1
        return arnoldi(*args)

    def counted_train_ns(config, dataset):
        net = train_ns(config, dataset)
        counts["projections", "served"] += \
            net.training_history["projection_reused"]
        return net

    def counted_unroll(*args, **kwargs):
        counts["unroll", "H stack"] += 1
        return unroll(*args, **kwargs)

    replacements = {
        (SparseMatrix, "matvec"): counted_matvec,
        (SparseMatrix, "rmatvec"): counted_rmatvec,
        (_Operator, "__init__"): counted_bind,
        (_Operator, "matvec"): counted_bound_matvec,
        (_Operator, "accumulate"): counted_accumulate,
        (SparseMatrix, "_csr"): counted_view,
        (richardson, "solve_stationary"): counted_solve,
        (training, "_arnoldi"): counted_arnoldi,
        (training, "train_ns"): counted_train_ns,
        (training, "_unroll"): counted_unroll,
    }
    original = {key: getattr(*key) for key in replacements}
    try:
        for (owner, name), fn in replacements.items():
            setattr(owner, name, fn)
        yield counts
    finally:
        for (owner, name), fn in original.items():
            setattr(owner, name, fn)


def traffic(name, sizes, seed=0):
    """The Counters of workload ``name`` at ``sizes``: its set-up's, then
    one per round of its ``ROUNDS`` rounds."""
    wl = workloads.WORKLOADS[name](seed, sizes)
    setup = collections.Counter()
    with counting(setup):
        for unit in wl.setup_units():
            unit()
    wl.prepare_checks()
    per_round = []
    for _ in range(ROUNDS):
        counts = collections.Counter()
        with counting(counts):
            ops = wl.round()
        failed = [op.label for op in ops if not op.ok]
        if failed:
            raise SystemExit(f"error: {name}: operations failed: {failed}")
        per_round.append(counts)
    return setup, per_round


def report(name, setup, per_round):
    counts = per_round[0]

    def cells(section, kinds):
        return ", ".join(f"{kind} {counts[section, kind]:,}"
                         for kind in kinds) or "none"

    unrolls = sorted(k[1] for k in counts if k[0] == "unroll")
    solves = sorted(k[1:] for k in counts if k[0] == "solves")
    lines = [f"{name}:",
             f"  products: {cells('product', PRODUCTS)}",
             "  operator binds (set-up; by round): "
             + "; ".join(f"{c['build', 'operator']:,}"
                         for c in [setup, *per_round])
             + "; scipy views (set-up; by round): "
             + "; ".join(f"{c['build', 'scipy view']:,}"
                         for c in [setup, *per_round]),
             f"  _unroll calls: {cells('unroll', unrolls)}",
             "  projections (computed / served to train_ns by the memo), "
             "by round: "
             + "; ".join(f"{c['projections', 'computed']:,} / "
                         f"{c['projections', 'served']:,}"
                         for c in per_round),
             "  solver updates (sweep form, variant, preconditioner):"
             + ("" if solves else " none")]
    for key in solves:
        lines.append(f"    {', '.join(map(str, key))}: "
                     f"{counts[('updates',) + key]:,} in "
                     f"{counts[('solves',) + key]:,} solves")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("small", "full"), default="full")
    args = ap.parse_args(argv)
    sizes = workloads.SMALL if args.size == "small" else workloads.FULL
    for name in workloads.WORKLOADS:
        print(report(name, *traffic(name, sizes)), flush=True)


if __name__ == "__main__":
    main()
