"""SSOR layer timings of two source trees, interleaved in one process.

Times, for each tree, one ``Preconditioner.ssor`` build at n=32 and one
forward and one transposed apply over a 20-row stack (one preconditioner
per row, as a preconditioned training batch runs them) on the anisotropic
set of ``benchmarks/test_layers.py``. The trees alternate within every
round, and which goes first alternates between rounds, so both see the
same machine load. Run from the repository root:

    PYTHONPATH=src python benchmarks/interleave_precond.py \\
        OLD_SRC NEW_SRC --rounds 300 --json out.json

Each tree's ``richlab/precond.py`` is loaded on its own; it imports only
numpy and scipy. The dataset and the row-stack map (``training._rowwise``)
come from the ``richlab`` on PYTHONPATH.
"""
import argparse
import importlib.util
import json
import time
from pathlib import Path

import numpy as np

from richlab.data import sample_dataset
from richlab.training import _rowwise

OPS = ("ssor_build", "apply_20_rows", "apply_transpose_20_rows")


def load_precond(src, name):
    spec = importlib.util.spec_from_file_location(
        name, Path(src) / "richlab" / "precond.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_round(precond, rowwise, samples, X, k):
    """Seconds of each op in OPS, the applies through the (apply,
    apply_transpose) pair ``rowwise``; the build cycles through the
    samples."""
    apply, apply_t = rowwise
    t0 = time.perf_counter()
    precond.Preconditioner.ssor(samples[k % len(samples)].A)
    t1 = time.perf_counter()
    apply(X)
    t2 = time.perf_counter()
    apply_t(X)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def summary(times):
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(med), "q1_s": float(q1), "q3_s": float(q3)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--rounds", type=int, default=300)
    ap.add_argument("--json")
    args = ap.parse_args()
    trees = {"parent": load_precond(args.old_src, "precond_parent"),
             "change": load_precond(args.new_src, "precond_change")}
    samples = list(sample_dataset("anisotropic", 20, seed=0, n=32))
    X = np.stack([s.f for s in samples])
    built = {side: _rowwise([precond.Preconditioner.ssor(s.A)
                             for s in samples])
             for side, precond in trees.items()}
    times = {side: {op: [] for op in OPS} for side in trees}
    for k in range(args.rounds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for side in order:
            for op, t in zip(OPS, one_round(trees[side], built[side],
                                             samples, X, k)):
                times[side][op].append(t)
    result = {op: {side: summary(times[side][op]) for side in trees}
              for op in OPS}
    for op, sides in result.items():
        sides["change_over_parent"] = (sides["change"]["median_s"]
                                       / sides["parent"]["median_s"])
        print(f"{op:26s} parent {sides['parent']['median_s'] * 1e3:.3f} ms"
              f"  change {sides['change']['median_s'] * 1e3:.3f} ms"
              f"  ratio {sides['change_over_parent']:.3f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rounds": args.rounds, "results": result}, fh,
                      indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
