"""Spectral set-up of two source trees, one fresh process per call.

For every anisotropic cell (eps, theta, n) and round, each tree's
``dense_spectral_bounds`` runs once in a process of its own, so peak
RSS belongs to that call, and which tree goes first alternates between
rounds and cells. A process times one call and reads its peak RSS,
then counts the work of a second call: products with A in plain
Lanczos, shift-invert solves, and banded Cholesky factorisations
(failed ones included). Per cell and tree the record holds the median,
minimum and maximum wall time over the rounds, the median peak RSS,
the counts (which repeat exactly), and the bounds. Run from the
repository root:

    python benchmarks/spectral_cells.py OLD_SRC NEW_SRC --rounds 3 \\
        --json out.json
"""
import argparse
import json
import math
import resource
import subprocess
import sys
import time

import numpy as np

CELLS = [(1.0, 0.0), (1e-2, math.pi / 3), (1e-6, 0.0)]
SIZES = [64, 128, 256]


def one(src, eps, theta, n):
    """Time, then count, the bounds of one cell with the tree at src."""
    sys.path.insert(0, src)
    import scipy.linalg
    import scipy.sparse.linalg
    from richlab import problems, spectral

    A = problems.assemble_anisotropic(
        problems.AnisotropicProblem(epsilon=eps, theta=theta, n=n))
    t0 = time.perf_counter()
    b = spectral.dense_spectral_bounds(A)
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = {"products": 0, "solves": 0, "factorisations": 0}
    eigsh, cholesky = scipy.sparse.linalg.eigsh, scipy.linalg.cholesky_banded

    def counted(op, key):
        op = scipy.sparse.linalg.aslinearoperator(op)

        def matvec(x):
            counts[key] += 1
            return op.matvec(x)
        return scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec,
                                                  dtype=float)

    def counting_eigsh(M, *args, **kwargs):
        if kwargs.get("sigma") is None:
            M = counted(M, "products")
        else:
            kwargs["OPinv"] = counted(kwargs["OPinv"], "solves")
        return eigsh(M, *args, **kwargs)

    def counting_cholesky(*args, **kwargs):
        counts["factorisations"] += 1
        return cholesky(*args, **kwargs)

    scipy.sparse.linalg.eigsh = counting_eigsh
    scipy.linalg.cholesky_banded = counting_cholesky
    spectral.dense_spectral_bounds(A)
    return {"wall_s": wall, "peak_rss_mb": rss, **counts,
            "lambda_min": b.lambda_min, "lambda_max": b.lambda_max}


def run_one(src, eps, theta, n):
    out = subprocess.run(
        [sys.executable, __file__, src, src, "--one", src, repr(eps),
         repr(theta), str(n)], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def summarise(runs):
    walls = [r["wall_s"] for r in runs]
    counted = {k: v for k, v in runs[0].items()
               if k not in ("wall_s", "peak_rss_mb")}
    assert all({k: r[k] for k in counted} == counted for r in runs)
    return {"wall_s_median": float(np.median(walls)),
            "wall_s_min": min(walls), "wall_s_max": max(walls),
            "peak_rss_mb_median": float(np.median(
                [r["peak_rss_mb"] for r in runs])), **counted}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--json")
    ap.add_argument("--one", nargs=4, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        src, eps, theta, n = args.one
        print(json.dumps(one(src, float(eps), float(theta), int(n))))
        return
    sides = [("parent", args.old_src), ("change", args.new_src)]
    records = []
    for k, ((eps, theta), n) in enumerate(
            (cell, n) for n in args.sizes for cell in CELLS):
        runs = {side: [] for side, _ in sides}
        for r in range(args.rounds):
            first = (k + r) % 2
            for side, src in sides[first:] + sides[:first]:
                runs[side].append(run_one(src, eps, theta, n))
        record = {"eps": eps, "theta": theta, "n": n,
                  **{side: summarise(runs[side]) for side in runs}}
        records.append(record)
        p, c = record["parent"], record["change"]
        print(f"eps={eps:g} theta={theta:.3f} n={n}: wall"
              f" {p['wall_s_median']:.3f} -> {c['wall_s_median']:.3f} s,"
              f" products {p['products']} -> {c['products']}, solves"
              f" {p['solves']} -> {c['solves']}, peak RSS"
              f" {p['peak_rss_mb_median']:.0f} ->"
              f" {c['peak_rss_mb_median']:.0f} MB", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rounds": args.rounds, "records": records}, fh,
                      indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
