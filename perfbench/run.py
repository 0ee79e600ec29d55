"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload aniso-solve --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run sets up its inputs (several times, reporting the median
set-up time), then repeats whole rounds of the workload's operations
until ``--seconds`` have passed, checks every output, and prints one
JSON object as the last line of standard output. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, taken from traced rounds
that alternate with untraced ones to measure the tracing overhead.
Raw results go to ``perfbench/results/`` and spans to ``perfbench/traces/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cpus):
            os.environ[var] = str(cpus)
    return cpus


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced sizes for the benchmark's own tests")
    return p.parse_args(argv)


def import_package():
    """Import richlab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "richlab" / "__init__.py").is_file():
        sys.exit(f"error: no richlab sources under {src}")
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    import richlab
    if Path(richlab.__file__).resolve().parent != (src / "richlab").resolve():
        sys.exit(f"error: richlab imported from {richlab.__file__}")


def git_sha():
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, cpus):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": cpus,
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    cpus = blas_threads()
    import_package()
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMALL if args.size == "small" else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
    tracer = tracing.Tracer() if args.trace else None

    def traced(name):
        if tracer is None:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(tracer.installed())
        stack.enter_context(tracer.span(name))
        return stack

    setup_times = []
    for unit in wl.setup_units():
        with traced(tracing.SETUP_SPAN):
            t0 = time.perf_counter()
            unit()
            setup_times.append(time.perf_counter() - t0)
    wl.prepare_checks()

    # whole rounds until the run length has passed; a traced run
    # alternates traced and untraced rounds, starting traced
    rounds = []
    start = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(rounds) % 2 == 0
        with traced(tracing.ROUND_SPAN) if is_traced else \
                contextlib.nullcontext():
            ops = wl.round()
        rounds.append((is_traced, ops))
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(rounds) >= 2):
            break
    problems_found = wl.check()

    all_ops = [op for _, ops in rounds for op in ops]
    failed = sum(not op.ok for op in all_ops)
    per_round = [dict(traced=t,
                      solve_s=sum(o.seconds for o in ops if o.kind == "solve"),
                      work_s=sum(o.seconds for o in ops),
                      iterations=sum(o.iterations for o in ops))
                 for t, ops in rounds]
    if len({r["iterations"] for r in per_round}) > 1:
        problems_found.append("iteration counts differ between rounds")

    if tracer is None:
        metrics = {
            "setup_s": median(setup_times),
            "solve_s": median([r["solve_s"] for r in per_round]),
            "work_s": median([r["work_s"] for r in per_round]),
            "iterations": median([r["iterations"] for r in per_round]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        metrics = tracing.summarise(tracer)
        on = median([r["work_s"] for r in per_round if r["traced"]])
        off = median([r["work_s"] for r in per_round if not r["traced"]])
        metrics["trace.overhead_pct"] = 100.0 * (on / off - 1.0)
        wanted = spec["per_layer"]

    env = environment(args, cpus)
    env.update(attempted=len(all_ops), failed=failed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    detail = {"env": env, "setup_s": setup_times, "rounds": per_round,
              "problems": problems_found, "metrics": metrics,
              "failed_ops": [vars(op) for op in all_ops if not op.ok],
              "last_round": [vars(op) for op in rounds[-1][1]]}
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    (BENCH_DIR / "results" / f"{tag}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")
    if tracer is not None:
        (BENCH_DIR / "traces").mkdir(exist_ok=True)
        tracer.save(BENCH_DIR / "traces" / f"{tag}.npz")

    for text in problems_found:
        print(f"check failed: {text}", file=sys.stderr)
    for op in all_ops:
        if not op.ok:
            print(f"op failed: {op.label}: {op.detail}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not problems_found,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
