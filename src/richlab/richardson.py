"""The Richardson(m) sweep family with momentum and preconditioning.

One outer sweep applies the m inner updates of the selected variant,
with the preconditioner applied to every residual. The velocity vector
persists across outer sweeps and is reset only at solver entry.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

DIVERGENCE_FACTOR = 1e12


class DivergenceError(RuntimeError):
    def __init__(self, message, inner_iteration):
        super().__init__(message)
        self.inner_iteration = inner_iteration


@dataclass
class SolveReport:
    iterations: int            # outer sweeps (a trailing partial sweep counts)
    inner_iterations: int
    converged: bool
    final_relative_residual: float
    wall_time: float
    trace: np.ndarray          # relative residual per outer sweep, trace[0] = initial guess
    stagnated: bool = False
    restarts: int = 0          # FGMRES restart cycles run, the first included
    matvecs: int = 0           # products with the operator, recomputes included
    precond_applies: int = 0   # preconditioner applications B^{-1} r


def _norm(r):
    """``np.linalg.norm`` of a float or complex vector by the same float
    operations, without its dispatch: the solver takes one per update."""
    if r.dtype.kind == "c":
        return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
    return math.sqrt(r.dot(r))


def _inner_step(A, f, u, v, variant, P=None):
    """The inner update of ``variant``, in place on the iterate u and the
    velocity v, as a function ``step(w, a, at, r=None)`` of the weight w
    and the momentum coefficients a (alpha) and at (alpha_tilde). It is
    built once per solve or smoothing pass, so that an update runs only
    its own products and ufuncs.

    ``r`` is the step residual when the caller already has it: f - A u
    for plain and mom, f - A (u + at v) at the nag/nagex look-ahead
    point. It is read, never written. Otherwise the step takes it
    through ``A.matvec``. The float operations are those of
    v <- a v + w B^{-1} r, u <- u + v.
    """
    precondition = None if P is None else P._apply
    momentum = variant != "plain"
    # scratch for the look-ahead point
    look = np.empty_like(u) if variant in ("nag", "nagex") else None

    def step(w, a, at, r=None):
        if r is None:
            x = u
            if look is not None:
                x = np.multiply(v, at, out=look)
                x += u
            r = A.matvec(x)
            np.subtract(f, r, out=r)
        z = r if precondition is None else precondition(r)
        if momentum:
            np.multiply(v, a, out=v)
            np.add(v, z * w, out=v)
        else:
            np.multiply(z, w, out=v)
        np.add(u, v, out=u)

    return step


def solve_stationary(A, f, schedule, P=None, tol=1e-6, max_outer=100_000,
                     u0=None):
    """Iterate outer sweeps from a zero initial guess until the relative
    residual drops below ``tol`` or ``max_outer`` sweeps elapse.

    Convergence is tested at sweep boundaries only (the benchmark
    convention): cyclic weight schedules show transient mid-sweep
    residual dips that would otherwise stop the iteration early.

    Every residual whose norm is taken runs through the matrix's
    unprobed product. A finite norm shows that the product held no NaN,
    so it has ``matvec``'s bytes; a non-finite one is recomputed by
    ``matvec`` before the divergence test, and counts as one more
    product in ``report.matvecs``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    n = A.ncols
    f = np.asarray(f)
    dtype = np.promote_types(A.dtype, f.dtype)
    u = np.zeros(n, dtype=dtype) if u0 is None else np.array(u0, dtype=dtype)
    v = np.zeros(n, dtype=dtype)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        report = SolveReport(0, 0, True, 0.0, time.perf_counter() - t0,
                             np.array([0.0]))
        return u, report

    m = schedule.m
    weights = list(zip(schedule.omega.tolist(), schedule.alpha.tolist(),
                       schedule.alpha_tilde.tolist()))
    # for plain/mom the step residual is the residual at the current u,
    # so one product per inner step suffices; nag/nagex take one at the
    # look-ahead point in each step and one at each sweep end
    reuse_residual = schedule.variant in ("plain", "mom")
    step = _inner_step(A, f, u, v, schedule.variant, P)
    product = A._unprobed_product(dtype)
    r = f - A.matvec(u)
    matvecs = 1
    rel = _norm(r) / fnorm
    trace = [rel]
    limit = DIVERGENCE_FACTOR * max(rel, 1.0)
    inner = 0
    outer = 0
    converged = rel <= tol
    while not converged and outer < max_outer:
        for i, (w, a, at) in enumerate(weights):
            step(w, a, at, r if reuse_residual else None)
            inner += 1
            if reuse_residual or i == m - 1:
                np.subtract(f, product(u), out=r)
                matvecs += 1
                rel = _norm(r) / fnorm
                if not math.isfinite(rel):
                    np.subtract(f, A.matvec(u), out=r)
                    matvecs += 1
                    rel = _norm(r) / fnorm
                if not math.isfinite(rel) or rel > limit:
                    raise DivergenceError(
                        f"residual blew up to {rel:.3g} at inner iteration {inner}",
                        inner_iteration=inner)
        outer += 1
        trace.append(rel)
        converged = rel <= tol
    report = SolveReport(
        iterations=outer, inner_iterations=inner, converged=converged,
        final_relative_residual=rel, wall_time=time.perf_counter() - t0,
        trace=np.array(trace),
        matvecs=matvecs + (0 if reuse_residual else inner),
        precond_applies=0 if P is None else inner)
    return u, report
