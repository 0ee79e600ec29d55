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

from .precond import apply_preconditioner

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


def _inner_update(A, f, u, v, w, a, at, variant, P=None, r=None, look=None):
    """One inner update of ``variant`` with weight w and momentum
    coefficients a (alpha) and at (alpha_tilde), in place on u and v.

    ``r`` is the step residual when the caller already has it: f - A u
    for plain and mom, f - A (u + at v) at the nag/nagex look-ahead
    point. It is read, never written. ``look`` is scratch for the
    look-ahead point. The float operations are those of
    v <- a v + w B^{-1} r, u <- u + v.
    """
    if r is None:
        if variant in ("nag", "nagex"):   # residual at the look-ahead point
            look = np.multiply(v, at, out=look)
            look += u
            r = A.matvec(look)
        else:
            r = A.matvec(u)
        np.subtract(f, r, out=r)
    z = apply_preconditioner(P, r)
    if variant == "plain":
        np.multiply(z, w, out=v)
    else:
        v *= a
        v += z * w
    u += v


def solve_stationary(A, f, schedule, P=None, tol=1e-6, max_outer=100_000,
                     u0=None, check="outer"):
    """Iterate outer sweeps from a zero initial guess until the relative
    residual drops below ``tol`` or ``max_outer`` sweeps elapse.

    ``check`` selects where convergence is tested: ``"outer"`` tests at
    sweep boundaries (the benchmark convention; cyclic weight schedules
    show transient mid-sweep residual dips that would otherwise stop the
    iteration early), ``"inner"`` tests after every inner update.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if check not in ("outer", "inner"):
        raise ValueError("check must be 'outer' or 'inner'")
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

    m, variant = schedule.m, schedule.variant
    omega = schedule.omega.tolist()
    alpha = schedule.alpha.tolist()
    alpha_t = schedule.alpha_tilde.tolist()
    # for plain/mom the step residual is the residual at the current u,
    # so one matvec per inner step suffices
    reuse_residual = variant in ("plain", "mom")
    look = None if reuse_residual else np.empty_like(u)
    r = f - A.matvec(u)
    rel = float(np.linalg.norm(r)) / fnorm
    trace = [rel]
    limit = DIVERGENCE_FACTOR * max(rel, 1.0)
    inner = 0
    outer = 0
    converged = rel <= tol
    while not converged and outer < max_outer:
        for i in range(m):
            _inner_update(A, f, u, v, omega[i], alpha[i], alpha_t[i], variant,
                          P, r if reuse_residual else None, look)
            inner += 1
            if reuse_residual or check == "inner" or i == m - 1:
                np.subtract(f, A.matvec(u), out=r)
                rel = float(np.linalg.norm(r)) / fnorm
                if not math.isfinite(rel) or rel > limit:
                    raise DivergenceError(
                        f"residual blew up to {rel:.3g} at inner iteration {inner}",
                        inner_iteration=inner)
            if check == "inner" and rel <= tol:
                converged = True
                break
        outer += 1
        trace.append(rel)
        if rel <= tol:
            converged = True
    report = SolveReport(
        iterations=outer, inner_iterations=inner, converged=converged,
        final_relative_residual=rel, wall_time=time.perf_counter() - t0,
        trace=np.array(trace))
    return u, report
