"""Allocate-per-step reference loops, kept as test oracles.

These are the stationary solver, the V-cycle smoother and the hybrid
step as they were written before the shared in-place update: every
inner update builds new arrays, and every product is the CSR product of
``A.to_scipy()``. The library's iterates must equal theirs bit for bit.
"""
import time

import numpy as np
import scipy.linalg

from richlab.multigrid import CoarseSolveError
from richlab.precond import apply_preconditioner
from richlab.richardson import DIVERGENCE_FACTOR, DivergenceError, SolveReport


def csr_matvec(A, x):
    return A.to_scipy().dot(x)


def reference_inner_update(A, f, u, v, i, schedule, P):
    """One inner update of the selected variant; returns (u, v)."""
    w = schedule.omega[i]
    a = schedule.alpha[i]
    at = schedule.alpha_tilde[i]
    if schedule.variant in ("plain", "mom"):
        r = f - csr_matvec(A, u)
    else:  # nag, nagex: residual at the look-ahead point
        r = f - csr_matvec(A, u + at * v)
    v = a * v + w * apply_preconditioner(P, r)
    return u + v, v


def reference_solve_stationary(A, f, schedule, P=None, tol=1e-6,
                               max_outer=100_000, u0=None, check="outer"):
    t0 = time.perf_counter()
    n = A.ncols
    dtype = np.promote_types(A.dtype, np.asarray(f).dtype)
    u = np.zeros(n, dtype=dtype) if u0 is None else np.array(u0, dtype=dtype)
    v = np.zeros(n, dtype=dtype)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return u, SolveReport(0, 0, True, 0.0, time.perf_counter() - t0,
                              np.array([0.0]))
    reuse_residual = schedule.variant in ("plain", "mom")
    r = f - csr_matvec(A, u)
    rel = float(np.linalg.norm(r)) / fnorm
    trace = [rel]
    inner = 0
    outer = 0
    converged = rel <= tol
    while not converged and outer < max_outer:
        for i in range(schedule.m):
            w = schedule.omega[i]
            a = schedule.alpha[i]
            at = schedule.alpha_tilde[i]
            if reuse_residual:
                step_r = r
            else:
                step_r = f - csr_matvec(A, u + at * v)
            v = a * v + w * apply_preconditioner(P, step_r)
            u = u + v
            inner += 1
            if reuse_residual or check == "inner" or i == schedule.m - 1:
                r = f - csr_matvec(A, u)
                rel = float(np.linalg.norm(r)) / fnorm
                if not np.isfinite(rel) or rel > DIVERGENCE_FACTOR * max(trace[0], 1.0):
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
    return u, SolveReport(
        iterations=outer, inner_iterations=inner, converged=converged,
        final_relative_residual=rel, wall_time=time.perf_counter() - t0,
        trace=np.array(trace))


def _reference_smooth(level, f, u, count):
    s = level.schedule
    if count == 0 or s is None:
        return u
    v = np.zeros_like(u)
    for _ in range(count):
        for i in range(s.m):
            u, v = reference_inner_update(level.A, f, u, v, i, s, None)
    if not np.all(np.isfinite(u.view(float))):
        raise DivergenceError("smoother produced a non-finite iterate",
                              inner_iteration=count * s.m)
    return u


def _reference_v_cycle_level(h, k, f, u, pre, post):
    level = h.levels[k]
    if k == h.depth - 1:
        try:
            return scipy.linalg.lu_solve(h.coarsest_lu, f)
        except (ValueError, scipy.linalg.LinAlgError) as exc:
            raise CoarseSolveError(f"coarsest solve failed: {exc}")
    u = _reference_smooth(level, f, u, pre)
    r = f - csr_matvec(level.A, u)
    fc = csr_matvec(level.R, r)
    ec = _reference_v_cycle_level(h, k + 1, fc, np.zeros_like(fc), pre, post)
    u = u + csr_matvec(level.P, ec)
    return _reference_smooth(level, f, u, post)


def reference_v_cycle(h, f, u=None, pre=1, post=1):
    lvl0 = h.levels[0]
    dtype = np.promote_types(lvl0.A.dtype, np.asarray(f).dtype)
    if u is None:
        u = np.zeros(lvl0.A.ncols, dtype=dtype)
    return _reference_v_cycle_level(h, 0, np.asarray(f, dtype=dtype),
                                    np.asarray(u, dtype=dtype), pre, post)


def reference_fns_lite_step(A, f, u, schedule, M, corr):
    for k in range(M):
        u = u + schedule.omega[k % schedule.m] * (f - csr_matvec(A, u))
    u = u + corr.apply(f - csr_matvec(A, u))
    if not np.all(np.isfinite(u)):
        raise DivergenceError("hybrid step produced a non-finite iterate",
                              inner_iteration=M)
    return u
