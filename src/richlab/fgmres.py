"""Restarted flexible GMRES with right preconditioning.

The preconditioner is an arbitrary vector-to-vector map applied freshly
each Arnoldi step; the preconditioned vectors are stored (flexible
variant), so nonstationary maps such as V-cycles or learned iterations
are legal. Works over the real or complex field.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .richardson import SolveReport
from .sparse import _Operator, _vector


@dataclass
class FgmresConfig:
    restart: int = 20
    tol: float = 1e-6
    max_outer: int = 100

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


def orthogonalise(V, w):
    """Classical Gram-Schmidt run twice, as block products: removes from
    w, in place, its components along the orthonormal rows of V, and
    returns their coefficients (the new Hessenberg column's upper part).
    Works over the real or complex field."""
    h1 = np.conj(V @ np.conj(w))
    w -= h1 @ V
    h2 = np.conj(V @ np.conj(w))
    w -= h2 @ V
    return h1 + h2


def fgmres(A, f, precond_apply=None, cfg: FgmresConfig = None):
    """Solve A u = f from a zero initial guess; returns (u, SolveReport).

    ``report.iterations`` counts Arnoldi steps (preconditioner
    applications) and ``report.restarts`` the restart cycles run;
    ``report.matvecs`` counts products with A: one per step, one per
    restart and the initial residual's. ``trace`` holds the recurrence
    relative residual per step, with trace[0] the initial value.
    ``stagnated`` is set when a full restart cycle produces no residual
    decrease.

    The Krylov bases are stored row-major, so every basis vector, and
    the vector handed to ``precond_apply``, is contiguous.
    """
    if cfg is None:
        cfg = FgmresConfig()
    if precond_apply is None:
        precond_apply = lambda r: r
    t0 = time.perf_counter()
    n = A.ncols
    f = _vector(f, A.nrows, "f")
    dtype = np.promote_types(A.dtype, f.dtype)
    u = np.zeros(n, dtype=dtype)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return u, SolveReport(0, 0, True, 0.0, time.perf_counter() - t0,
                              np.array([0.0]))
    op = _Operator(A)
    r = f - op.matvec(u)
    matvecs = 1
    beta = float(np.linalg.norm(r))
    rel = beta / fnorm
    trace = [rel]
    total = 0
    converged = rel <= cfg.tol
    stagnated = False
    outer = 0
    mr = cfg.restart
    V = np.zeros((mr + 1, n), dtype=dtype)
    Z = np.zeros((mr, n), dtype=dtype)
    while not converged and not stagnated and outer < cfg.max_outer:
        cycle_start_rel = rel
        H = np.zeros((mr + 1, mr), dtype=dtype)
        cs = np.zeros(mr, dtype=dtype)
        sn = np.zeros(mr, dtype=dtype)
        g = np.zeros(mr + 1, dtype=dtype)
        np.divide(r, beta, out=V[0])
        g[0] = beta
        k = 0
        while k < mr:
            Z[k] = precond_apply(V[k])
            w = op.matvec(Z[k])
            matvecs += 1
            H[:k + 1, k] = orthogonalise(V[:k + 1], w)
            hk1 = np.linalg.norm(w)
            H[k + 1, k] = hk1
            # apply stored Givens rotations to the new column
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + np.conj(cs[i]) * H[i + 1, k]
                H[i, k] = t
            # new rotation zeroing H[k+1, k]
            denom = np.sqrt(np.abs(H[k, k]) ** 2 + np.abs(hk1) ** 2)
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = np.conj(H[k, k]) / denom
                sn[k] = np.conj(H[k + 1, k]) / denom
            t = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k, k] = t
            H[k + 1, k] = 0.0
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            total += 1
            rel = float(np.abs(g[k + 1])) / fnorm
            trace.append(rel)
            happy = hk1 <= 1e-14 * max(1.0, float(np.abs(H[k, k])))
            k += 1
            if rel <= cfg.tol or happy:
                converged = True
                break
            if hk1 > 0:
                np.divide(w, hk1, out=V[k])
        # solve the triangular system and update the iterate
        Hk = np.triu(H[:k, :k])
        if k == 0:
            y = np.zeros(0, dtype=dtype)
        else:
            try:
                y = np.linalg.solve(Hk, g[:k])
            except np.linalg.LinAlgError:
                # singular projected system (breakdown on a singular
                # operator): take the minimum-norm least-squares update
                y, *_ = np.linalg.lstsq(Hk, g[:k], rcond=None)
        u = u + y @ Z[:k]
        r = f - op.matvec(u)
        matvecs += 1
        beta = float(np.linalg.norm(r))
        rel = beta / fnorm
        converged = rel <= cfg.tol
        if not converged and rel >= cycle_start_rel:
            stagnated = True
        outer += 1
    report = SolveReport(iterations=total, inner_iterations=total,
                         converged=converged, final_relative_residual=rel,
                         wall_time=time.perf_counter() - t0,
                         trace=np.array(trace), stagnated=stagnated,
                         restarts=outer, matvecs=matvecs)
    return u, report
