"""Hybrid smoother + sine-spectral correction iteration.

One hybrid step applies M inner smoothing updates, then adds a diagonal
correction in the orthonormal 2D sine basis:
u <- u + dst2_inv(lambda_tilde * dst2(f - A u)). With homogeneous
Dirichlet boundaries the sine basis diagonalizes the isotropic and
axis-aligned constant-coefficient operators exactly, so the correction
1 / diag(S A S) (:func:`sine_basis_eigenvalues`) is their exact inverse.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .richardson import DivergenceError, SolveReport, _recurrence_pass
from .sparse import _Operator, _vector
from .transforms import dst2, dst2_inv


@dataclass
class SpectralCorrection:
    """Diagonal operator in the sine basis on the (n-1)^2 interior."""
    lambda_tilde: np.ndarray
    n: int

    def __post_init__(self):
        self.lambda_tilde = np.asarray(self.lambda_tilde, dtype=float)
        if self.lambda_tilde.shape != ((self.n - 1) ** 2,):
            raise ValueError("correction length does not match the grid")
        if not np.all(np.isfinite(self.lambda_tilde)):
            raise ValueError("correction entries must be finite")

    def apply(self, r):
        return dst2_inv(self.lambda_tilde * dst2(r))


def sine_basis_eigenvalues(A, n):
    """Diagonal of the operator in the orthonormal sine basis, diag(S A S).

    Exact eigenvalues whenever the basis diagonalizes A; otherwise the
    basis-diagonal part. S = s (x) s is the 2D DST-I with the 1D matrix
    s[p, i] = sqrt(2/n) sin((p+1)(i+1) pi/n). The nonzeros of A are
    grouped by their grid offset (d1, d2); the entries C_d[i, j] =
    A[(i, j), (i+d1, j+d2)] of one offset add U_d1 C_d U_d2^T, where
    U_d[p, i] = s[p, i] s[p, i+d]. No stencil is assumed, and memory is
    O(n^2) per offset.
    """
    if A.is_complex:
        raise ValueError("sine-basis diagonal requires a real matrix")
    side = n - 1
    if A.shape != (side * side, side * side):
        raise ValueError(f"operator shape {A.shape} does not match the "
                         f"interior of an n={n} grid")
    idx = np.arange(1, n)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(idx, idx) / n)

    def shifted_products(d):
        U = np.zeros((side, side))
        if d >= 0:
            U[:, :side - d] = s[:, :side - d] * s[:, d:]
        else:
            U[:, -d:] = s[:, -d:] * s[:, :side + d]
        return U

    rows = np.repeat(np.arange(side * side), np.diff(A.row_starts))
    i, j = np.divmod(rows, side)
    ci, cj = np.divmod(A.col_indices, side)
    # |d2| < side, so d1 * 2 side + d2 names the offset uniquely
    key = (ci - i) * (2 * side) + (cj - j)
    lam = np.zeros((side, side))
    for offset in np.unique(key):
        mine = key == offset
        d1, d2 = divmod(int(offset) + side, 2 * side)
        C = np.zeros((side, side))
        C[i[mine], j[mine]] = A.values[mine]
        lam += shifted_products(d1) @ C @ shifted_products(d2 - side).T
    return lam.reshape(-1)


def fns_lite_step(A, f, u, schedule, M, corr: SpectralCorrection, *,
                  _residual=None):
    """One hybrid iteration: M inner smoothing updates, one correction.

    The smoother is plain Richardson(m); momentum schedules are rejected.
    ``A`` may be the operator ``solve_fns`` bound, which also passes
    ``_residual``, f - A u from its convergence test; the step then
    reads it in place of its first product.
    """
    if schedule.variant != "plain":
        raise ValueError(f"the hybrid smoother is plain Richardson, got a "
                         f"{schedule.variant!r} schedule")
    f, u = _vector(f, A.shape[0], "f"), _vector(u, A.shape[1], "u")
    u = u.astype(np.result_type(u, f, A.dtype))   # a copy: u stays the caller's
    _recurrence_pass(A, schedule, f, u, M, _residual)
    stale = M or _residual is None   # updates outdate _residual
    u += corr.apply(f - A.matvec(u) if stale else _residual)
    if not np.all(np.isfinite(u)):
        raise DivergenceError("hybrid step produced a non-finite iterate",
                              inner_iteration=M)
    return u


def solve_fns(A, f, schedule, corr, M, tol=1e-6):
    """Run the hybrid iteration from zero to the relative-residual tol.

    A zero ``f`` is solved by the zero iterate, with relative residual 0
    and no product taken. Its steps share the operator it binds."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    f = _vector(f, A.nrows, "f")
    u = np.zeros(A.ncols)
    fnorm = np.linalg.norm(f)
    converged = fnorm == 0.0
    rel = 0.0 if converged else 1.0
    trace = [rel]
    it = 0
    r = None   # f - A u, once a step has run: the next step reads it
    op = _Operator(A)
    while not converged and it < 10_000:   # a cap on hybrid steps
        u = fns_lite_step(op, f, u, schedule, M, corr, _residual=r)
        it += 1
        r = f - op.matvec(u)
        rel = float(np.linalg.norm(r)) / fnorm
        trace.append(rel)
        converged = rel <= tol
    # the first step takes its own residual; each later one reads r
    return u, SolveReport(iterations=it, inner_iterations=it * M,
                          converged=converged, final_relative_residual=rel,
                          wall_time=time.perf_counter() - t0,
                          trace=np.array(trace),
                          matvecs=it * (M + 1) + (it > 0))

