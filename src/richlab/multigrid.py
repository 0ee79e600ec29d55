"""Geometric coarsening and V-cycles on interior Dirichlet grids.

Grid transfer uses the full-weighting restriction stencil
(1/16)[[1,2,1],[2,4,2],[1,2,1]] and its bilinear-interpolation adjoint
P = 4 R^T; coarse operators are Galerkin triple products R A P.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .richardson import DivergenceError, _inner_step
from .schedules import WeightSchedule
from .sparse import SparseMatrix


class CoarseSolveError(RuntimeError):
    pass


def _restriction_1d(n):
    """1D full-weighting (1/4)[1,2,1] from the n-1 interior to n/2-1."""
    if n % 2 != 0:
        raise ValueError(f"grid side {n} must be even to coarsen")
    rows = n // 2 - 1
    # row i holds columns 2i, 2i+1, 2i+2
    cols = 2 * np.arange(rows)[:, None] + np.arange(3)
    return scipy.sparse.csr_matrix(
        (np.tile([0.25, 0.5, 0.25], rows), cols.reshape(-1),
         3 * np.arange(rows + 1)), shape=(rows, n - 1))


def restriction_matrix(n) -> SparseMatrix:
    """Full-weighting restriction from the n grid to the n/2 grid."""
    r1 = _restriction_1d(n)
    return SparseMatrix.from_scipy(scipy.sparse.kron(r1, r1, format="csr"))


def prolongation_matrix(n) -> SparseMatrix:
    """Bilinear interpolation from the n/2 grid to the n grid (4 R^T)."""
    r1 = _restriction_1d(n)
    p1 = (2.0 * r1.T).tocsr()
    return SparseMatrix.from_scipy(scipy.sparse.kron(p1, p1, format="csr"))


def galerkin_coarse(A: SparseMatrix, R: SparseMatrix,
                    P: SparseMatrix) -> SparseMatrix:
    """Sparse triple product R A P."""
    if R.ncols != A.nrows or A.ncols != P.nrows:
        raise ValueError("transfer operator dimensions do not chain")
    prod = R.to_scipy() @ A.to_scipy() @ P.to_scipy()
    return SparseMatrix.from_scipy(prod.tocsr())


@dataclass
class Level:
    n: int
    A: SparseMatrix
    R: SparseMatrix | None = None   # to the next coarser level
    P: SparseMatrix | None = None
    schedule: WeightSchedule | None = None


@dataclass
class Hierarchy:
    levels: list
    coarsest_lu: tuple = None

    @property
    def depth(self):
        return len(self.levels)


def build_hierarchy(A: SparseMatrix, n, coarsest=8, schedules=None):
    """Galerkin-coarsen by factors of 2 down to the ``coarsest`` grid.

    ``schedules`` is the WeightSchedule that smooths every level above
    the coarsest (None: no smoothing).
    """
    if n < 2 * coarsest:
        raise ValueError(f"n={n} leaves no room to coarsen to {coarsest}")
    levels = []
    side = n
    Al = A
    while side > coarsest:
        R = restriction_matrix(side)
        P = prolongation_matrix(side)
        levels.append(Level(n=side, A=Al, R=R, P=P))
        Al = galerkin_coarse(Al, R, P)
        side //= 2
    levels.append(Level(n=side, A=Al))
    if (side - 1) ** 2 > 1024:
        raise ValueError("coarsest level exceeds the direct-solve budget")
    for lvl in levels[:-1]:
        lvl.schedule = schedules
    dense = Al.to_dense()
    try:
        lu = scipy.linalg.lu_factor(dense)
    except (ValueError, scipy.linalg.LinAlgError) as exc:
        raise CoarseSolveError(f"coarsest factorization failed: {exc}")
    if not np.all(np.isfinite(lu[0])):
        raise CoarseSolveError("coarsest factorization produced non-finite "
                               "factors (singular coarse operator)")
    return Hierarchy(levels=levels, coarsest_lu=lu)


def helmholtz_hierarchy(A: SparseMatrix, n) -> Hierarchy:
    """The V-cycle hierarchy of a Helmholtz operator on the n grid:
    Galerkin coarsening to the 16 grid, every level above it smoothed by
    NAG-Richardson(5) with omega = 0.8/(8 n^2) and alpha = 0.3."""
    smoother = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * n ** 2)),
                              alpha=np.full(5, 0.3), variant="nag")
    return build_hierarchy(A, n, coarsest=16, schedules=smoother)


def _smooth(level: Level, f, u, count):
    """``count`` outer sweeps of the level's schedule with a fresh
    velocity, in place on ``u``; returns ``u``.

    ``u`` None starts from a zero iterate. The first step's residual is
    then ``f`` itself, read but never written: a finite operator times
    zeros is +0 in every entry, and f - (+0) is f bit for bit, so that
    matvec is skipped.
    """
    s = level.schedule
    first_r = None
    if u is None:
        u, first_r = np.zeros_like(f), f
    if count == 0 or s is None:
        return u
    step = _inner_step(level.A, f, u, np.zeros_like(u), s.variant)
    weights = list(zip(s.omega.tolist(), s.alpha.tolist(),
                       s.alpha_tilde.tolist()))
    for _ in range(count):
        for w, a, at in weights:
            step(w, a, at, first_r)
            first_r = None
    if not np.all(np.isfinite(u.view(float))):
        raise DivergenceError("smoother produced a non-finite iterate",
                              inner_iteration=count * s.m)
    return u


def v_cycle(h: Hierarchy, f, u=None, pre=1, post=1):
    """One V-cycle for the finest-level system; returns the new iterate.

    ``u`` None starts from zero. Neither ``f`` nor ``u`` is modified.
    """
    lvl0 = h.levels[0]
    dtype = np.promote_types(lvl0.A.dtype, np.asarray(f).dtype)
    if u is not None:
        u = np.array(u, dtype=dtype)   # smoothed in place
    return _v_cycle_level(h, 0, np.ascontiguousarray(f, dtype=dtype), u,
                          pre, post)


def _v_cycle_level(h, k, f, u, pre, post):
    """The V-cycle from level k down; ``u`` (None: zero) is owned and
    may be overwritten."""
    level = h.levels[k]
    if k == h.depth - 1:
        try:
            return scipy.linalg.lu_solve(h.coarsest_lu, f)
        except (ValueError, scipy.linalg.LinAlgError) as exc:
            raise CoarseSolveError(f"coarsest solve failed: {exc}")
    u = _smooth(level, f, u, pre)
    r = level.A.matvec(u)
    np.subtract(f, r, out=r)
    ec = _v_cycle_level(h, k + 1, level.R.matvec(r), None, pre, post)
    u += level.P.matvec(ec)
    return _smooth(level, f, u, post)
