"""Geometric coarsening and V-cycles on interior Dirichlet grids.

Grid transfer uses the full-weighting restriction stencil
(1/16)[[1,2,1],[2,4,2],[1,2,1]] and its bilinear-interpolation adjoint
P = 4 R^T; coarse operators are Galerkin triple products R A P.
"""
from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .richardson import (DivergenceError, SweepPolynomial, _horner_pass,
                         _recurrence_pass, gershgorin_radius,
                         sweep_polynomial)
from .schedules import WeightSchedule
from .sparse import (SparseMatrix, _scaled_transpose, _wrap_built,
                     _wrap_product, lu_solver)

# the coarsest grid of the Helmholtz recipe (helmholtz_hierarchy)
HELMHOLTZ_COARSEST = 16


class CoarseSolveError(RuntimeError):
    pass


# the 1D full-weighting weights w of fine nodes 2I, 2I+1, 2I+2
_FULL_WEIGHTS = np.array([0.25, 0.5, 0.25])


def restriction_matrix(n) -> SparseMatrix:
    """Full-weighting restriction from the n grid to the n/2 grid.

    Built straight into CSR arrays: coarse unknown (I, J) reads the fine
    unknowns (2I+a, 2J+b), a, b in {0, 1, 2}, with weight w_a w_b. All
    nine lie inside the fine grid, and taking (a, b) in lexicographic
    order makes each row's columns ascend.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side {n} must be even and at least 2 to "
                         "coarsen")
    m, mc = n - 1, n // 2 - 1
    a = np.arange(3)
    corner = 2 * np.arange(mc)   # fine index of (2I, 2J) along one axis
    cols = ((corner[:, None] * m + corner).reshape(-1, 1)
            + (a[:, None] * m + a).reshape(-1))
    values = np.tile(np.outer(_FULL_WEIGHTS, _FULL_WEIGHTS).reshape(-1),
                     mc * mc)
    return _wrap_built(mc * mc, m * m, 9 * np.arange(mc * mc + 1),
                       cols.reshape(-1), values)


def prolongation_matrix(n) -> SparseMatrix:
    """Bilinear interpolation from the n/2 grid to the n grid, 4 R^T (R's
    weights are powers of two, so its entries are exact)."""
    return _scaled_transpose(restriction_matrix(n), 4.0)


def galerkin_coarse(A: SparseMatrix, R: SparseMatrix,
                    P: SparseMatrix) -> SparseMatrix:
    """Sparse triple product R A P."""
    if R.ncols != A.nrows or A.ncols != P.nrows:
        raise ValueError("transfer operator dimensions do not chain")
    return _wrap_product(R.to_scipy() @ A.to_scipy() @ P.to_scipy())


@dataclass
class Level:
    n: int
    A: SparseMatrix
    R: SparseMatrix | None = None   # to the next coarser level
    P: SparseMatrix | None = None
    schedule: WeightSchedule | None = None

    @functools.cached_property
    def sweep(self) -> SweepPolynomial:
        """The SweepPolynomial of a sweep of the level's schedule, made on
        first use: the schedule is fixed once the level has smoothed."""
        return sweep_polynomial(self.schedule, gershgorin_radius(self.A))


@dataclass
class Hierarchy:
    levels: list
    coarse_solve: Callable   # the coarsest level's solve, by SuperLU

    @property
    def depth(self):
        return len(self.levels)

    def smoothing(self):
        """How each smoothed level runs its sweep, finest first: rows of
        (n, form, amplification bound)."""
        return [(lvl.n, lvl.sweep.form, lvl.sweep.bound)
                for lvl in self.levels if lvl.schedule is not None]


def coarsening_sides(n, coarsest):
    """The grid sides n, n/2, ... that coarsening by factors of 2 visits,
    down to the first at or below ``coarsest``. A ValueError names what
    stops it: too small an n, or an odd side above ``coarsest``."""
    if n < 2 * coarsest:
        raise ValueError(f"n={n} leaves no room to coarsen to {coarsest}")
    sides = [n]
    while sides[-1] > coarsest:
        if sides[-1] % 2:
            raise ValueError(f"n={n} does not coarsen to {coarsest}: its "
                             f"halvings reach the odd side {sides[-1]}")
        sides.append(sides[-1] // 2)
    return sides


def build_hierarchy(A: SparseMatrix, n, coarsest=8, schedules=None):
    """Galerkin-coarsen by factors of 2 down to the ``coarsest`` grid.

    ``schedules`` is the WeightSchedule that smooths every level above
    the coarsest (None: no smoothing). An ``n`` that does not coarsen
    (see coarsening_sides) is refused before any level is built, and a
    coarsest operator that SuperLU cannot factor by a CoarseSolveError.
    """
    sides = coarsening_sides(n, coarsest)
    levels = []
    Al = A
    for side in sides[:-1]:
        R = restriction_matrix(side)
        P = _scaled_transpose(R, 4.0)
        levels.append(Level(n=side, A=Al, R=R, P=P, schedule=schedules))
        Al = galerkin_coarse(Al, R, P)
    levels.append(Level(n=sides[-1], A=Al))
    if not np.all(np.isfinite(Al.values)):   # splu factors inf quietly
        raise CoarseSolveError("coarsest operator is not finite")
    try:
        solve = lu_solver(Al.to_scipy())
    except RuntimeError as exc:
        raise CoarseSolveError(f"coarsest factorization failed: {exc}")
    return Hierarchy(levels=levels, coarse_solve=solve)


def helmholtz_hierarchy(A: SparseMatrix, n) -> Hierarchy:
    """The V-cycle hierarchy of a Helmholtz operator on the n grid:
    Galerkin coarsening to the 16 grid, every level above it smoothed by
    NAG-Richardson(5) with omega = 0.8/(8 n^2) and alpha = 0.3."""
    smoother = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * n ** 2)),
                              alpha=np.full(5, 0.3), variant="nag")
    return build_hierarchy(A, n, coarsest=HELMHOLTZ_COARSEST,
                           schedules=smoother)


def _smooth(level: Level, f, u):
    """One outer sweep of the level's schedule with a fresh velocity, in
    place on ``u``; returns ``u``. ``f`` is contiguous and of the
    iterate's dtype.

    ``u`` None starts from a zero iterate. The level's sweep polynomial
    (``Level.sweep``) picks the form: Horner's rule on it, or the step
    recurrence. Either way a non-finite iterate raises DivergenceError.
    """
    s = level.schedule
    if s is None:
        return np.zeros_like(f) if u is None else u
    sweep = level.sweep
    # a non-finite f or iterate raises below, so the pass need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if sweep.form == "horner":
            u = _horner_pass(level.A, sweep.coefficients, f, u)
        else:
            u = _recurrence_pass(level.A, s, f, u, s.m)
    if not np.all(np.isfinite(u.view(float))):
        raise DivergenceError("smoother produced a non-finite iterate",
                              inner_iteration=s.m)
    return u


def v_cycle(h: Hierarchy, f, u=None):
    """One V(1,1)-cycle for the finest-level system, a sweep before and
    one after each coarse-grid correction; returns the new iterate.

    ``u`` None starts from zero. Neither ``f`` nor ``u`` is modified.
    """
    lvl0 = h.levels[0]
    dtype = np.promote_types(lvl0.A.dtype, np.asarray(f).dtype)
    if u is not None:
        u = np.array(u, dtype=dtype)   # smoothed in place
    return _v_cycle_level(h, 0, np.ascontiguousarray(f, dtype=dtype), u)


def _v_cycle_level(h, k, f, u):
    """The V-cycle from level k down; ``u`` (None: zero) is owned and
    may be overwritten."""
    level = h.levels[k]
    if k == h.depth - 1:
        u = h.coarse_solve(f)
        if not np.all(np.isfinite(u.view(float))):
            raise CoarseSolveError("coarse solve gave a non-finite iterate")
        return u
    u = _smooth(level, f, u)
    r = level.A.matvec(u)
    np.subtract(f, r, out=r)
    ec = _v_cycle_level(h, k + 1, level.R.matvec(r), None)
    u += level.P.matvec(ec)
    return _smooth(level, f, u)
