"""Geometric coarsening and V-cycles on interior Dirichlet grids.

Grid transfer uses the full-weighting restriction stencil
(1/16)[[1,2,1],[2,4,2],[1,2,1]] and its bilinear-interpolation adjoint
P = 4 R^T; coarse operators are Galerkin triple products R A P.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .richardson import DivergenceError, _inner_step
from .schedules import WeightSchedule
from .sparse import SparseMatrix

# the coarsest grid of the Helmholtz recipe (helmholtz_hierarchy)
HELMHOLTZ_COARSEST = 16
# unknowns the coarsest level may hold: it is factored dense
COARSEST_UNKNOWNS = 1024
# the largest Horner amplification bound (SweepPolynomial.bound) at
# which a level smooths by its sweep polynomial
AMPLIFICATION_LIMIT = 1e4


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


@dataclass(frozen=True)
class SweepPolynomial:
    """``count`` outer sweeps of a schedule from a fresh velocity, as one
    update u <- u + q(A)(f - A u) with q of degree count*m - 1.

    ``coefficients`` are q's, ascending. ``bound`` is sum_k |p_k| rho^k
    for the residual polynomial p(lam) = 1 - lam q(lam) and the
    Gershgorin radius rho of A. It bounds how far Horner's rule can
    amplify a rounding error relative to the size of its input, so a
    level smooths by the polynomial (``form`` "horner") only while it
    is at most AMPLIFICATION_LIMIT, and by the step recurrence
    (``form`` "recurrence") above it, or when it is not finite.
    """
    count: int
    coefficients: np.ndarray
    bound: float

    @property
    def form(self):
        return "horner" if self.bound <= AMPLIFICATION_LIMIT \
            else "recurrence"


class _TimesLambda:
    """Multiplication by lam on ascending polynomial coefficients. It
    drops the top coefficient, which sweep_polynomial never fills."""

    @staticmethod
    def matvec(c):
        out = np.zeros_like(c)
        out[1:] = c[:-1]
        return out


def sweep_polynomial(schedule: WeightSchedule, count, radius):
    """The SweepPolynomial of ``count`` sweeps of ``schedule`` on an
    operator of Gershgorin radius ``radius``.

    q comes from the update that smooths, ``richardson._inner_step``,
    run on coefficient vectors: its right-hand side is the constant 1,
    standing for the residual r0 = f - A u, its iterate starts at the
    zero polynomial and its operator multiplies by lam. Step k leaves
    the iterate of degree k - 1, so the d = count*m coefficients of
    degree below d hold every step (none when count is 0).
    """
    d = count * schedule.m
    q = np.zeros(d)
    one = np.zeros(d)
    one[:1] = 1.0
    step = _inner_step(_TimesLambda, one, q, np.zeros(d), schedule.variant)
    weights = list(zip(schedule.omega.tolist(), schedule.alpha.tolist(),
                       schedule.alpha_tilde.tolist()))
    for _ in range(count):
        for w, a, at in weights:
            step(w, a, at)
    # sum_k |q_k| radius^k by Horner: it overflows to inf, never raises
    growth = 0.0
    for c in reversed(q.tolist()):
        growth = growth * radius + abs(c)
    return SweepPolynomial(count=count, coefficients=q,
                           bound=1.0 + radius * growth)


def gershgorin_radius(A: SparseMatrix):
    """max_i sum_j |a_ij|: every eigenvalue of A lies within it of 0."""
    return float(abs(A.to_scipy()).sum(axis=1).max())


@dataclass
class Level:
    n: int
    A: SparseMatrix
    R: SparseMatrix | None = None   # to the next coarser level
    P: SparseMatrix | None = None
    schedule: WeightSchedule | None = None
    # sweep count -> SweepPolynomial, made on first use (see sweep)
    sweeps: dict = field(default_factory=dict, repr=False)

    def sweep(self, count) -> SweepPolynomial:
        """The SweepPolynomial of ``count`` sweeps of the level's
        schedule, computed once per count: the schedule is fixed once
        the level has smoothed."""
        sweep = self.sweeps.get(count)
        if sweep is None:
            sweep = sweep_polynomial(self.schedule, count,
                                     gershgorin_radius(self.A))
            self.sweeps[count] = sweep
        return sweep


@dataclass
class Hierarchy:
    levels: list
    coarsest_lu: tuple = None

    @property
    def depth(self):
        return len(self.levels)

    def smoothing(self, counts=(1,)):
        """How each smoothed level runs each sweep count, finest first:
        rows of (n, count, form, amplification bound)."""
        return [(lvl.n, c, lvl.sweep(c).form, lvl.sweep(c).bound)
                for lvl in self.levels if lvl.schedule is not None
                for c in counts]


def coarsening_sides(n, coarsest):
    """The grid sides n, n/2, ... that coarsening by factors of 2 visits,
    down to the first at or below ``coarsest``. A ValueError names what
    stops it: too small an n, an odd side above ``coarsest``, or a last
    side too large to factor dense."""
    if n < 2 * coarsest:
        raise ValueError(f"n={n} leaves no room to coarsen to {coarsest}")
    sides = [n]
    while sides[-1] > coarsest:
        if sides[-1] % 2:
            raise ValueError(f"n={n} does not coarsen to {coarsest}: its "
                             f"halvings reach the odd side {sides[-1]}")
        sides.append(sides[-1] // 2)
    if (sides[-1] - 1) ** 2 > COARSEST_UNKNOWNS:
        raise ValueError("coarsest level exceeds the direct-solve budget")
    return sides


def build_hierarchy(A: SparseMatrix, n, coarsest=8, schedules=None):
    """Galerkin-coarsen by factors of 2 down to the ``coarsest`` grid.

    ``schedules`` is the WeightSchedule that smooths every level above
    the coarsest (None: no smoothing). An ``n`` that does not coarsen
    (see coarsening_sides) is refused before any level is built.
    """
    sides = coarsening_sides(n, coarsest)
    levels = []
    Al = A
    for side in sides[:-1]:
        R = restriction_matrix(side)
        P = prolongation_matrix(side)
        levels.append(Level(n=side, A=Al, R=R, P=P, schedule=schedules))
        Al = galerkin_coarse(Al, R, P)
    levels.append(Level(n=sides[-1], A=Al))
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
    return build_hierarchy(A, n, coarsest=HELMHOLTZ_COARSEST,
                           schedules=smoother)


def _smooth(level: Level, f, u, count):
    """``count`` outer sweeps of the level's schedule with a fresh
    velocity, in place on ``u``; returns ``u``. ``f`` is contiguous and
    of the iterate's dtype.

    ``u`` None starts from a zero iterate. The level's sweep polynomial
    (``Level.sweep``) picks the form: Horner's rule on it, or the step
    recurrence. Either way a non-finite iterate raises DivergenceError.
    """
    s = level.schedule
    if count == 0 or s is None:
        return np.zeros_like(f) if u is None else u
    sweep = level.sweep(count)
    if sweep.form == "horner":
        u = _horner_pass(level.A, sweep.coefficients, f, u)
    else:
        u = _recurrence_pass(level.A, s, f, u, count)
    if not np.all(np.isfinite(u.view(float))):
        raise DivergenceError("smoother produced a non-finite iterate",
                              inner_iteration=count * s.m)
    return u


def _horner_pass(A: SparseMatrix, q, f, u):
    """u + q(A)(f - A u), or q(A) f when ``u`` is None, by Horner's rule
    from q's top coefficient: y <- q_k r + A y. Each step is one pass
    that writes q_k r into a work vector, into which the compiled kernel
    adds A y. The coefficients are real, so the pass runs on the float
    view of complex data."""
    accumulate = A._accumulating_product()
    if u is None:
        r, coefficients = f, q.tolist()
    else:
        # -r = A u - f, added onto -f; the coefficients change sign instead
        r = np.negative(f)
        accumulate(u, r)
        coefficients = (-q).tolist()
    r_real = r.view(float)
    y, work = np.empty_like(f), np.empty_like(f)
    np.multiply(r_real, coefficients[-1], out=y.view(float))
    for c in coefficients[-2::-1]:
        np.multiply(r_real, c, out=work.view(float))
        accumulate(y, work)
        y, work = work, y
    if u is None:
        return y
    u += y
    return u


def _recurrence_pass(A: SparseMatrix, s: WeightSchedule, f, u, count):
    """``count`` sweeps of ``s`` step by step, by the solver's update.

    ``u`` None starts from a zero iterate. The first step's residual is
    then ``f`` itself, read but never written: a finite operator times
    zeros is +0 in every entry, and f - (+0) is f bit for bit, so that
    matvec is skipped.
    """
    first_r = None
    if u is None:
        u, first_r = np.zeros_like(f), f
    step = _inner_step(A, f, u, np.zeros_like(u), s.variant)
    weights = list(zip(s.omega.tolist(), s.alpha.tolist(),
                       s.alpha_tilde.tolist()))
    for _ in range(count):
        for w, a, at in weights:
            step(w, a, at, first_r)
            first_r = None
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
