"""The Richardson(m) sweep family with momentum and preconditioning.

One outer sweep applies the m inner updates of the selected variant,
with the preconditioner applied to every residual. The velocity vector
persists across outer sweeps and is reset only at solver entry.

Started from a fresh velocity, a sweep is one update
u <- u + q(A)(f - A u) with q of degree m - 1, the sweep polynomial. A
solve whose velocity never crosses a sweep (a plain schedule without a
preconditioner) and the multigrid smoother evaluate it by Horner's rule
while its amplification bound allows.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

DIVERGENCE_FACTOR = 1e12
# the largest Horner amplification bound (SweepPolynomial.bound) at
# which a sweep runs by its polynomial
AMPLIFICATION_LIMIT = 1e4


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
    # how a stationary solve ran its sweeps, "horner" or "recurrence", and
    # the SweepPolynomial bound that chose it (None where the variant or
    # the preconditioner fixes the recurrence)
    sweep_form: str | None = None
    sweep_bound: float | None = None


def _norm(r):
    """``np.linalg.norm`` of a float or complex vector by the same float
    operations, without its dispatch: the solver takes one per update."""
    if r.dtype.kind == "c":
        return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
    return math.sqrt(r.dot(r))


def _weights(schedule):
    """The schedule's (omega, alpha, alpha_tilde) per inner step, as
    Python floats."""
    return list(zip(schedule.omega.tolist(), schedule.alpha.tolist(),
                    schedule.alpha_tilde.tolist()))


def _inner_step(A, f, u, v, variant, P=None):
    """The inner update of ``variant``, in place on the iterate u and the
    velocity v, as a function ``step(w, a, at, r=None)`` of the weight w
    and the momentum coefficients a (alpha) and at (alpha_tilde). It is
    built once per solve or smoothing pass, so that an update runs only
    its own products and ufuncs.

    ``r`` is the step residual when the caller already has it: f - A u
    for plain and mom, f - A (u + at v) at the nag/nagex look-ahead
    point. It is read, never written. Otherwise the step takes it
    through ``A.matvec``. The step returns the residual it read. Its
    float operations, v <- a v + w B^{-1} r and u <- u + v, run
    elementwise, so u, v and f may be (B, n) row stacks with (B, 1)
    weight columns and a row-stack ``A.matvec``.
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
        return r

    return step


@dataclass(frozen=True)
class SweepPolynomial:
    """One outer sweep of a schedule from a fresh velocity, as the update
    u <- u + q(A)(f - A u) with q of degree m - 1.

    ``coefficients`` are q's, ascending. ``bound`` is sum_k |p_k| rho^k
    for the residual polynomial p(lam) = 1 - lam q(lam) and the
    Gershgorin radius rho of A. It bounds how far Horner's rule can
    amplify a rounding error relative to the size of its input, so the
    sweep runs by the polynomial (``form`` "horner") only while it is at
    most AMPLIFICATION_LIMIT, and by the step recurrence (``form``
    "recurrence") above it, or when it is not finite.
    """
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


def sweep_polynomial(schedule, radius):
    """The SweepPolynomial of one sweep of ``schedule`` on an operator of
    Gershgorin radius ``radius``.

    q comes from the updates that sweep, ``_recurrence_pass``, run on
    coefficient vectors: its right-hand side is the constant 1, standing
    for the residual r0 = f - A u, its iterate starts at the zero
    polynomial and its operator multiplies by lam. Step k leaves the
    iterate of degree k - 1, so the d = m coefficients of degree below d
    hold every step.
    """
    d = schedule.m
    q = np.zeros(d)
    one = np.zeros(d)
    one[:1] = 1.0
    _recurrence_pass(_TimesLambda, schedule, one, q, d)
    # sum_k |q_k| radius^k by Horner: it overflows to inf, never raises
    growth = 0.0
    for c in reversed(q.tolist()):
        growth = growth * radius + abs(c)
    return SweepPolynomial(coefficients=q, bound=1.0 + radius * growth)


def gershgorin_radius(A):
    """max_i sum_j |a_ij|: every eigenvalue of A lies within it of 0 (0
    for a matrix without entries). Each row's magnitudes are summed by
    one ``np.add.reduceat`` over the CSR values, as scipy sums rows."""
    starts = A.row_starts[:-1][np.diff(A.row_starts) > 0]
    if not len(starts):
        return 0.0
    return float(np.add.reduceat(np.abs(A.values), starts).max())


def _horner(accumulate, coefficients, r, y, work):
    """c(A) r for the ascending ``coefficients`` c, by Horner's rule from
    the top one: y <- c_k r + A y. Each step is one pass that writes
    c_k r into a work vector, into which the compiled kernel
    ``accumulate`` (``SparseMatrix._accumulating_product``) adds A y.
    The coefficients are real, so the passes run on the float view of
    complex data. ``y`` and ``work`` are contiguous scratch vectors of
    r's dtype; returns whichever of them holds the result."""
    r_real = r.view(float)
    np.multiply(r_real, coefficients[-1], out=y.view(float))
    for c in coefficients[-2::-1]:
        np.multiply(r_real, c, out=work.view(float))
        accumulate(y, work)
        y, work = work, y
    return y


def _horner_pass(A, q, f, u):
    """u + q(A)(f - A u), or q(A) f when ``u`` is None, by Horner's rule
    (``_horner``). ``f`` is contiguous and of the iterate's dtype."""
    accumulate = A._accumulating_product()
    y, work = np.empty_like(f), np.empty_like(f)
    if u is None:
        return _horner(accumulate, q.tolist(), f, y, work)
    # -r = A u - f, added onto -f; the coefficients change sign instead
    s = np.negative(f)
    accumulate(u, s)
    u += _horner(accumulate, (-q).tolist(), s, y, work)
    return u


def _recurrence_pass(A, s, f, u, updates, r=None):
    """``updates`` inner updates of ``s`` from a fresh velocity, weights
    cycling k mod m, in place on the returned iterate. The first reads
    ``r`` = f - A u when given. ``u`` None starts from zero, whose
    residual is ``f`` itself, read but never written: a finite A times
    zeros is +0, and f - (+0) is f bit for bit, so no matvec runs."""
    if u is None:
        u, r = np.zeros_like(f), f
    step = _inner_step(A, f, u, np.zeros_like(u), s.variant)
    weights = _weights(s)
    for k in range(updates):
        step(*weights[k % s.m], r)
        r = None
    return u


def solve_stationary(A, f, schedule, P=None, tol=1e-6, max_outer=100_000,
                     u0=None):
    """Iterate outer sweeps from a zero initial guess until the relative
    residual drops below ``tol`` or ``max_outer`` sweeps elapse.

    Convergence is tested at sweep boundaries only (the benchmark
    convention): cyclic weight schedules show transient mid-sweep
    residual dips that would otherwise stop the iteration early.

    A plain schedule without a preconditioner carries no velocity
    across sweeps, so each sweep is u <- u + q(A)(f - A u) with its
    SweepPolynomial q, computed once per solve. While its bound allows,
    each sweep evaluates q by Horner's rule on the residual the previous
    sweep ended on, kept negated as A u - f, and the divergence guard
    runs at sweep ends. Every other solve runs the step recurrence, and
    plain ones guard after every update. ``report.sweep_form`` and
    ``report.sweep_bound`` record the choice. Either form takes m
    products per sweep after the initial residual.

    The recurrence takes its sweep-end residuals by ``matvec``. A Horner
    sweep ends on the accumulating product, whose finite norm shows that
    it held no NaN, so it has ``matvec``'s bytes; a non-finite one is
    recomputed by ``matvec`` before the divergence test, and counts as
    one more product in ``report.matvecs``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    n = A.ncols
    f = np.asarray(f)
    dtype = np.promote_types(A.dtype, f.dtype)
    u = np.zeros(n, dtype=dtype) if u0 is None else np.array(u0, dtype=dtype)
    sweep = None
    if schedule.variant == "plain" and P is None:
        sweep = sweep_polynomial(schedule, gershgorin_radius(A))
    horner = sweep is not None and sweep.form == "horner"
    form = dict(sweep_form="horner" if horner else "recurrence",
                sweep_bound=None if sweep is None else sweep.bound)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        report = SolveReport(0, 0, True, 0.0, time.perf_counter() - t0,
                             np.array([0.0]), **form)
        return u, report

    m = schedule.m
    r = f - A.matvec(u)
    matvecs = 1
    rel = _norm(r) / fnorm
    trace = [rel]
    limit = DIVERGENCE_FACTOR * max(rel, 1.0)
    inner = 0
    outer = 0
    converged = rel <= tol

    def checked_norm():
        """rel of the residual just taken into r, taken again by
        ``matvec`` when a Horner sweep's accumulating product left it
        not finite; a DivergenceError when it is still not finite or
        above the limit."""
        nonlocal matvecs
        rel = _norm(r) / fnorm
        if horner and not math.isfinite(rel):
            np.subtract(f, A.matvec(u), out=r)
            np.negative(r, out=r)
            matvecs += 1
            rel = _norm(r) / fnorm
        if not math.isfinite(rel) or rel > limit:
            raise DivergenceError(
                f"residual blew up to {rel:.3g} at inner iteration {inner}",
                inner_iteration=inner)
        return rel

    # for plain/mom the step residual is the residual at the current u,
    # so one product per inner step suffices; nag/nagex take one at the
    # look-ahead point in each step and one at each sweep end
    reuse_residual = schedule.variant in ("plain", "mom")
    if horner:
        accumulate = A._accumulating_product()
        coefficients = (-sweep.coefficients).tolist()
        np.negative(r, out=r)
        y, work = np.empty_like(u), np.empty_like(u)
    else:
        weights = _weights(schedule)
        step = _inner_step(A, f, u, np.zeros(n, dtype=dtype),
                           schedule.variant, P)
    while not converged and outer < max_outer:
        if horner:
            u += _horner(accumulate, coefficients, r, y, work)
            np.negative(f, out=r)
            accumulate(u, r)
            matvecs += m
            inner += m
            rel = checked_norm()
        else:
            for i, (w, a, at) in enumerate(weights):
                step(w, a, at, r if reuse_residual else None)
                inner += 1
                if reuse_residual or i == m - 1:
                    np.subtract(f, A.matvec(u), out=r)
                    matvecs += 1
                    rel = checked_norm()
        outer += 1
        trace.append(rel)
        converged = rel <= tol
    report = SolveReport(
        iterations=outer, inner_iterations=inner, converged=converged,
        final_relative_residual=rel, wall_time=time.perf_counter() - t0,
        trace=np.array(trace),
        matvecs=matvecs + (0 if reuse_residual else inner),
        precond_applies=0 if P is None else inner, **form)
    return u, report
