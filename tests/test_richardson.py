import functools

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from richlab.precond import Preconditioner
from richlab.problems import AnisotropicProblem, assemble_anisotropic
from richlab.richardson import (DivergenceError, gershgorin_radius,
                                solve_stationary)
from richlab.schedules import WeightSchedule, chebyshev_weights
from richlab.sparse import SparseMatrix

from conftest import random_spd
from reference_iterations import (precondition, reference_solve_stationary,
                                  sweep_affine_term, sweep_operator)


def run_variant_dense(A, f, u0, v0, schedule, sweeps, Binv=None):
    """Straight-line reference of the four recurrences."""
    n = len(f)
    Binv = np.eye(n) if Binv is None else Binv
    u, v = u0.copy(), v0.copy()
    for _ in range(sweeps):
        for i in range(schedule.m):
            w, a, at = schedule.omega[i], schedule.alpha[i], schedule.alpha_tilde[i]
            if schedule.variant in ("plain", "mom"):
                r = f - A @ u
            else:
                r = f - A @ (u + at * v)
            v = a * v + w * (Binv @ r)
            u = u + v
    return u, v


def after_sweeps(A, f, schedule, count, P=None, u0=None):
    """The iterate of solve_stationary after exactly ``count`` outer sweeps."""
    u, rep = solve_stationary(A, f, schedule, P=P, tol=1e-300,
                              max_outer=count, u0=u0)
    assert rep.iterations == count
    return u


class TestOuterSweep:
    def test_one_step_identity_fixed_point(self):
        A = SparseMatrix.identity(4)
        f = np.array([1.0, 2.0, 3.0, 4.0])
        u = after_sweeps(A, f, WeightSchedule(omega=[1.0]), 1)
        assert np.array_equal(u, f)

    def test_plain_equals_explicit_operator_form(self):
        rng = np.random.default_rng(0)
        A = random_spd(8, rng)
        Ad = A.to_dense()
        f = rng.standard_normal(8)
        u0 = rng.standard_normal(8)
        omega = rng.uniform(0.01, 0.2, size=3)
        sched = WeightSchedule(omega=omega)
        u = after_sweeps(A, f, sched, 1, u0=u0)
        ref = sweep_operator(Ad, omega) @ u0 + sweep_affine_term(Ad, omega) @ f
        assert np.linalg.norm(u - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_velocity_persists_across_sweeps(self):
        rng = np.random.default_rng(1)
        A = random_spd(6, rng)
        f = rng.standard_normal(6)
        sched = WeightSchedule(omega=[0.02, 0.03], alpha=[0.5, 0.4],
                               variant="mom")
        Ad = A.to_dense()
        u = after_sweeps(A, f, sched, 2)
        ref_u, _ = run_variant_dense(Ad, f, np.zeros(6), np.zeros(6), sched,
                                     sweeps=2)
        # a velocity reset between the sweeps would give another iterate
        one, _ = run_variant_dense(Ad, f, np.zeros(6), np.zeros(6), sched,
                                   sweeps=1)
        reset, _ = run_variant_dense(Ad, f, one, np.zeros(6), sched, sweeps=1)
        assert np.allclose(u, ref_u, atol=1e-13)
        assert not np.allclose(u, reset, atol=1e-13)

    def test_divergence_raises_with_index(self):
        A = SparseMatrix.from_scipy(1e4 * scipy.sparse.identity(3))
        f = np.ones(3)
        sched = WeightSchedule(omega=[1e300, 1e300])
        with pytest.raises(DivergenceError) as exc:
            # the residual norm overflows on the way to the guard
            with pytest.warns(RuntimeWarning, match="overflow"):
                solve_stationary(A, f, sched, max_outer=60)
        assert exc.value.inner_iteration == 1


class TestReductionChain:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.A = random_spd(16, rng)
        self.f = rng.standard_normal(16)
        self.omega = rng.uniform(0.005, 0.05, size=3)
        self.alpha = rng.uniform(0.1, 0.6, size=3)
        self.rng = rng

    def _iterates(self, sched, sweeps=5):
        return [after_sweeps(self.A, self.f, sched, k)
                for k in range(1, sweeps + 1)]

    def test_nagex_with_tied_alpha_equals_nag(self):
        nag = WeightSchedule(omega=self.omega, alpha=self.alpha, variant="nag")
        nagex = WeightSchedule(omega=self.omega, alpha=self.alpha,
                               alpha_tilde=self.alpha, variant="nagex")
        for a, b in zip(self._iterates(nag), self._iterates(nagex)):
            assert np.array_equal(a, b)

    def test_zero_momentum_degenerates_to_plain(self):
        plain = WeightSchedule(omega=self.omega)
        for variant in ("mom", "nag"):
            zeroed = WeightSchedule(omega=self.omega, alpha=np.zeros(3),
                                    variant=variant)
            for a, b in zip(self._iterates(plain), self._iterates(zeroed)):
                assert np.linalg.norm(a - b) <= 1e-14 * max(np.linalg.norm(b), 1)

    def test_nagex_unit_lookahead_is_regularised_update_descent(self):
        # RUD recurrence: look-ahead with the full previous velocity
        sched = WeightSchedule(omega=self.omega, alpha=self.alpha,
                               alpha_tilde=np.ones(3), variant="nagex")
        got = self._iterates(sched, sweeps=3)
        A, f = self.A.to_dense(), self.f
        u, v = np.zeros(16), np.zeros(16)
        ref = []
        for _ in range(3):
            for i in range(3):
                r = f - A @ (u + v)
                v = self.alpha[i] * v + self.omega[i] * r
                u = u + v
            ref.append(u.copy())
        for a, b in zip(got, ref):
            assert np.linalg.norm(a - b) <= 1e-14 * max(np.linalg.norm(b), 1)


class TestSolveStationary:
    def test_identity_converges_in_one_inner_step(self):
        A = SparseMatrix.identity(5)
        f = np.arange(1.0, 6.0)
        for variant in ("plain", "mom", "nag", "nagex"):
            sched = WeightSchedule(omega=[1.0], alpha=[0.0], variant=variant) \
                if variant != "plain" else WeightSchedule(omega=[1.0])
            u, rep = solve_stationary(A, f, sched)
            assert rep.converged and rep.inner_iterations == 1
            assert np.allclose(u, f)

    def test_trace_contract(self):
        rng = np.random.default_rng(3)
        A = random_spd(10, rng)
        f = rng.standard_normal(10)
        sched = WeightSchedule(omega=chebyshev_weights(
            *np.linalg.eigvalsh(A.to_dense())[[-1, 0]], 3))
        u, rep = solve_stationary(A, f, sched, tol=1e-10)
        assert rep.converged
        assert len(rep.trace) == rep.iterations + 1
        assert rep.trace[0] == 1.0  # zero initial guess
        assert rep.final_relative_residual <= 1e-10

    def test_preconditioned_sweep_matches_dense_reference(self):
        rng = np.random.default_rng(4)
        A = random_spd(8, rng)
        f = rng.standard_normal(8)
        P = Preconditioner.ssor(A, relax=1.0)
        Binv = np.column_stack([P.apply(e) for e in np.eye(8)])
        sched = WeightSchedule(omega=[0.4, 0.6], alpha=[0.3, 0.2], variant="nag")
        u = after_sweeps(A, f, sched, 2, P=P)
        ref_u, _ = run_variant_dense(A.to_dense(), f, np.zeros(8), np.zeros(8),
                                     sched, sweeps=2, Binv=Binv)
        assert np.linalg.norm(u - ref_u) <= 1e-12 * np.linalg.norm(ref_u)

    def test_chebyshev_contraction_factor_spectral(self):
        # per-sweep error reduction bounded by 1/T_m(sigma) on the spectrum
        rng = np.random.default_rng(5)
        A = random_spd(16, rng)
        Ad = A.to_dense()
        lam = np.linalg.eigvalsh(Ad)
        lmin, lmax = lam[0], lam[-1]
        m = 3
        omega = chebyshev_weights(lmax, lmin, m)
        T = sweep_operator(Ad, omega)
        rho = np.abs(np.linalg.eigvals(T)).max()
        kappa = lmax / lmin
        sigma = (kappa + 1.0) / (kappa - 1.0)
        bound = 1.0 / abs(np.polynomial.chebyshev.chebval(sigma, [0] * m + [1]))
        assert rho <= bound * (1 + 1e-10)

    def test_scale_invariance_of_counts(self):
        rng = np.random.default_rng(6)
        A = random_spd(12, rng)
        f = rng.standard_normal(12)
        lam = np.linalg.eigvalsh(A.to_dense())
        sched = WeightSchedule(omega=chebyshev_weights(lam[-1], lam[0], 3))
        _, rep1 = solve_stationary(A, f, sched, tol=1e-8)
        c = 1e3
        sched_c = WeightSchedule(omega=sched.omega / c)
        _, rep2 = solve_stationary(SparseMatrix.from_scipy(A.to_scipy() * c),
                                   c * f, sched_c, tol=1e-8)
        assert rep1.inner_iterations == rep2.inner_iterations

    def test_divergence_guard(self):
        rng = np.random.default_rng(7)
        A = random_spd(6, rng)
        f = rng.standard_normal(6)
        sched = WeightSchedule(omega=[50.0])  # far beyond 2/lambda_max
        with pytest.raises(DivergenceError):
            solve_stationary(A, f, sched, max_outer=5000)


def _oracle_system(field):
    """Small rotated anisotropic system; complex data as a complex
    right-hand side, or a complex-symmetric operator."""
    rng = np.random.default_rng(11)
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1e-2, theta=0.3, n=8))
    f = rng.standard_normal(A.nrows)
    u0 = rng.standard_normal(A.nrows)
    if field != "real":
        f = f + 1j * rng.standard_normal(A.nrows)
        u0 = u0 + 1j * rng.standard_normal(A.nrows)
    if field == "complex":
        A = SparseMatrix.from_scipy(
            A.to_scipy() + 0.2j * scipy.sparse.diags(A.diagonal()))
    return A, f, u0


def _oracle_schedule(variant, A, P):
    """Weights scaled to the preconditioned spectral radius. "plain-long"
    repeats the plain weights seven times: the sweep polynomial's bound
    (about 2.4e4) then exceeds AMPLIFICATION_LIMIT."""
    Ad = A.to_dense()
    BA = np.column_stack([precondition(P, col) for col in Ad.T])
    rho = np.max(np.abs(np.linalg.eigvals(BA)))
    omega = np.array([0.3, 0.9, 0.6]) / rho
    if variant == "plain":
        return WeightSchedule(omega=omega)
    if variant == "plain-long":
        return WeightSchedule(omega=np.tile(omega, 7))
    alpha = np.array([0.2, 0.3, 0.1])
    at = np.array([0.1, 0.25, 0.05]) if variant == "nagex" else None
    return WeightSchedule(omega=omega, alpha=alpha, alpha_tilde=at,
                          variant=variant)


ORACLE_CASES = [(p, fld) for p in (None, "jacobi", "ssor")
                for fld in ("real", "complex-rhs", "complex")]


VARIANTS = ["plain", "mom", "nag", "nagex"]
ORACLE_VARIANTS = ["plain", "plain-long", "mom", "nag", "nagex"]


# "outer" in the ids names where convergence is tested: at sweep boundaries.
@pytest.mark.parametrize("precond,field", ORACLE_CASES)
@pytest.mark.parametrize("variant", ORACLE_VARIANTS,
                         ids=[f"{v}-outer" for v in ORACLE_VARIANTS])
def test_solve_matches_allocating_reference_loop(variant, precond, field):
    """The step recurrence keeps the reference's bits. A plain solve
    without a preconditioner sweeps by Horner's rule, which sums in
    another order: its iterate is compared normwise, and its residual
    ratios, which carry the iterate's rounding amplified by about
    |A| |u| / |f - A u|, to 1e-8."""
    A, f, u0 = _oracle_system(field)
    P = {None: None, "jacobi": lambda: Preconditioner.weighted_jacobi(A),
         "ssor": lambda: Preconditioner.ssor(A)}[precond]
    P = P() if P else None
    sched = _oracle_schedule(variant, A, P)
    horner = variant == "plain" and P is None
    for start in (None, u0):
        kept = None if start is None else start.copy()
        u, rep = solve_stationary(A, f, sched, P=P, tol=1e-5, max_outer=150,
                                  u0=start)
        u_ref, ref = reference_solve_stationary(
            A, f, sched, P=P, tol=1e-5, max_outer=150, u0=kept)
        assert rep.sweep_form == ("horner" if horner else "recurrence")
        assert u.dtype == u_ref.dtype
        assert (rep.iterations, rep.inner_iterations, rep.converged) == (
            ref.iterations, ref.inner_iterations, ref.converged)
        if horner:
            assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
            assert np.allclose(rep.trace, ref.trace, rtol=1e-8, atol=0.0)
        else:
            assert np.array_equal(u, u_ref)
            assert np.array_equal(rep.trace, ref.trace)
            assert rep.final_relative_residual == ref.final_relative_residual
        if start is not None:
            assert np.array_equal(start, kept)   # the caller's u0 is untouched


def _counting_products(monkeypatch):
    """Patch SparseMatrix so that every product the solver runs, probed,
    unprobed or accumulating, appends its route to the returned list."""
    calls = []
    matvec = SparseMatrix.matvec

    def counted_matvec(self, x):
        calls.append("matvec")
        return matvec(self, x)

    def counting(name):
        factory = getattr(SparseMatrix, name)

        def make(self, *args):
            kernel = factory(self, *args)

            def run(*vectors):
                calls.append(name)
                return kernel(*vectors)
            return run
        return make

    monkeypatch.setattr(SparseMatrix, "matvec", counted_matvec)
    for name in ("_unprobed_product", "_accumulating_product"):
        monkeypatch.setattr(SparseMatrix, name, counting(name))
    return calls


@pytest.mark.parametrize("precond", [None, "jacobi", "ssor"])
@pytest.mark.parametrize("variant", ORACLE_VARIANTS)
def test_report_counts_products_and_applies(variant, precond, monkeypatch):
    A, f, _ = _oracle_system("real")
    P = _oracle_preconditioner(precond, A)
    sched = _oracle_schedule(variant, A, P)
    calls = _counting_products(monkeypatch)
    _, rep = solve_stationary(A, f, sched, P=P, tol=1e-5, max_outer=150)
    assert rep.inner_iterations > 0
    # one initial residual, one product per update in either sweep form;
    # nag/nagex add the sweep-end residual
    sweep_ends = 0 if variant.startswith("plain") or variant == "mom" \
        else rep.iterations
    assert rep.matvecs == len(calls) == 1 + rep.inner_iterations + sweep_ends
    horner = variant == "plain" and P is None
    assert ("_accumulating_product" in calls) == horner
    assert rep.precond_applies == (0 if P is None else rep.inner_iterations)


def _oracle_preconditioner(precond, A):
    if precond is None:
        return None
    if precond == "jacobi":
        return Preconditioner.weighted_jacobi(A)
    return Preconditioner.ssor(A)


def _outcome(solve, *args, **kwargs):
    """(u, trace, counts) of a solve, or (message, inner iteration) of
    its divergence."""
    try:
        u, rep = solve(*args, **kwargs)
    except DivergenceError as exc:
        return str(exc), exc.inner_iteration
    return u, rep.trace, (rep.iterations, rep.inner_iterations,
                          rep.converged, rep.final_relative_residual)


@pytest.mark.parametrize("variant", ["plain", "mom", "nag"])
def test_non_finite_iterate_in_padded_rows_gives_the_csr_outcome(variant):
    # one update from zero puts w f_j = inf in u_j alone. A CSR row meets
    # at most that one infinite term, so its residual is +-inf or finite;
    # a DIA row whose padding meets column j reads 0 * inf = NaN. The
    # solver takes its residuals by the unprobed product, so it must
    # recompute a non-finite one to report CSR's "inf", not "nan".
    A = _aniso_blocks_padded()
    csr = A.to_scipy()
    fast = A._unprobed_product(np.float64)
    weights = dict(omega=[1e160])
    if variant != "plain":
        weights.update(alpha=[0.5], variant=variant)
    sched = WeightSchedule(**weights)
    rng = np.random.default_rng(5)
    differs = 0
    for j in range(A.ncols):
        f = rng.uniform(-1.0, 1.0, A.ncols)
        f[j] = 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(solve_stationary, A, f, sched, max_outer=5)
            want = _outcome(reference_solve_stationary, A, f, sched,
                            max_outer=5)
            first = sched.omega[0] * f
            differs += bool(np.isnan(fast(first)).any()
                            and not np.isnan(csr.dot(first)).any())
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True)
            else:
                assert a == b
    assert differs > 0   # some j meet padding, so the recompute is run


def _aniso_blocks_padded():
    """An n=8 rotated anisotropic operator: its DIA product multiplies
    padding in the rows where the stencil meets a grid line."""
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1e-2, theta=0.5, n=8))
    assert A._kernel(False)[4] is not None
    return A


@functools.cache
def _scaling_case(variant, precond, field):
    A, f, _ = _oracle_system(field)
    P = _oracle_preconditioner(precond, A)
    sched = _oracle_schedule(variant, A, P)
    u, rep = solve_stationary(A, f, sched, P=P, tol=1e-5, max_outer=150)
    return A, f, P, sched, u, rep


@settings(max_examples=60)
@given(k=st.integers(-20, 20), variant=st.sampled_from(VARIANTS),
       precond=st.sampled_from([None, "jacobi", "ssor"]),
       field=st.sampled_from(["real", "complex-rhs", "complex"]))
def test_scaling_f_by_a_power_of_two_scales_only_u(k, variant, precond,
                                                   field):
    # every operation is linear in f, and a power of two scales a
    # rounded sum, product or square root exactly; the residual ratios
    # therefore keep their bits
    A, f, P, sched, u, rep = _scaling_case(variant, precond, field)
    scale = 2.0 ** k
    u_k, rep_k = solve_stationary(A, f * scale, sched, P=P, tol=1e-5,
                                  max_outer=150)
    assert np.array_equal(u_k, u * scale)
    assert np.array_equal(rep_k.trace, rep.trace)
    for name in ("iterations", "inner_iterations", "converged",
                 "final_relative_residual", "stagnated", "restarts",
                 "matvecs", "precond_applies"):
        assert getattr(rep_k, name) == getattr(rep, name)


@st.composite
def plain_cases(draw):
    """A plain schedule (m <= 5) on a small dense real-SPD or complex-
    symmetric operator B + iC (B, C symmetric positive, so every
    eigenvalue has a positive real part), with a right-hand side and a
    start. Each weight lies below min 2 Re(lam)/|lam|^2, where every
    factor |1 - w lam| < 1: the sweeps contract, so no solve diverges."""
    size = draw(st.integers(1, 8))
    is_complex = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = gen.standard_normal((size, size))
    M = G @ G.T + 0.1 * np.eye(size)
    if is_complex:
        H = gen.standard_normal((size, size))
        M = M + 0.5j * (H @ H.T)
    M = M * 10.0 ** draw(st.floats(-3.0, 3.0))
    lam = np.linalg.eigvals(M)
    reach = float(np.min(2.0 * lam.real / np.abs(lam) ** 2))
    m = draw(st.integers(1, 5))
    omega = reach * np.array(draw(st.lists(st.floats(0.05, 0.95),
                                           min_size=m, max_size=m)))
    dtype = complex if is_complex else float
    f, u0 = (gen.standard_normal(size).astype(dtype) for _ in range(2))
    if is_complex:
        f += 1j * gen.standard_normal(size)
        u0 += 1j * gen.standard_normal(size)
    return SparseMatrix.from_scipy(M), WeightSchedule(omega=omega), f, u0


@settings(max_examples=100, deadline=None)
@given(case=plain_cases())
def test_horner_sweeps_track_the_reference_loop(case):
    """Each Horner sweep rounds within 4 m eps bound (|u| + |f|/rho) of
    the recurrence, and a contracting sweep does not amplify what
    earlier sweeps left: after k sweeps the iterates differ by at most k
    times that. The sweep counts are the reference's."""
    A, sched, f, u0 = case
    rho = gershgorin_radius(A)
    for start in (None, u0):
        u, rep = solve_stationary(A, f, sched, tol=1e-8, max_outer=200,
                                  u0=start)
        u_ref, ref = reference_solve_stationary(A, f, sched, tol=1e-8,
                                                max_outer=200, u0=start)
        assert rep.sweep_form == "horner"
        assert (rep.iterations, rep.inner_iterations, rep.converged) == (
            ref.iterations, ref.inner_iterations, ref.converged)
        size = max(np.linalg.norm(u_ref),
                   0.0 if start is None else np.linalg.norm(start))
        tol = (4 * sched.m * max(rep.iterations, 1) * np.finfo(float).eps
               * rep.sweep_bound * (size + np.linalg.norm(f) / rho))
        assert np.linalg.norm(u - u_ref) <= tol
