import numpy as np
import pytest
import scipy.sparse

from richlab.precond import Preconditioner, apply_preconditioner
from richlab.problems import AnisotropicProblem, assemble_anisotropic
from richlab.richardson import (DivergenceError, solve_stationary,
                                sweep_affine_term, sweep_operator)
from richlab.schedules import WeightSchedule, chebyshev_weights
from richlab.sparse import SparseMatrix

from conftest import random_spd
from reference_iterations import reference_solve_stationary


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
        A = SparseMatrix.identity(3).scaled(1e4)
        f = np.ones(3)
        sched = WeightSchedule(omega=[1e300, 1e300])
        with pytest.raises(DivergenceError) as exc:
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
        _, rep2 = solve_stationary(A.scaled(c), c * f, sched_c, tol=1e-8)
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
    """Weights scaled to the preconditioned spectral radius."""
    Ad = A.to_dense()
    BA = np.column_stack([apply_preconditioner(P, col) for col in Ad.T])
    rho = np.max(np.abs(np.linalg.eigvals(BA)))
    omega = np.array([0.3, 0.9, 0.6]) / rho
    if variant == "plain":
        return WeightSchedule(omega=omega)
    alpha = np.array([0.2, 0.3, 0.1])
    at = np.array([0.1, 0.25, 0.05]) if variant == "nagex" else None
    return WeightSchedule(omega=omega, alpha=alpha, alpha_tilde=at,
                          variant=variant)


ORACLE_CASES = [(p, fld) for p in (None, "jacobi", "ssor")
                for fld in ("real", "complex-rhs", "complex")]


@pytest.mark.parametrize("precond,field", ORACLE_CASES)
@pytest.mark.parametrize("check", ["outer", "inner"])
@pytest.mark.parametrize("variant", ["plain", "mom", "nag", "nagex"])
def test_solve_matches_allocating_reference_loop(variant, check, precond,
                                                 field):
    A, f, u0 = _oracle_system(field)
    P = {None: None, "jacobi": lambda: Preconditioner.weighted_jacobi(A),
         "ssor": lambda: Preconditioner.ssor(A)}[precond]
    P = P() if P else None
    sched = _oracle_schedule(variant, A, P)
    for start in (None, u0):
        kept = None if start is None else start.copy()
        u, rep = solve_stationary(A, f, sched, P=P, tol=1e-5, max_outer=150,
                                  u0=start, check=check)
        u_ref, ref = reference_solve_stationary(
            A, f, sched, P=P, tol=1e-5, max_outer=150, u0=kept, check=check)
        assert np.array_equal(u, u_ref) and u.dtype == u_ref.dtype
        assert np.array_equal(rep.trace, ref.trace)
        assert (rep.iterations, rep.inner_iterations, rep.converged,
                rep.final_relative_residual) == (
            ref.iterations, ref.inner_iterations, ref.converged,
            ref.final_relative_residual)
        if start is not None:
            assert np.array_equal(start, kept)   # the caller's u0 is untouched
