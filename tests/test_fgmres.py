import numpy as np
import pytest

from richlab.fgmres import FgmresConfig, fgmres
from richlab.multigrid import helmholtz_hierarchy, v_cycle
from richlab.problems import HelmholtzProblem, assemble_helmholtz
from richlab.sparse import SparseMatrix

from conftest import count_bound_products, random_spd
from reference_iterations import reference_fgmres


def reference_gmres_iterates(Ad, f, steps):
    """Textbook unrestarted GMRES via dense least squares on the Krylov
    basis built with modified Gram-Schmidt; returns iterates per step."""
    n = len(f)
    beta = np.linalg.norm(f)
    V = np.zeros((n, steps + 1), dtype=Ad.dtype)
    H = np.zeros((steps + 1, steps), dtype=Ad.dtype)
    V[:, 0] = f / beta
    iterates = []
    for k in range(steps):
        w = Ad @ V[:, k]
        for i in range(k + 1):
            H[i, k] = np.vdot(V[:, i], w)
            w = w - H[i, k] * V[:, i]
        H[k + 1, k] = np.linalg.norm(w)
        if H[k + 1, k] > 0:
            V[:, k + 1] = w / H[k + 1, k]
        e1 = np.zeros(k + 2, dtype=Ad.dtype)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H[:k + 2, :k + 1], e1, rcond=None)
        iterates.append(V[:, :k + 1] @ y)
    return iterates


def dense_to_sparse(Ad):
    import scipy.sparse
    return SparseMatrix.from_scipy(scipy.sparse.csr_matrix(Ad))


def test_identity_converges_in_one_iteration(rng):
    A = SparseMatrix.identity(10)
    f = rng.standard_normal(10)
    u, rep = fgmres(A, f)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(u, f, atol=1e-12)


def test_three_distinct_eigenvalues_three_iterations(rng):
    d = np.array([1.0, 2.0, 5.0] * 4)
    import scipy.sparse
    A = SparseMatrix.from_scipy(scipy.sparse.diags(d).tocsr())
    f = rng.standard_normal(12)
    u, rep = fgmres(A, f, cfg=FgmresConfig(restart=12, tol=1e-12))
    assert rep.converged and rep.iterations <= 3
    assert np.linalg.norm(u - f / d) <= 1e-10


def test_random_complex_symmetric_matches_lu(rng):
    n = 20
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Ad = M + M.T  # complex symmetric (not Hermitian)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    exact = np.linalg.solve(Ad, f)
    u, rep = fgmres(dense_to_sparse(Ad), f,
                    cfg=FgmresConfig(restart=20, tol=1e-12, max_outer=50))
    assert np.linalg.norm(u - exact) / np.linalg.norm(exact) <= 1e-8


def test_recurrence_residual_monotone_within_cycle(rng):
    A = random_spd(30, rng)
    f = rng.standard_normal(30)
    _, rep = fgmres(A, f, cfg=FgmresConfig(restart=30, tol=1e-10))
    assert np.all(np.diff(rep.trace) <= 1e-14)


def test_recurrence_matches_true_residual_at_restart(rng):
    A = random_spd(40, rng)
    f = rng.standard_normal(40)
    cfg = FgmresConfig(restart=5, tol=1e-10, max_outer=1)
    u, rep = fgmres(A, f, cfg=cfg)
    true_rel = np.linalg.norm(f - A.matvec(u)) / np.linalg.norm(f)
    assert abs(rep.trace[-1] - true_rel) <= 1e-10 * max(1.0, true_rel)
    assert abs(rep.final_relative_residual - true_rel) <= 1e-12
    assert rep.restarts == 1


def test_restarts_count_cycles(rng):
    A = random_spd(40, rng)
    f = rng.standard_normal(40)
    _, rep = fgmres(A, f, cfg=FgmresConfig(restart=5, tol=1e-10))
    assert rep.converged and rep.iterations > 10
    assert rep.restarts == -(-rep.iterations // 5)


def test_report_counts_products(rng, monkeypatch):
    A = random_spd(40, rng)
    f = rng.standard_normal(40)
    calls = count_bound_products(monkeypatch)
    monkeypatch.setattr(SparseMatrix, "matvec", None)   # all on the operator
    _, rep = fgmres(A, f, cfg=FgmresConfig(restart=5, tol=1e-10))
    assert rep.restarts > 1
    assert rep.matvecs == len(calls) == 1 + rep.iterations + rep.restarts
    assert {route for _, route in calls} == {"matvec"}
    assert len({op for op, _ in calls}) == 1   # bound once per solve


def test_matches_textbook_gmres_iterates(rng):
    n = 15
    Ad = random_spd(n, rng).to_dense()
    f = rng.standard_normal(n)
    steps = 6
    ref = reference_gmres_iterates(Ad, f, steps)[-1]
    u, _ = fgmres(dense_to_sparse(Ad), f,
                  cfg=FgmresConfig(restart=steps, tol=1e-30, max_outer=1))
    assert np.linalg.norm(u - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_flexible_preconditioning_with_varying_map(rng):
    A = random_spd(25, rng)
    f = rng.standard_normal(25)
    d = A.diagonal()
    calls = {"k": 0}

    def precond(r):
        # deliberately nonstationary: alternates two different maps
        calls["k"] += 1
        return r / d if calls["k"] % 2 else 0.5 * r / d

    u, rep = fgmres(A, f, precond_apply=precond,
                    cfg=FgmresConfig(restart=25, tol=1e-10, max_outer=20))
    assert rep.converged
    assert np.linalg.norm(f - A.matvec(u)) / np.linalg.norm(f) <= 1e-10


def test_stagnation_flagged():
    # singular operator: projection onto the first coordinate
    import scipy.sparse
    Ad = np.zeros((4, 4))
    Ad[0, 0] = 1.0
    A = SparseMatrix.from_scipy(scipy.sparse.csr_matrix(Ad))
    f = np.array([0.0, 1.0, 0.0, 0.0])
    u, rep = fgmres(A, f, cfg=FgmresConfig(restart=4, tol=1e-10, max_outer=5))
    assert not rep.converged and rep.stagnated


def test_zero_rhs():
    A = SparseMatrix.identity(5)
    u, rep = fgmres(A, np.zeros(5))
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(u, np.zeros(5))


def test_invalid_config():
    with pytest.raises(ValueError):
        FgmresConfig(restart=0)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            FgmresConfig(tol=tol)
    for max_outer in (0, -1):
        with pytest.raises(ValueError, match="max_outer"):
            FgmresConfig(max_outer=max_outer)


def _oracle_system(case, rng):
    """(A, f, preconditioner) of a V-cycle-preconditioned Helmholtz
    system at n=64, or of a random complex system."""
    if case == "random-complex":
        n = 80
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = dense_to_sparse(3.0 * np.eye(n) + M / np.sqrt(2 * n))
        pre = None
    else:
        n = 64
        A = assemble_helmholtz(HelmholtzProblem(
            angular_frequency=2 * np.pi * float(case), n=n))
        h = helmholtz_hierarchy(A, n)
        pre = lambda r: v_cycle(h, r)
    f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)
    return A, f, pre


@pytest.mark.parametrize("case", ["1.5", "3", "random-complex"])
def test_matches_column_major_reference(case, rng):
    # restart=5 runs several cycles. The Gram-Schmidt dot products sum
    # in another order on contiguous vectors, so iterates agree to
    # rounding; a recurrence residual far below the initial one carries
    # an absolute error of rounding size.
    A, f, pre = _oracle_system(case, rng)
    cfg = FgmresConfig(restart=5, tol=1e-10, max_outer=50)
    u, rep = fgmres(A, f, pre, cfg)
    u_ref, ref = reference_fgmres(A, f, pre, cfg)
    assert ref.restarts > 1
    assert (rep.iterations, rep.restarts, rep.stagnated, rep.converged) == (
        ref.iterations, ref.restarts, ref.stagnated, ref.converged)
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    np.testing.assert_allclose(rep.trace, ref.trace, rtol=1e-12, atol=1e-15)
