import numpy as np
import pytest

from richlab.multigrid import (build_hierarchy, galerkin_coarse,
                               prolongation_matrix, restriction_matrix,
                               two_grid_error_operator, v_cycle)
from richlab.problems import AnisotropicProblem, assemble_anisotropic
from richlab.schedules import chebyshev_schedule
from richlab.spectral import dense_spectral_bounds


def dense_restriction_stencil(n):
    """Hand-assembled full-weighting matrix for the n -> n/2 transfer."""
    nc = n // 2
    R = np.zeros(((nc - 1) ** 2, (n - 1) ** 2))
    stencil = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0
    for I in range(1, nc):
        for J in range(1, nc):
            row = (I - 1) * (nc - 1) + (J - 1)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    fi, fj = 2 * I + di, 2 * J + dj
                    if 1 <= fi < n and 1 <= fj < n:
                        R[row, (fi - 1) * (n - 1) + (fj - 1)] = \
                            stencil[di + 1, dj + 1]
    return R


def test_odd_n_rejected():
    with pytest.raises(ValueError):
        restriction_matrix(7)


def test_constant_restricts_to_constant_interior():
    n = 16
    fine = np.ones((n - 1) ** 2)
    coarse = restriction_matrix(n).matvec(fine).reshape(n // 2 - 1, n // 2 - 1)
    assert np.allclose(coarse[1:-1, 1:-1], 1.0)


def test_transfer_transpose_relation(rng):
    n = 12
    x = rng.standard_normal((n - 1) ** 2)
    y = rng.standard_normal((n // 2 - 1) ** 2)
    lhs = restriction_matrix(n).matvec(x) @ y
    rhs = 0.25 * (x @ prolongation_matrix(n).matvec(y))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_matches_dense_stencil_oracle():
    n = 8
    R = restriction_matrix(n).to_dense()
    assert np.allclose(R, dense_restriction_stencil(n), atol=1e-15)
    P = prolongation_matrix(n).to_dense()
    assert np.allclose(P, 4.0 * dense_restriction_stencil(n).T, atol=1e-15)


def test_galerkin_shape_symmetry_and_dense_oracle():
    n = 8
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    R, P = restriction_matrix(n), prolongation_matrix(n)
    Ac = galerkin_coarse(A, R, P)
    nc = (n // 2 - 1) ** 2
    assert Ac.shape == (nc, nc)
    dense = Ac.to_dense()
    assert np.max(np.abs(dense - dense.T)) <= 1e-13
    oracle = R.to_dense() @ A.to_dense() @ P.to_dense()
    assert np.max(np.abs(dense - oracle)) <= 1e-13


def smoothed_hierarchy(n, eps=1.0, theta=0.0, m=2, coarsest=8):
    A = assemble_anisotropic(AnisotropicProblem(epsilon=eps, theta=theta, n=n))
    b = dense_spectral_bounds(A)
    sched = chebyshev_schedule(b.lambda_max, b.lambda_min, m)
    return A, build_hierarchy(A, n, coarsest=coarsest, schedules=sched)


def test_v_cycle_zero_fixed_point():
    _, h = smoothed_hierarchy(16)
    out = v_cycle(h, np.zeros((15) ** 2))
    assert np.array_equal(out, np.zeros(15 ** 2))


def test_two_grid_spectral_radius_below_one():
    n = 16
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    b = dense_spectral_bounds(A)
    omega = chebyshev_schedule(b.lambda_max, b.lambda_min, 2).omega
    E = two_grid_error_operator(A, n, omega, pre=1, post=0)
    rho = np.max(np.abs(np.linalg.eigvals(E)))
    assert rho < 1.0


def test_v_cycle_residual_never_increases(rng):
    n = 32
    A, h = smoothed_hierarchy(n)
    for _ in range(20):
        f = rng.standard_normal((n - 1) ** 2)
        u1 = v_cycle(h, f)
        assert np.linalg.norm(f - A.matvec(u1)) <= np.linalg.norm(f)


def test_zero_smoothing_two_level_equals_coarse_grid_correction(rng):
    n = 8
    A, h_full = smoothed_hierarchy(n, coarsest=4)
    assert h_full.depth == 2
    f = rng.standard_normal((n - 1) ** 2)
    u0 = rng.standard_normal((n - 1) ** 2)
    out = v_cycle(h_full, f, u0, pre=0, post=0)
    Ad = A.to_dense()
    R = restriction_matrix(n).to_dense()
    P = prolongation_matrix(n).to_dense()
    Ac = R @ Ad @ P
    expected = u0 + P @ np.linalg.solve(Ac, R @ (f - Ad @ u0))
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_hierarchy_invariants():
    _, h = smoothed_hierarchy(32, coarsest=8)
    assert h.depth == 3
    for lvl in h.levels[:-1]:
        assert lvl.R.shape == (((lvl.n // 2) - 1) ** 2, (lvl.n - 1) ** 2)
        assert lvl.A.nrows == (lvl.n - 1) ** 2
    assert (h.levels[-1].n - 1) ** 2 <= 1024


def test_complex_operator_supported(rng):
    from richlab.problems import HelmholtzProblem, assemble_helmholtz
    from richlab.schedules import WeightSchedule

    n = 32
    prob = HelmholtzProblem(angular_frequency=2.0 * np.pi, n=n,
                            shannon_check=False)
    A = assemble_helmholtz(prob)
    sched = WeightSchedule(omega=np.array([1e-4, 1e-4]))
    h = build_hierarchy(A, n, coarsest=8, schedules=sched)
    f = rng.standard_normal((n - 1) ** 2) + 1j * rng.standard_normal((n - 1) ** 2)
    u = v_cycle(h, f)
    assert np.iscomplexobj(u) and np.all(np.isfinite(u))


def _smoothed_hierarchy(kind):
    from richlab.problems import HelmholtzProblem, assemble_helmholtz
    from richlab.schedules import WeightSchedule

    n = 32
    if kind == "helmholtz":
        A = assemble_helmholtz(HelmholtzProblem(
            angular_frequency=2 * np.pi * 1.5, n=n))
        sched = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * n ** 2)),
                               alpha=np.full(5, 0.3), variant="nag")
    else:
        A = assemble_anisotropic(AnisotropicProblem(epsilon=0.1, theta=0.4,
                                                    n=n))
        sched = WeightSchedule(omega=[0.2, 0.3], alpha=[0.2, 0.1],
                               variant="mom")
    return build_hierarchy(A, n, coarsest=8, schedules=sched)


@pytest.mark.parametrize("kind", ["helmholtz", "anisotropic"])
def test_v_cycle_matches_allocating_reference_loop(kind, rng):
    from reference_iterations import reference_v_cycle

    h = _smoothed_hierarchy(kind)
    size = h.levels[0].A.nrows
    f = rng.standard_normal(size)
    u0 = rng.standard_normal(size)
    if kind == "helmholtz":
        f, u0 = f + 1j * rng.standard_normal(size), u0 + 1j * rng.standard_normal(size)
    kept = u0.copy()
    for pre, post in ((1, 1), (2, 0), (0, 3)):
        for start in (None, u0):
            u = v_cycle(h, f, start, pre=pre, post=post)
            ref = reference_v_cycle(h, f, start, pre=pre, post=post)
            assert np.array_equal(u, ref) and u.dtype == ref.dtype
            assert np.array_equal(u0, kept)   # the caller's u is untouched


def test_v_cycle_on_a_strided_column_equals_its_copy(rng):
    h = _smoothed_hierarchy("helmholtz")
    size = h.levels[0].A.nrows
    V = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
    kept = V.copy()
    assert np.array_equal(v_cycle(h, V[:, 1]), v_cycle(h, V[:, 1].copy()))
    assert np.array_equal(V, kept)   # the caller's f is untouched
