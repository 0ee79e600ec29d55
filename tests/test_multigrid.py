import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from richlab import multigrid, richardson
from richlab.multigrid import (CoarseSolveError, Level, _smooth,
                               build_hierarchy, coarsening_sides,
                               galerkin_coarse, helmholtz_hierarchy,
                               restriction_matrix, v_cycle)
from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                              assemble_anisotropic, assemble_helmholtz)
from richlab.richardson import (AMPLIFICATION_LIMIT, DivergenceError,
                                gershgorin_radius)
from richlab.schedules import WeightSchedule, chebyshev_schedule
from richlab.sparse import DimensionMismatch, SparseMatrix
from richlab.spectral import dense_spectral_bounds

from conftest import count_bound_products
from reference_assembly import (reference_galerkin, reference_prolongation,
                                reference_restriction)
from reference_iterations import (_reference_smooth, prolongation,
                                  two_grid_error_operator)

# a schedule whose sweeps leave the iterate as it is: a hierarchy that it
# smooths runs the bare coarse-grid correction
NO_SMOOTHING = WeightSchedule(omega=[0.0])


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


@pytest.mark.parametrize("n", [7, 0])
def test_odd_or_empty_side_rejected(n):
    with pytest.raises(ValueError, match=f"grid side {n} must be even"):
        restriction_matrix(n)


def test_constant_restricts_to_constant_interior():
    n = 16
    fine = np.ones((n - 1) ** 2)
    coarse = restriction_matrix(n).matvec(fine).reshape(n // 2 - 1, n // 2 - 1)
    assert np.allclose(coarse[1:-1, 1:-1], 1.0)


def test_transfer_transpose_relation(rng):
    n = 12
    R = restriction_matrix(n)
    x = rng.standard_normal((n - 1) ** 2)
    y = rng.standard_normal((n // 2 - 1) ** 2)
    lhs = R.matvec(x) @ y
    rhs = x @ R.rmatvec(y)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("dtype", [float, complex])
def test_prolongation_by_rmatvec_gives_the_csr_bytes(n, dtype, rng):
    """The V-cycle prolongs by R^T (4 e): the bytes of scipy's CSR product
    with 4 R^T, since 4 is a power of two and both add in ascending
    coarse index."""
    R = restriction_matrix(n)
    e = rng.standard_normal(R.nrows).astype(dtype)
    if dtype is complex:
        e += 1j * rng.standard_normal(R.nrows)
    expect = (4.0 * R.to_scipy().T).tocsr() @ e
    got = R.rmatvec(4.0 * e)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_matches_dense_stencil_oracle():
    n = 8
    R = restriction_matrix(n).to_dense()
    assert np.allclose(R, dense_restriction_stencil(n), atol=1e-15)


def assert_same_arrays(got, expect):
    assert got.shape == expect.shape
    for name in ("row_starts", "col_indices", "values"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("n", [*range(2, 66, 2), 130, 256])
def test_transfers_equal_the_entry_loop_oracle(n):
    """R, and the 4 R^T that the Galerkin product takes of it."""
    R = restriction_matrix(n)
    assert_same_arrays(R, reference_restriction(n))
    P = prolongation(R)
    assert_same_arrays(SparseMatrix(*P.shape, P.indptr, P.indices, P.data),
                       reference_prolongation(n))


def hierarchy_case(kind, n):
    if kind == "anisotropic":
        A = assemble_anisotropic(AnisotropicProblem(epsilon=1e-2,
                                                    theta=np.pi / 3, n=n))
        return build_hierarchy(A, n, coarsest=8, schedules=NO_SMOOTHING)
    A = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 5,
                                            n=n))
    return helmholtz_hierarchy(A, n)


@pytest.mark.parametrize("kind,n", [("helmholtz", 64), ("helmholtz", 128),
                                    ("anisotropic", 64)])
def test_hierarchy_levels_equal_the_kron_oracle(kind, n):
    """Every level's R and coarse A carry the arrays and dtypes of the
    Kronecker transfers and the canonicalised scipy product R A P."""
    h = hierarchy_case(kind, n)
    for fine, coarse in zip(h.levels, h.levels[1:]):
        R, P = reference_restriction(fine.n), reference_prolongation(fine.n)
        assert_same_arrays(fine.R, R)
        assert_same_arrays(coarse.A, reference_galerkin(fine.A, R, P))
        assert_same_arrays(galerkin_coarse(fine.A, R), coarse.A)


def test_galerkin_drops_an_entry_that_cancels_to_zero():
    """R A 4R^T whose (1, 1) entry sums 4 + (-4) to an exact zero, and
    whose first row scipy's product lists with columns (1, 0): the zero
    is left out and the columns sorted, as the oracle has them."""
    R = SparseMatrix.from_scipy(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]))
    A = SparseMatrix.from_scipy(np.diag([1.0, 0.0, -1.0]))
    raw = R.to_scipy() @ A.to_scipy() @ prolongation(R)
    assert raw.indices[:raw.indptr[1]].tolist() == [1, 0]
    got = galerkin_coarse(A, R)
    P = SparseMatrix.from_scipy(4.0 * R.to_dense().T)
    assert_same_arrays(got, reference_galerkin(A, R, P))
    assert got.to_dense().tolist() == [[4.0, 4.0], [4.0, 0.0]]
    assert got.nnz == 3 and np.all(got.values != 0)


def test_galerkin_refuses_transfers_that_do_not_chain():
    """An R from another grid, and an A whose rows fit R but whose
    columns do not."""
    n = 8
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    with pytest.raises(ValueError, match="do not chain"):
        galerkin_coarse(A, restriction_matrix(2 * n))
    wide = SparseMatrix.from_scipy(A.to_scipy()[:, :-1])
    with pytest.raises(ValueError, match="do not chain"):
        galerkin_coarse(wide, restriction_matrix(n))


def test_galerkin_shape_symmetry_and_dense_oracle():
    n = 8
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    R = restriction_matrix(n)
    Ac = galerkin_coarse(A, R)
    nc = (n // 2 - 1) ** 2
    assert Ac.shape == (nc, nc)
    dense = Ac.to_dense()
    assert np.max(np.abs(dense - dense.T)) <= 1e-13
    oracle = R.to_dense() @ A.to_dense() @ (4.0 * R.to_dense().T)
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
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    h = build_hierarchy(A, n, coarsest=4, schedules=NO_SMOOTHING)
    assert h.depth == 2
    f = rng.standard_normal((n - 1) ** 2)
    u0 = rng.standard_normal((n - 1) ** 2)
    out = v_cycle(h, f, u0)
    Ad = A.to_dense()
    R = restriction_matrix(n).to_dense()
    P = 4.0 * R.T
    Ac = R @ Ad @ P
    expected = u0 + P @ np.linalg.solve(Ac, R @ (f - Ad @ u0))
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_hierarchy_invariants():
    _, h = smoothed_hierarchy(32, coarsest=8)
    assert h.depth == 3
    for lvl in h.levels[:-1]:
        assert lvl.R.shape == (((lvl.n // 2) - 1) ** 2, (lvl.n - 1) ** 2)
        assert lvl.A.nrows == (lvl.n - 1) ** 2
    assert h.levels[-1].n == 8


def test_complex_operator_supported(rng):
    n = 32
    prob = HelmholtzProblem(angular_frequency=2.0 * np.pi, n=n)
    A = assemble_helmholtz(prob)
    sched = WeightSchedule(omega=np.array([1e-4, 1e-4]))
    h = build_hierarchy(A, n, coarsest=8, schedules=sched)
    f = rng.standard_normal((n - 1) ** 2) + 1j * rng.standard_normal((n - 1) ** 2)
    u = v_cycle(h, f)
    assert np.iscomplexobj(u) and np.all(np.isfinite(u))


def _smoothed_hierarchy(kind):
    n = 32
    if kind == "helmholtz":
        A = assemble_helmholtz(HelmholtzProblem(
            angular_frequency=2 * np.pi * 1.5, n=n))
        sched = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * n ** 2)),
                               alpha=np.full(5, 0.3), variant="nag")
    elif kind == "chebyshev":
        return smoothed_hierarchy(n, eps=0.1, theta=0.4, m=12)[1]
    else:
        A = assemble_anisotropic(AnisotropicProblem(epsilon=0.1, theta=0.4,
                                                    n=n))
        sched = WeightSchedule(omega=[0.2, 0.3], alpha=[0.2, 0.1],
                               variant="mom")
    return build_hierarchy(A, n, coarsest=8, schedules=sched)


# the forms the levels take: Chebyshev(12) smoothing amplifies too much
# for Horner's rule on every level
SMOOTHING_FORMS = {"helmholtz": {"horner"},
                   "anisotropic": {"horner"}, "chebyshev": {"recurrence"}}


@pytest.mark.parametrize("kind", ["helmholtz", "anisotropic", "chebyshev"])
def test_v_cycle_matches_allocating_reference_loop(kind, rng):
    """A level that smooths by Horner's rule sums in another order than
    the reference loop, so it matches to 1e-12 normwise; where every
    level keeps the step recurrence, the bits are the reference's."""
    from reference_iterations import reference_v_cycle

    h = _smoothed_hierarchy(kind)
    forms = {form for _, form, _ in h.smoothing()}
    assert forms == SMOOTHING_FORMS[kind]
    size = h.levels[0].A.nrows
    f = rng.standard_normal(size)
    u0 = rng.standard_normal(size)
    if kind == "helmholtz":
        f, u0 = f + 1j * rng.standard_normal(size), u0 + 1j * rng.standard_normal(size)
    kept = u0.copy()
    for start in (None, u0):
        u = v_cycle(h, f, start)
        ref = reference_v_cycle(h, f, start)
        assert u.dtype == ref.dtype
        if forms == {"recurrence"}:
            assert np.array_equal(u, ref)
        else:
            assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(u0, kept)   # the caller's u is untouched


def test_v_cycle_on_a_strided_column_equals_its_copy(rng):
    h = _smoothed_hierarchy("helmholtz")
    size = h.levels[0].A.nrows
    V = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
    kept = V.copy()
    assert np.array_equal(v_cycle(h, V[:, 1]), v_cycle(h, V[:, 1].copy()))
    assert np.array_equal(V, kept)   # the caller's f is untouched


def test_helmholtz_recipe_is_the_spelled_out_hierarchy(rng):
    n = 64
    A = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 3,
                                            n=n))
    sched = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * n ** 2)),
                           alpha=np.full(5, 0.3), variant="nag")
    spelled = build_hierarchy(A, n, coarsest=16, schedules=sched)
    recipe = helmholtz_hierarchy(A, n)
    f = rng.standard_normal(A.ncols) + 1j * rng.standard_normal(A.ncols)
    assert np.array_equal(v_cycle(recipe, f), v_cycle(spelled, f))


@st.composite
def sweep_cases(draw):
    """A schedule (m <= 15) on a small dense real-SPD or complex-symmetric
    operator, with a right-hand side and a start."""
    size = draw(st.integers(1, 8))
    is_complex = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = gen.standard_normal((size, size))
    if is_complex:
        G = G + 1j * gen.standard_normal((size, size))
        M = G + G.T + 0.1j * np.eye(size)
    else:
        M = G @ G.T + 0.1 * np.eye(size)
    A = SparseMatrix.from_scipy(M * 10.0 ** draw(st.floats(-3.0, 3.0)))
    rho = gershgorin_radius(A)
    variant = draw(st.sampled_from(["plain", "mom", "nag", "nagex"]))
    m = draw(st.integers(1, 15))
    coefficients = st.lists(st.floats(0.0, 1.0, exclude_max=True),
                            min_size=m, max_size=m)
    schedule = WeightSchedule(
        omega=np.array(draw(st.lists(st.floats(0.01, 2.5), min_size=m,
                                     max_size=m))) / rho,
        alpha=None if variant == "plain" else draw(coefficients),
        alpha_tilde=draw(coefficients) if variant == "nagex" else None,
        variant=variant)
    dtype = complex if is_complex else float
    f, u0 = (gen.standard_normal(size).astype(dtype) for _ in range(2))
    if is_complex:
        f += 1j * gen.standard_normal(size)
        u0 += 1j * gen.standard_normal(size)
    return Level(n=0, A=A, schedule=schedule), f, u0


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases())
def test_sweep_polynomial_reproduces_the_recurrence(case):
    """u + q(A)(f - A u) from the sweep coefficients equals the reference
    recurrence within 4 d eps bound (|u| + |f|/rho): Horner's rounding on
    a degree d - 1 polynomial, amplified at most by the bound. Above the
    limit the level keeps the recurrence, with the reference's bits."""
    level, f, u0 = case
    sweep = level.sweep
    q = sweep.coefficients
    assert len(q) == level.schedule.m
    assert (sweep.form == "horner") == (sweep.bound <= AMPLIFICATION_LIMIT)
    M, rho = level.A.to_dense(), gershgorin_radius(level.A)
    for start in (None, u0):
        u = np.zeros_like(f) if start is None else start
        ref = _reference_smooth(level, f, u)
        tol = (4 * len(q) * np.finfo(float).eps * sweep.bound
               * (np.linalg.norm(u) + np.linalg.norm(f) / rho))
        r = f - M @ u
        y = q[-1] * r
        for c in q[-2::-1]:
            y = c * r + M @ y
        assert np.linalg.norm(u + y - ref) <= tol
        got = _smooth(level, f, None if start is None else start.copy())
        if sweep.form == "horner":
            assert np.linalg.norm(got - ref) <= tol
        else:
            assert np.array_equal(got, ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", ["horner", "recurrence"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_f_diverges_in_either_form(form, bad, rng, monkeypatch):
    """The pass raises DivergenceError, with no floating-point warning
    before it. The finest level of the Helmholtz recipe at n=64 smooths
    by Horner's rule, and by the recurrence under a zero limit."""
    n = 64
    A = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 3,
                                            n=n))
    level = helmholtz_hierarchy(A, n).levels[0]
    if form == "recurrence":
        monkeypatch.setattr(richardson, "AMPLIFICATION_LIMIT", 0.0)
    assert level.sweep.form == form
    size = level.A.nrows
    f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    f[size // 3] = bad
    for u in (None, np.zeros(size, dtype=complex)):
        with pytest.raises(DivergenceError):
            _smooth(level, f, u)


def _products_per_level(h, warm):
    """Products with each smoothed level's bound operator in one V-cycle,
    by whichever route (probed or accumulating) they run."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_bound_products(patch)
        f = np.ones(h.levels[0].A.nrows, dtype=complex)
        v_cycle(h, f, f.copy() if warm else None)
    counts = collections.Counter(op for op, _ in calls)
    smoothed = [lvl._operator for lvl in h.levels[:-1]]
    assert set(counts) <= set(smoothed)
    return [counts[op] for op in smoothed]


@pytest.mark.parametrize("warm", [False, True])
def test_each_level_takes_the_recurrences_products(warm, monkeypatch):
    """m products per smoothing pass (m - 1 from zero) plus the residual,
    in either form: the recurrence's count."""
    n = 64
    A = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 3,
                                            n=n))
    h = helmholtz_hierarchy(A, n)
    # a level binds its operator on its first product, not at build
    assert not any("_operator" in vars(lvl) for lvl in h.levels)
    assert {form for _, form, _ in h.smoothing()} == {"horner"}
    polynomial = _products_per_level(h, warm)
    monkeypatch.setattr(richardson, "AMPLIFICATION_LIMIT", 0.0)
    assert {form for _, form, _ in h.smoothing()} == {"recurrence"}
    recurrence = _products_per_level(h, warm)
    m = 5
    # only a warm finest level starts its pre-smoothing from an iterate
    from_zero = [not warm] + [True] * (len(polynomial) - 1)
    assert polynomial == recurrence == [
        m - zero + 1 + m for zero in from_zero]


def test_hierarchy_reports_each_levels_smoothing():
    n = 64
    A = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 3,
                                            n=n))
    rows = helmholtz_hierarchy(A, n).smoothing()
    assert [(side, form) for side, form, _ in rows] == [
        (64, "horner"), (32, "horner")]
    assert all(bound >= 1.0 for *_, bound in rows)


def test_coarsening_sides_halve_to_the_coarsest():
    assert coarsening_sides(128, 16) == [128, 64, 32, 16]
    assert coarsening_sides(40, 8) == [40, 20, 10, 5]


@pytest.mark.parametrize("n,coarsest,message", [
    (136, 16, "n=136 does not coarsen to 16: its halvings reach the odd side 17"),
    (12, 8, "n=12 leaves no room to coarsen to 8"),
    (136, 4, "n=136 does not coarsen to 4: its halvings reach the odd side 17"),
])
def test_build_hierarchy_refuses_before_building_a_level(n, coarsest, message,
                                                         monkeypatch):
    def no_level(*args):
        raise AssertionError("a level was built")
    monkeypatch.setattr(multigrid, "restriction_matrix", no_level)
    monkeypatch.setattr(multigrid, "galerkin_coarse", no_level)
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    with pytest.raises(ValueError, match=message):
        build_hierarchy(A, n, coarsest=coarsest, schedules=NO_SMOOTHING)


@pytest.mark.parametrize("kind", ["anisotropic", "helmholtz"])
def test_coarse_solve_matches_a_dense_solve(kind, rng):
    if kind == "helmholtz":
        n = 64
        h = helmholtz_hierarchy(assemble_helmholtz(HelmholtzProblem(
            angular_frequency=2 * np.pi * 3, n=n)), n)
    else:
        h = smoothed_hierarchy(32, eps=0.1, theta=0.4)[1]
    Ac = h.levels[-1].A
    f = rng.standard_normal(Ac.nrows)
    if Ac.is_complex:
        f = f + 1j * rng.standard_normal(Ac.nrows)
    exact = np.linalg.solve(Ac.to_dense(), f)
    x = h.coarse_solve(f)
    assert x.dtype == exact.dtype
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_real_coarse_factor_solves_a_complex_side_by_parts(rng):
    h = smoothed_hierarchy(32, eps=0.1, theta=0.4)[1]
    size = h.levels[-1].A.nrows
    f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x = h.coarse_solve(f)
    assert x.dtype == np.complex128
    assert np.array_equal(x.real, h.coarse_solve(f.real))
    assert np.array_equal(x.imag, h.coarse_solve(f.imag))


def test_hierarchy_coarsens_to_the_64_grid(rng):
    """A 3,969-unknown coarsest level: past what a dense factor held."""
    n = 128
    A = assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * 10, n=n))
    sched = WeightSchedule(omega=np.full(5, 0.8 / (8.0 * n ** 2)),
                           alpha=np.full(5, 0.3), variant="nag")
    h = build_hierarchy(A, n, coarsest=64, schedules=sched)
    assert [lvl.n for lvl in h.levels] == [128, 64]
    assert h.levels[-1].A.nrows == 63 ** 2
    f = rng.standard_normal(A.nrows) + 1j * rng.standard_normal(A.nrows)
    u = v_cycle(h, f)
    assert np.linalg.norm(f - A.matvec(u)) < 0.5 * np.linalg.norm(f)


def _infinite_corner(n):
    """The n-grid isotropic operator with a_00 (row 0's first stored
    entry) set to +inf."""
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    values = A.values.copy()
    values[0] = np.inf
    return SparseMatrix(A.nrows, A.ncols, A.row_starts, A.col_indices, values)


@pytest.mark.parametrize("operator,message", [
    (lambda: SparseMatrix(15 ** 2, 15 ** 2, np.zeros(15 ** 2 + 1), [], []),
     "coarsest factorization failed: Factor is exactly singular"),
    (lambda: _infinite_corner(16),
     "coarsest operator is not finite"),
], ids=["zero", "infinite"])
def test_build_refuses_a_singular_or_non_finite_coarsest_operator(operator,
                                                                  message):
    with pytest.raises(CoarseSolveError, match=message):
        build_hierarchy(operator(), 16, coarsest=8, schedules=NO_SMOOTHING)


def test_non_finite_coarse_solve_raises():
    """A V-cycle that does not smooth hands f straight to the coarse
    solve: one near the largest float overflows it, and the cycle
    refuses the iterate."""
    n = 16
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    h = build_hierarchy(A, n, coarsest=8, schedules=NO_SMOOTHING)
    with pytest.raises(CoarseSolveError,
                       match="coarse solve gave a non-finite iterate"):
        v_cycle(h, np.full(A.nrows, 1e307))


@pytest.mark.parametrize("shape", ["one", "column", "short"])
@pytest.mark.parametrize("which", ["f", "u"])
def test_v_cycle_refuses_a_misshapen_vector(which, shape):
    """A length-1 or (N, 1) f or u would broadcast, and a short one would
    reach the unchecked accumulating product of a Horner pass."""
    n = 32
    h = helmholtz_hierarchy(assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * 1.5, n=n)), n)
    size = h.levels[0].A.ncols
    shapes = {"one": (1,), "column": (size, 1), "short": (size - 3,)}
    bad = np.ones(shapes[shape], dtype=complex)
    f, u = (bad, None) if which == "f" else (np.ones(size), bad)
    with pytest.raises(DimensionMismatch,
                       match=f"length {size}, but {which} has shape"):
        v_cycle(h, f, u)


def test_v_cycle_refuses_a_short_f_that_once_aborted():
    """This call ran scipy's kernel past the end of its buffers."""
    n = 32
    A = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 1.5,
                                            n=n))
    h = helmholtz_hierarchy(A, n)
    assert {form for _, form, _ in h.smoothing()} == {"horner"}
    with pytest.raises(DimensionMismatch, match="length 961, but f has shape "
                                                r"\(461,\)"):
        v_cycle(h, np.ones(A.ncols - 500, dtype=complex))
