import numpy as np
import pytest
import scipy.sparse

from richlab.checkpoint import load_checkpoint, save_checkpoint
from richlab.fns import (SpectralCorrection, fns_lite_step,
                         sine_basis_eigenvalues, solve_fns)
from richlab.metanet import MetaNet
from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                              assemble_anisotropic, assemble_helmholtz)
from richlab.richardson import solve_stationary
from richlab.schedules import WeightSchedule, chebyshev_schedule
from richlab.sparse import SparseMatrix
from richlab.spectral import dense_spectral_bounds
from richlab.transforms import dst2, dst2_inv

from conftest import count_bound_products, sine_mode


def stencil_problem(n, eps=1.0, theta=0.0):
    return assemble_anisotropic(AnisotropicProblem(epsilon=eps, theta=theta,
                                                   n=n))


def per_mode_diagonal(A, n):
    """Reference diag(S A S): one transform pair and one matvec per mode."""
    size = (n - 1) ** 2
    lam = np.empty(size)
    e = np.zeros(size)
    for k in range(size):
        e[k] = 1.0
        lam[k] = dst2(A.matvec(dst2_inv(e)))[k]
        e[k] = 0.0
    return lam


def random_nine_point(n, rng):
    """Random symmetric matrix on the 9-point stencil pattern."""
    pattern = stencil_problem(n).to_scipy().tocoo()
    M = scipy.sparse.coo_matrix((rng.standard_normal(pattern.nnz),
                                 (pattern.row, pattern.col)),
                                shape=pattern.shape)
    return SparseMatrix.from_scipy(M + M.T)


def diagonal_case(kind, n):
    if kind == "rotated":
        return stencil_problem(n, eps=1e-2, theta=np.pi / 3)
    if kind == "random":
        return random_nine_point(n, np.random.default_rng(n))
    # 12 grid points per wavelength at every n
    helm = assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * n / 12, n=n))
    return SparseMatrix.from_scipy(helm.to_scipy().real)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("kind", ["rotated", "random", "helmholtz-real"])
def test_sine_diagonal_matches_per_mode_oracle(kind, n):
    A = diagonal_case(kind, n)
    ref = per_mode_diagonal(A, n)
    got = sine_basis_eigenvalues(A, n)
    # the sums run in another order: allow a hundred roundings
    assert np.max(np.abs(got - ref)) <= 100 * np.finfo(float).eps * \
        np.max(np.abs(ref))


def test_sine_diagonal_rejects_complex_and_misfit_operators():
    helm = assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * 1.5, n=16))
    with pytest.raises(ValueError, match="real matrix"):
        sine_basis_eigenvalues(helm, 16)
    with pytest.raises(ValueError, match="does not match"):
        sine_basis_eigenvalues(stencil_problem(8), 9)


def test_zero_correction_equals_pure_smoothing(rng):
    n = 8
    A = stencil_problem(n)
    f = rng.standard_normal((n - 1) ** 2)
    sched = WeightSchedule(omega=np.array([0.1, 0.2]))
    corr = SpectralCorrection(lambda_tilde=np.zeros((n - 1) ** 2), n=n)
    u = fns_lite_step(A, f, np.zeros((n - 1) ** 2), sched, M=4, corr=corr)
    v = np.zeros((n - 1) ** 2)
    for k in range(4):
        v = v + sched.omega[k % 2] * (f - A.matvec(v))
    assert np.allclose(u, v, atol=1e-15)


@pytest.mark.parametrize("M", [0, 1, 4])
def test_step_matches_allocating_reference_loop(M, rng):
    from reference_iterations import reference_fns_lite_step

    n = 16
    A = stencil_problem(n, eps=1e-2, theta=np.pi / 3)
    corr = SpectralCorrection(lambda_tilde=1.0 / sine_basis_eigenvalues(A, n),
                              n=n)
    sched = WeightSchedule(omega=np.array([0.1, 0.25, 0.4]))
    f, u = rng.standard_normal((n - 1) ** 2), rng.standard_normal((n - 1) ** 2)
    kept = u.copy()
    for _ in range(3):
        step = fns_lite_step(A, f, u, sched, M=M, corr=corr)
        assert np.array_equal(step, reference_fns_lite_step(A, f, u, sched,
                                                            M, corr))
        assert np.array_equal(u, kept)   # the caller's u is untouched
        u, kept = step, step.copy()


@pytest.mark.parametrize("variant", ["mom", "nag", "nagex"])
def test_step_rejects_momentum_schedules(variant):
    n = 8
    A = stencil_problem(n)
    corr = SpectralCorrection(lambda_tilde=np.zeros((n - 1) ** 2), n=n)
    sched = WeightSchedule(omega=[0.1, 0.2], alpha=[0.3, 0.3], variant=variant)
    with pytest.raises(ValueError, match=variant):
        fns_lite_step(A, np.ones((n - 1) ** 2), np.zeros((n - 1) ** 2), sched,
                      M=2, corr=corr)


@pytest.mark.parametrize("eps,theta", [(1.0, 0.0), (1e-2, 0.0),
                                       (1e-4, np.pi / 2), (1e-6, 0.0)])
def test_exact_inverse_correction_one_step(eps, theta, rng):
    # the sine basis diagonalizes every axis-aligned operator, so its
    # correction 1 / diag(S A S) is the exact inverse at any anisotropy
    n = 32
    A = stencil_problem(n, eps=eps, theta=theta)
    lam = sine_basis_eigenvalues(A, n)
    corr = SpectralCorrection(lambda_tilde=1.0 / lam, n=n)
    f = rng.standard_normal((n - 1) ** 2)
    sched = WeightSchedule(omega=np.array([0.1]))
    u = fns_lite_step(A, f, np.zeros((n - 1) ** 2), sched, M=0, corr=corr)
    rel = np.linalg.norm(f - A.matvec(u)) / np.linalg.norm(f)
    assert rel <= 1e-12


def test_step_is_affine_in_inputs(rng):
    n = 8
    A = stencil_problem(n, eps=0.3, theta=0.7)
    size = (n - 1) ** 2
    sched = WeightSchedule(omega=np.array([0.1, 0.15]))
    corr = SpectralCorrection(lambda_tilde=rng.standard_normal(size) * 0.1,
                              n=n)
    u1, f1 = rng.standard_normal(size), rng.standard_normal(size)
    u2, f2 = rng.standard_normal(size), rng.standard_normal(size)
    a, b = 0.3, 0.7

    def step(u, f):
        return fns_lite_step(A, f, u, sched, M=3, corr=corr)

    lhs = step(a * u1 + b * u2, a * f1 + b * f2)
    rhs = a * step(u1, f1) + b * step(u2, f2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("entries,message", [
    (np.ones(8), "correction length does not match the grid"),
    (np.ones((3, 3)), "correction length does not match the grid"),
    (np.r_[np.ones(8), np.nan], "correction entries must be finite"),
    (np.r_[np.ones(8), -np.inf], "correction entries must be finite"),
])
def test_correction_refuses_misfit_and_non_finite_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        SpectralCorrection(lambda_tilde=entries, n=4)


def test_correction_mode_locality():
    n = 8
    A = stencil_problem(n)
    size = (n - 1) ** 2
    sched = WeightSchedule(omega=np.array([0.0]))
    for k in range(size):
        lam = np.zeros(size)
        lam[k] = 1.0
        corr = SpectralCorrection(lambda_tilde=lam, n=n)
        p, q = divmod(k, n - 1)
        mode = sine_mode(n, p + 1, q + 1)
        # correction of a residual orthogonal to mode k leaves u unchanged
        other = sine_mode(n, (p + 1) % (n - 1) + 1, q + 1)
        if abs(other @ mode) > 1e-12:
            continue
        u = corr.apply(other)
        assert np.max(np.abs(u)) <= 1e-12


def test_solve_counts_inner_iterations(rng):
    n = 16
    A = stencil_problem(n)
    lam = 1.0 / sine_basis_eigenvalues(A, n)
    corr = SpectralCorrection(lambda_tilde=lam, n=n)
    f = rng.standard_normal((n - 1) ** 2)
    sched = WeightSchedule(omega=np.array([0.1]))
    u, rep = solve_fns(A, f, sched, corr, M=2, tol=1e-10)
    assert rep.converged and rep.inner_iterations == 2 * rep.iterations


@pytest.mark.parametrize("M", [0, 1, 3])
def test_solve_matches_the_step_oracle_with_one_residual_per_step(
        M, rng, monkeypatch):
    """Each hybrid step reads the residual that the convergence test took,
    so a step after the first saves one product, and every iterate keeps
    the oracle's bits."""
    from richlab import fns
    from reference_iterations import reference_fns_lite_step

    n = 16
    A = stencil_problem(n, eps=1e-2, theta=np.pi / 3)
    corr = SpectralCorrection(lambda_tilde=1.0 / sine_basis_eigenvalues(A, n),
                              n=n)
    sched = WeightSchedule(omega=np.array([0.1, 0.25, 0.4]))
    f = rng.standard_normal((n - 1) ** 2)
    steps, step = [], fns.fns_lite_step
    products = count_bound_products(monkeypatch)
    monkeypatch.setattr(SparseMatrix, "matvec", None)   # all on the operator
    monkeypatch.setattr(fns, "fns_lite_step",
                        lambda *a, **k: steps.append(1) or step(*a, **k))
    u, rep = solve_fns(A, f, sched, corr, M=M, tol=1e-8)
    monkeypatch.undo()
    assert rep.converged and rep.iterations > 2
    assert len(steps) == rep.iterations
    assert len(products) == rep.iterations * (M + 1) + 1 == rep.matvecs
    assert len({op for op, _ in products}) == 1   # the steps share it
    u_ref, trace = np.zeros_like(f), [1.0]
    for _ in range(rep.iterations):
        u_ref = reference_fns_lite_step(A, f, u_ref, sched, M, corr)
        trace.append(float(np.linalg.norm(f - A.to_scipy() @ u_ref))
                     / np.linalg.norm(f))
    assert np.array_equal(u, u_ref)
    assert np.array_equal(rep.trace, trace)


def test_solve_of_a_zero_right_hand_side_takes_no_step(monkeypatch):
    n = 16
    A = stencil_problem(n)
    corr = SpectralCorrection(lambda_tilde=1.0 / sine_basis_eigenvalues(A, n),
                              n=n)
    monkeypatch.setattr(SparseMatrix, "matvec", None)   # no product runs
    u, rep = solve_fns(A, np.zeros((n - 1) ** 2),
                       WeightSchedule(omega=np.array([0.1])), corr, M=2)
    assert np.array_equal(u, np.zeros((n - 1) ** 2))
    assert rep.converged and rep.iterations == rep.matvecs == 0
    assert rep.final_relative_residual == 0.0
    assert rep.trace.tolist() == [0.0]


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_solve_refuses_a_tol_that_is_not_positive(tol, monkeypatch):
    n = 8
    A = stencil_problem(n)
    corr = SpectralCorrection(lambda_tilde=np.zeros((n - 1) ** 2), n=n)
    monkeypatch.setattr(SparseMatrix, "matvec", None)   # no step runs
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_fns(A, np.ones((n - 1) ** 2),
                  WeightSchedule(omega=np.array([0.1])), corr, M=2, tol=tol)


@pytest.mark.parametrize("eps,theta", [(1e-2, k * np.pi / 6)
                                       for k in range(6)]
                         + [(1e-4, np.pi / 3)])
def test_classical_hybrid_takes_half_the_updates_of_its_smoother(eps,
                                                                 theta):
    """The classical hybrid, Chebyshev(3) smoothing and the correction
    1 / diag(S A S), converges on each held-out cell in at most half the
    inner updates that the same Chebyshev schedule takes alone (310
    against 807 at (1e-2, pi/6); 10 against about 835 on the axes). No
    trained hybrid beat it on these cells (BENCH_hybrid.json), so it is
    the library's one hybrid."""
    n = 32
    A = stencil_problem(n, eps=eps, theta=theta)
    b = dense_spectral_bounds(A)
    sched = chebyshev_schedule(b.lambda_max, b.lambda_min, 3)
    corr = SpectralCorrection(lambda_tilde=1.0 / sine_basis_eigenvalues(A, n),
                              n=n)
    f = np.random.default_rng(100).standard_normal(A.ncols)
    _, hybrid = solve_fns(A, f, sched, corr, M=10)
    _, alone = solve_stationary(A, f, sched)
    assert hybrid.converged and alone.converged
    assert 2 * hybrid.inner_iterations <= alone.inner_iterations


@pytest.mark.parametrize("name,found", [("model", "fns-anchored"),
                                        ("bucketed", "fns-lite"),
                                        ("old.corr", "spectral-correction")])
def test_cross_loads_name_the_checkpoint_kind(name, found, tmp_path):
    """Checkpoints of retired kinds, a trained hybrid among them, are
    refused by the one loader, which names the kind it found."""
    n = 4
    net = MetaNet.create(m=2, variant="plain", hidden=(4, 4))
    net.save(tmp_path / "net")
    meta, arrays = load_checkpoint(tmp_path / "net", "metanet")
    # a trained hybrid: the net plus one log-multiplier per sine mode
    save_checkpoint(tmp_path / "model", {**meta, "kind": "fns-anchored",
                                         "n": n},
                    {**arrays, "g": np.zeros((n - 1) ** 2)})
    # one that looked its correction up in a bucketed table
    save_checkpoint(tmp_path / "bucketed", {**meta, "kind": "fns-lite",
                                            "n": n},
                    {**arrays, "table": np.zeros((2, 2, (n - 1) ** 2))})
    # the former second half of a hybrid: a bucketed table on its own
    save_checkpoint(tmp_path / "old.corr",
                    {"kind": "spectral-correction", "n": n, "n_buckets": 2,
                     "bucketed": True},
                    {"lambda_tilde": np.zeros((2, 2, (n - 1) ** 2)),
                     "input_bounds": net.input_bounds})
    path = tmp_path / name
    with pytest.raises(ValueError) as info:
        MetaNet.load(path)
    assert str(info.value) == (f"{path} holds a checkpoint of kind "
                               f"{found!r}, not 'metanet'")
