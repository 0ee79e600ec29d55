import numpy as np
import pytest
import scipy.sparse

from richlab.checkpoint import save_checkpoint
from richlab.data import sample_dataset
from richlab.fns import (FnsLiteModel, FnsTrainConfig, SpectralCorrection,
                         fns_lite_step, sine_basis_eigenvalues, solve_fns,
                         train_fns_lite)
from richlab.metanet import MetaNet
from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                              assemble_anisotropic, assemble_helmholtz)
from richlab.schedules import WeightSchedule
from richlab.sparse import SparseMatrix
from richlab.transforms import dst2, dst2_inv

from conftest import sine_mode


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


def test_exact_inverse_correction_one_step(rng):
    n = 32
    A = stencil_problem(n, eps=1.0, theta=0.0)
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
    products, steps = [], []
    matvec, step = SparseMatrix.matvec, fns.fns_lite_step
    monkeypatch.setattr(SparseMatrix, "matvec",
                        lambda self, x: products.append(1) or matvec(self, x))
    monkeypatch.setattr(fns, "fns_lite_step",
                        lambda *a, **k: steps.append(1) or step(*a, **k))
    u, rep = solve_fns(A, f, sched, corr, M=M, tol=1e-8)
    monkeypatch.undo()
    assert rep.converged and rep.iterations > 2
    assert len(steps) == rep.iterations
    assert len(products) == rep.iterations * (M + 1) + 1 == rep.matvecs
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


@pytest.fixture(scope="module")
def hybrid_dataset():
    return sample_dataset("anisotropic", 3, seed=11, n=16)


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("M,n_hybrid", [(0, 2), (4, 0), (4, 2)])
@pytest.mark.parametrize("phase", ["lambda", "omega"])
def test_hybrid_loss_matches_per_instance_oracle(hybrid_dataset, phase, M,
                                                 n_hybrid, batch_size):
    from reference_iterations import mean, reference_hybrid_unroll
    from reference_tape import Tape, exp, metanet_forward
    from richlab.fns import _g_gradient, _hybrid_loss
    from richlab.metanet import MetaNet
    from richlab.training import _schedules

    batch = list(hybrid_dataset)[:batch_size]
    n, m = hybrid_dataset.n, 3
    net = MetaNet.create(m, variant="plain", hidden=(6, 6), seed=2)
    # the correction rows exp(g) / d of a log-multiplier g near zero
    g = np.random.default_rng(8).uniform(-0.4, 0.4, (n - 1) ** 2)
    diagonals = [sine_basis_eigenvalues(s.A, n) for s in batch]

    # the oracle: each instance recorded on its own on the reference tape
    tape = Tape()
    if phase == "omega":
        pvars = [tape.var(p) for p in net.parameters()]
        lam = [np.exp(g) / d for d in diagonals]
        omega = [metanet_forward(net, s.mu, pvars)[0] for s in batch]
    else:
        pvars = [tape.var(g)]
        lam = [exp(pvars[0]) / d for d in diagonals]
        omega = [net.schedule_arrays(s.mu)[0] for s in batch]
    ref_loss = mean([reference_hybrid_unroll(s.A, s.f, w, l, n_hybrid, M, m)
                     for s, w, l in zip(batch, omega, lam)])
    tape.backward(ref_loss)
    ref_grads = [p.grad for p in pvars]

    (omega, _, _), records = _schedules(batch, net)
    lam = np.exp(g) / np.stack(diagonals)
    loss, row_grads = _hybrid_loss(batch, omega, lam, n_hybrid, M,
                                   wrt=("omega",) if phase == "omega"
                                   else ("lam",))
    assert np.array_equal(loss, ref_loss.value)
    if phase == "omega":
        for got, ref in zip(net.backward(records, row_grads().get("omega")),
                            ref_grads, strict=True):
            assert np.array_equal(got, ref)
    else:
        # the tape sums exp(g) times the rows' gradients over d, one
        # instance at a time; the library sums each row's gradient times
        # that row: the same terms, rounded in another order
        got = _g_gradient(row_grads().get("lam"), lam)
        assert np.max(np.abs(got - ref_grads[0])) <= \
            1e-13 * np.max(np.abs(ref_grads[0]))


@pytest.mark.parametrize("wrt", ["lam", "omega"])
def test_hybrid_loss_without_hybrid_steps_has_zero_gradients(hybrid_dataset,
                                                             wrt):
    # with no hybrid step the loss is that of the zero iterate, and it
    # reads neither the weight nor the correction rows
    from richlab.fns import _hybrid_loss
    from richlab.metanet import MetaNet
    from richlab.training import _schedules

    batch = list(hybrid_dataset)
    net = MetaNet.create(3, variant="plain", hidden=(6, 6), seed=2)
    rows = np.ones((len(batch), (hybrid_dataset.n - 1) ** 2))
    (omega, _, _), records = _schedules(batch, net)
    loss, row_grads = _hybrid_loss(batch, omega, rows, 0, 4, wrt=(wrt,))
    assert abs(loss - 1.0) <= 1e-15
    assert row_grads() == {}
    for g, p in zip(net.backward(records, None), net.parameters(),
                    strict=True):
        assert np.array_equal(g, np.zeros_like(p))


@pytest.fixture(scope="module")
def tiny_dataset():
    return sample_dataset("anisotropic", 4, seed=3, n=8)


def fast_config(**kw):
    base = dict(m=2, smooth_steps=2, unroll=2, cycles=1, n_epochs=3,
                batch_size=2, seed=5, hidden=(6, 6))
    base.update(kw)
    return FnsTrainConfig(**base)


@pytest.mark.parametrize("kw", [dict(unroll=-1), dict(batch_size=0)])
def test_config_rejects_negative_unroll_and_empty_batches(kw):
    with pytest.raises(ValueError, match="unroll must be >= 0 and "
                                         "batch_size >= 1"):
        fast_config(**kw)


def test_zero_cycles_trains_only_correction(tiny_dataset):
    from richlab.fns import _initial_net

    cfg = fast_config(cycles=0)
    init = _initial_net(cfg, input_dim=2)
    model = train_fns_lite(cfg, tiny_dataset)
    # the weight network is the frozen phase-0 smoother, bit-identical
    for a, b in zip(init.parameters(), model.net.parameters()):
        assert np.array_equal(a, b)
    assert [tag for tag, _ in model.training_history] == ["lambda"]
    assert np.any(model.g != 0.0)


def test_first_correction_step_reads_each_samples_diagonal(tiny_dataset):
    """One epoch of one batch: its loss is that of the rows 1/d of each
    sample's own diagonal, and g takes one Adam step along the gradient
    that those rows give (the batch runs in another order, so both match
    to rounding)."""
    from richlab.fns import _g_gradient, _hybrid_loss, _initial_net
    from richlab.training import Adam, _schedules

    cfg = fast_config(cycles=0, n_epochs=1, batch_size=len(tiny_dataset))
    model = train_fns_lite(cfg, tiny_dataset)
    batch, n = list(tiny_dataset), tiny_dataset.n
    lam = np.stack([1.0 / sine_basis_eigenvalues(s.A, n) for s in batch])
    (omega, _, _), _ = _schedules(batch, _initial_net(cfg, input_dim=2))
    loss, row_grads = _hybrid_loss(batch, omega, lam, cfg.unroll,
                                   cfg.smooth_steps, wrt=("lam",))
    zero = np.zeros((n - 1) ** 2)
    step, = Adam([zero], lr=cfg.learning_rate).step(
        [zero], [_g_gradient(row_grads()["lam"], lam)])
    (tag, (got,)), = model.training_history
    assert tag == "lambda" and abs(got - loss) <= 1e-14 * loss
    assert np.max(np.abs(model.g - step)) <= 1e-9 * cfg.learning_rate


def test_initial_weight_is_half(tiny_dataset):
    from richlab.fns import _initial_net

    net = _initial_net(fast_config(), input_dim=2)
    omega = net.schedule_arrays(tiny_dataset[0].mu)[0]
    assert np.allclose(omega, 0.5, atol=0.02)


def test_alternation_freezes_phases(tiny_dataset):
    cfg = fast_config(cycles=1)
    model = train_fns_lite(cfg, tiny_dataset)
    tags = [tag for tag, _ in model.training_history]
    assert tags == ["lambda", "omega", "lambda"]
    # omega phase actually moved the network off its frozen phase-0 state
    from richlab.fns import _initial_net
    init = _initial_net(cfg, input_dim=2)
    moved = any(not np.array_equal(a, b) for a, b in
                zip(init.parameters(), model.net.parameters()))
    assert moved


def test_training_is_deterministic(tiny_dataset):
    cfg = fast_config()
    m1 = train_fns_lite(cfg, tiny_dataset)
    m2 = train_fns_lite(cfg, tiny_dataset)
    assert np.array_equal(m1.g, m2.g)
    for a, b in zip(m1.net.parameters(), m2.net.parameters()):
        assert np.array_equal(a, b)


def test_model_round_trip(tmp_path, tiny_dataset):
    model = train_fns_lite(fast_config(n_epochs=1), tiny_dataset)
    path = tmp_path / "model.ckpt"
    model.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    back = FnsLiteModel.load(path)
    for a, b in zip(model.net.parameters(), back.net.parameters()):
        assert np.array_equal(a, b)
    assert np.array_equal(back.net.input_bounds, model.net.input_bounds)
    assert np.array_equal(back.g, model.g)
    assert back.n == model.n
    for s in tiny_dataset:
        assert np.array_equal(back.correction_for(s.A).lambda_tilde,
                              model.correction_for(s.A).lambda_tilde)


@pytest.mark.parametrize("eps,theta", [(1.0, 0.0), (1e-2, np.pi / 6),
                                       (1e-4, np.pi / 3), (1e-6, np.pi / 2)])
def test_untrained_correction_is_the_inverse_sine_diagonal(tiny_dataset, eps,
                                                           theta):
    """With g = 0, as training starts, the correction for any operator is
    criterion 6's: the inverse of its sine-basis diagonal, bit for bit."""
    n = tiny_dataset.n
    model = train_fns_lite(fast_config(n_epochs=0), tiny_dataset)
    A = stencil_problem(n, eps, theta)
    want = SpectralCorrection(1.0 / sine_basis_eigenvalues(A, n), n)
    assert model.correction_for(A).lambda_tilde.tobytes() == \
        want.lambda_tilde.tobytes()


def test_cross_loads_name_the_checkpoint_kind(tmp_path):
    n = 4
    net = MetaNet.create(m=2, variant="plain", input_dim=2, hidden=(4, 4))
    FnsLiteModel(net=net, g=np.zeros((n - 1) ** 2), n=n).save(
        tmp_path / "model")
    net.save(tmp_path / "net")
    # a trained hybrid that looked its correction up in a bucketed table
    meta, arrays = net._checkpoint()
    meta.update(kind="fns-lite", n=n)
    save_checkpoint(tmp_path / "bucketed", meta,
                    {**arrays, "table": np.zeros((2, 2, (n - 1) ** 2))})
    # the former second half of a hybrid: a bucketed table on its own
    save_checkpoint(tmp_path / "old.corr",
                    {"kind": "spectral-correction", "n": n, "n_buckets": 2,
                     "bucketed": True},
                    {"lambda_tilde": np.zeros((2, 2, (n - 1) ** 2)),
                     "input_bounds": net.input_bounds})
    for load, name, found, wanted in [
            (MetaNet.load, "model", "fns-anchored", "metanet"),
            (MetaNet.load, "old.corr", "spectral-correction", "metanet"),
            (FnsLiteModel.load, "net", "metanet", "fns-anchored"),
            (FnsLiteModel.load, "bucketed", "fns-lite", "fns-anchored"),
            (FnsLiteModel.load, "old.corr", "spectral-correction",
             "fns-anchored")]:
        path = tmp_path / name
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == (f"{path} holds a checkpoint of kind "
                                   f"{found!r}, not {wanted!r}")


@pytest.mark.parametrize("dropped", ["g", "n", "weight_1", "widths"])
def test_hybrid_missing_an_entry_names_it(dropped, tmp_path):
    n = 4
    net = MetaNet.create(m=2, variant="plain", input_dim=2, hidden=(4, 4))
    meta, arrays = net._checkpoint()
    meta.update(kind="fns-anchored", n=n)
    arrays["g"] = np.zeros((n - 1) ** 2)
    meta.pop(dropped, None)
    arrays.pop(dropped, None)
    path = tmp_path / "model"
    save_checkpoint(path, meta, arrays)
    with pytest.raises(ValueError) as info:
        FnsLiteModel.load(path)
    assert str(info.value) == f"{path} lacks the checkpoint entry {dropped!r}"
