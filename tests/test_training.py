import dataclasses
import gc
import weakref

import numpy as np
import pytest

from richlab.data import Dataset, Sample, sample_dataset
from richlab.metanet import MetaNet
from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                              assemble_anisotropic, assemble_helmholtz)
from richlab.tape import TapeReuseError
from richlab.training import (_PROJECTIONS, Adam, NanLossError,
                              TrainConfig, _batch_losses, _project,
                              _schedules, _unroll, closed_before,
                              evaluate_loss, gradient, krylov_projection,
                              loss_relative_residual, make_preconditioner,
                              train_ns)

from conftest import assert_close, sine_mode

from reference_iterations import (linear_map, mean, norm2,
                                  reference_krylov_projection, spmv)
from reference_tape import Tape, metanet_forward


def flat_params(net):
    return np.concatenate([p.ravel() for p in net.parameters()])


def set_flat(net, vec):
    params, pos = [], 0
    for p in net.parameters():
        params.append(vec[pos:pos + p.size].reshape(p.shape))
        pos += p.size
    net.set_parameters(params)


@pytest.fixture(scope="module")
def small_dataset():
    return sample_dataset("anisotropic", 4, seed=7, n=8)


def test_loss_matches_tape_free_oracle(small_dataset):
    net = MetaNet.create(m=3, variant="nagex", seed=0, hidden=(8, 8))
    loss, _, _ = loss_relative_residual(list(small_dataset), net, K=12)
    oracle = evaluate_loss(list(small_dataset), net, K=12)
    assert abs(loss - oracle) <= 1e-13 * max(1.0, abs(oracle))


def test_zero_unroll_gives_unit_loss(small_dataset):
    net = MetaNet.create(m=3, variant="plain", seed=0, hidden=(8, 8))
    loss, _, _ = loss_relative_residual(list(small_dataset), net, K=0)
    assert abs(loss - 1.0) <= 1e-15


@pytest.mark.parametrize("variant,precond", [
    ("plain", None),
    ("nag", None),
    ("nagex", "ssor"),
])
def test_gradient_matches_central_differences(small_dataset, variant, precond):
    net = MetaNet.create(m=3, variant=variant, seed=1, hidden=(6, 6))
    batch = list(small_dataset)[:2]
    K = 5

    loss, tape, pvars = loss_relative_residual(batch, net, K, precond=precond)
    grads = gradient(loss, tape, pvars)
    g = np.concatenate([gr.ravel() for gr in grads])

    x0 = flat_params(net)
    rng = np.random.default_rng(3)
    idx = rng.choice(x0.size, size=40, replace=False)
    h = 1e-6
    probe = net.copy()
    for i in idx:
        if abs(g[i]) <= 1e-8:
            continue
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        set_flat(probe, xp)
        fp = evaluate_loss(batch, probe, K, precond=precond)
        set_flat(probe, xm)
        fm = evaluate_loss(batch, probe, K, precond=precond)
        fd = (fp - fm) / (2 * h)
        # absolute floor covers float64 central-difference roundoff noise
        assert abs(fd - g[i]) <= 1e-5 * max(abs(fd), abs(g[i])) + 1e-10


def test_unrolled_oracle_rhs_scale_invariance(small_dataset):
    s = small_dataset[0]
    omega = np.array([[0.2, 0.3, 0.1]])
    alpha = np.array([[0.1, 0.2, 0.3]])
    at = alpha
    H = s.A.to_dense()[None]   # the operator as a stack of one
    r1, _ = _unroll(H, s.f[None], omega, alpha, at, 9, "nag")
    r2, _ = _unroll(H, 7.5 * s.f[None], omega, alpha, at, 9, "nag")
    assert abs(r1[0] - r2[0]) <= 1e-13


# -- the per-instance tape unroll, kept as an oracle for the batched one ----

def per_instance_unroll(A, f, omega, alpha, alpha_t, K, variant, P=None):
    """One instance recorded on its own, one tape node per vector op."""
    tape = omega.tape
    n = len(f)
    u = tape.var(np.zeros(n))
    v = tape.var(np.zeros(n))
    fnorm = float(np.linalg.norm(f))
    m = omega.shape[0]
    for k in range(K):
        i = k % m
        if variant in ("plain", "mom"):
            r = f - spmv(A, u)
        else:
            r = f - spmv(A, u + alpha_t[i] * v)
        pr = linear_map(P.apply, P.apply_transpose, r) if P is not None else r
        step = omega[i] * pr
        v = alpha[i] * v + step if alpha is not None else step
        u = u + v
    r = f - spmv(A, u)
    return norm2(r) * (1.0 / fnorm)


def per_instance_loss(batch, net, K, precond):
    """Mean of the per-instance unrolls, and the parameter gradients."""
    tape = Tape()
    pvars = [tape.var(p) for p in net.parameters()]
    losses = []
    for sample in batch:
        omega, alpha, alpha_t = metanet_forward(net, sample.mu, pvars)
        P = make_preconditioner(precond, sample.A)
        losses.append(per_instance_unroll(sample.A, sample.f, omega, alpha,
                                          alpha_t, K, net.variant, P))
    loss = mean(losses)
    tape.backward(loss)
    return loss.value, [p.grad for p in pvars]


@pytest.fixture(scope="module")
def mixed_dataset():
    # eps and theta drawn over their whole ranges, n=16 (225 unknowns)
    return sample_dataset("anisotropic", 7, seed=13, n=16)


@pytest.mark.parametrize("batch_size", [1, 3, 7])
@pytest.mark.parametrize("precond", [None, "jacobi", "ssor"])
@pytest.mark.parametrize("variant", ["plain", "mom", "nag", "nagex"])
def test_projected_loss_matches_per_instance(mixed_dataset, variant, precond,
                                             batch_size):
    net = MetaNet.create(m=3, variant=variant, seed=4, hidden=(6, 6))
    batch = list(mixed_dataset)[:batch_size]
    K = 10
    ref_loss, ref_grads = per_instance_loss(batch, net, K, precond)
    loss, tape, pvars = loss_relative_residual(batch, net, K, precond=precond)
    grads = gradient(loss, tape, pvars)
    assert_close(loss, ref_loss)
    for g, ref in zip(grads, ref_grads, strict=True):
        assert_close(g, ref)
    assert evaluate_loss(batch, net, K, precond=precond) == loss


@pytest.mark.parametrize("precond", [None, "ssor"])
def test_sample_loss_does_not_depend_on_its_batch_or_position(precond):
    """A sample's H and loss are the same bits alone and at any position
    of any list or batch, projected afresh or served by the memo."""
    samples = list(sample_dataset("anisotropic", 25, seed=3, n=8))
    net = MetaNet.create(m=3, variant="nagex", seed=2, hidden=(6, 6))
    K = 12
    alone_H = []
    for s in samples:
        _PROJECTIONS.clear()
        alone_H.append(krylov_projection([s], K, precond)[0][0])
    alone = np.array([_batch_losses([s], net, K, precond)[0][0]
                      for s in samples])
    order = np.random.default_rng(0).permutation(len(samples))
    _PROJECTIONS.clear()
    H, _ = krylov_projection([samples[j] for j in order], K, precond)
    for h, j in zip(H, order):
        assert np.array_equal(h, alone_H[j])
    for size in (3, 7, 25):
        for start in range(0, len(samples), size):
            rows = order[start:start + size]
            losses = _batch_losses([samples[j] for j in rows], net, K,
                                   precond)[0]
            assert np.array_equal(losses, alone[rows])


# -- the projection memo -----------------------------------------------------

@pytest.mark.parametrize("precond", [None, "jacobi", "ssor"])
def test_memo_hit_has_the_bits_of_a_fresh_projection(precond):
    samples = list(sample_dataset("anisotropic", 5, seed=13, n=8))
    H, fnorm, reused = _project(samples, 10, precond)
    assert reused == 0
    expected_H, expected_fnorm = H.copy(), fnorm.copy()
    H[:] = 0.0   # the caller's copy, not the memo's
    H, fnorm, reused = _project(samples[::-1], 10, precond)
    assert reused == len(samples)
    assert np.array_equal(H, expected_H[::-1])
    assert np.array_equal(fnorm, expected_fnorm[::-1])


def test_memo_misses_another_matrix_f_k_or_preconditioner():
    sample = sample_dataset("anisotropic", 1, seed=14, n=8)[0]
    K = 6
    assert _project([sample, sample], K, None)[2] == 1
    assert _project([sample], K, None)[2] == 1
    for other, k, precond in [
            (dataclasses.replace(sample, f=sample.f[::-1].copy()), K, None),
            (dataclasses.replace(sample, A=assemble_anisotropic(sample.spec)),
             K, None),
            (sample, K + 1, None),
            (sample, K, "jacobi")]:
        assert _project([other], k, precond)[2] == 0
    _, before = krylov_projection([sample], K)
    sample.f[0] += 1.0
    _, fnorm, reused = _project([sample], K, None)
    assert reused == 0 and fnorm[0] != before[0]


def test_memo_entry_dies_with_its_matrix():
    sample = sample_dataset("anisotropic", 1, seed=15, n=8)[0]
    krylov_projection([sample], 6, "ssor")
    (h, _), = _PROJECTIONS[sample.A].values()
    matrix, block = weakref.ref(sample.A), weakref.ref(h.base)
    del sample, h
    gc.collect()
    assert matrix() is None and block() is None


def test_projection_keeps_no_factor_or_kernel_on_the_dataset(monkeypatch):
    # whatever a projection leaves on each of a dataset's matrices lives
    # as long as the dataset: SSOR's two triangles outweigh the matrix,
    # and product kernels left on 200 samples once fragmented the heap
    # (no matrix keeps a kernel now: see tests/test_sparse.py)
    from richlab.precond import Preconditioner

    built = []
    build = Preconditioner.ssor.__func__

    def one_at_a_time(cls, A, relax):
        assert all(P() is None for P in built)
        P = build(cls, A, relax)
        built.append(weakref.ref(P))
        return P

    monkeypatch.setattr(Preconditioner, "ssor", classmethod(one_at_a_time))
    for project, factors in (
            (lambda ds: krylov_projection(ds.samples, 6, "ssor"), 12),
            (lambda ds: train_ns(TrainConfig(
                m=2, unroll=6, n_epochs=1, batch_size=4, seed=0,
                precond="ssor", hidden=(4, 4)), ds), 12)):
        ds = sample_dataset("anisotropic", 12, seed=17, n=16)
        built.clear()
        project(ds)
        assert len(built) == factors
        assert all(P() is None for P in built)
        # nor the scipy view: SSOR reads the diagonal from the arrays
        assert all("_csr" not in vars(s.A) for s in ds)


def test_one_dataset_is_projected_once_for_every_net():
    ds = sample_dataset("anisotropic", 10, seed=16, n=8)
    reused = []
    for variant in ("plain", "nag", "nagex"):
        cfg = TrainConfig(m=2, unroll=6, n_epochs=1, batch_size=5, seed=0,
                          variant=variant, hidden=(4, 4))
        reused.append(train_ns(cfg, ds).training_history["projection_reused"])
    assert reused == [0, len(ds), len(ds)]


def test_equal_datasets_are_projected_independently():
    """Criterion 9 trains on two draws of one dataset: their matrices are
    different objects, so each draw is projected, to the same nets."""
    cfg = TrainConfig(m=2, unroll=5, n_epochs=3, batch_size=3, seed=9,
                      variant="nag", hidden=(8, 8))
    nets = [train_ns(cfg, sample_dataset("anisotropic", 6, seed=21, n=8))
            for _ in range(2)]
    assert [net.training_history["projection_reused"] for net in nets] == \
        [0, 0]
    for a, b in zip(*(net.parameters() for net in nets), strict=True):
        assert np.array_equal(a, b)


def closing_steps(H):
    """Per sample of an H stack, the Arnoldi steps taken: up to the first
    zero subdiagonal entry, where the Krylov space closed, or all K."""
    sub = np.diagonal(H, offset=-1, axis1=1, axis2=2) == 0
    return np.where(sub.any(axis=1), sub.argmax(axis=1) + 1, sub.shape[1])


# SSOR at n=4 and n=8 runs each Krylov space to within a few steps of its
# dimension, where the subdiagonal entries fall to 1e-10 of the column
# norms. Every such step amplifies the rounding in the next basis vector,
# so the last columns of H differ between the two summation orders by up
# to 0.07 (on both sides a valid Arnoldi projection), while the losses
# they give agree to 1e-14.
@pytest.mark.parametrize("precond,n,whole_H", [
    *[(precond, n, True) for precond in (None, "jacobi")
      for n in (2, 4, 8, 32)],
    ("ssor", 2, True), ("ssor", 4, False), ("ssor", 8, False),
    ("ssor", 32, True)])
def test_projection_matches_chunked_oracle(precond, n, whole_H):
    """Each sample closes at the oracle's step, and its loss, and where
    the basis is well conditioned its whole H, match the chunked
    row-stack projection. The list ends with a sine mode at
    theta=0, an eigenvector of A, and of A M^{-1} under Jacobi, which
    closes after one step; at n <= 8 every sample closes before K."""
    spec = AnisotropicProblem(epsilon=0.3, theta=0.0, n=n)
    samples = list(sample_dataset("anisotropic", 24, seed=5, n=n))
    samples.append(Sample(spec=spec, A=assemble_anisotropic(spec),
                          f=sine_mode(n, 1, 1)))
    K = 50
    H, fnorm = krylov_projection(samples, K, precond)
    ref_H, ref_fnorm = reference_krylov_projection(samples, K, precond)
    assert np.array_equal(fnorm, ref_fnorm)
    steps = closing_steps(H)
    assert np.array_equal(steps, closing_steps(ref_H))
    if n == 32 and precond != "ssor":
        assert (steps == K).any() and steps[-1] == 1
    if n <= 8:
        assert (steps < K).all()
    net = MetaNet.create(m=3, variant="nagex", seed=4, hidden=(6, 6))
    rows, _ = _schedules(samples, net)
    F = np.zeros((len(samples), K + 1))
    F[:, 0] = fnorm
    assert_close(_unroll(H, F, *rows, K, "nagex")[0],
                 _unroll(ref_H, F, *rows, K, "nagex")[0])
    if whole_H:
        for h, ref in zip(H, ref_H, strict=True):
            assert_close(h, ref)


# -- a Krylov space that closes before K steps -------------------------------

@pytest.mark.parametrize("variant,precond", [("plain", None),
                                             ("nagex", "ssor")])
@pytest.mark.parametrize("n", [2, 4])
def test_closed_krylov_space_keeps_the_loss_exact(variant, precond, n):
    """n=2 and n=4 have 1 and 9 unknowns, fewer than the K+1 = 51
    directions of the default unroll: every projection closes, and the
    loss and its gradients still match the full-operator unroll."""
    batch = list(sample_dataset("anisotropic", 3, seed=8, n=n))
    K = 50
    H, _ = krylov_projection(batch, K, precond)
    assert closed_before(H).all()
    # rows and columns past the closing step are zero
    for h in H:
        j = int(np.flatnonzero(np.diagonal(h, offset=-1) == 0)[0])
        assert j <= (n - 1) ** 2 - 1
        assert not h[j + 1:].any() and not h[:, j + 1:].any()
    # small weights, so the residuals stay well above rounding
    net = MetaNet.create(m=3, variant=variant, seed=4, hidden=(6, 6))
    net.biases[-1][:] = -4.0
    ref_loss, ref_grads = per_instance_loss(batch, net, K, precond)
    loss, tape, pvars = loss_relative_residual(batch, net, K, precond=precond)
    assert ref_loss > 1e-8
    assert_close(loss, ref_loss)
    for g, ref in zip(gradient(loss, tape, pvars), ref_grads, strict=True):
        assert_close(g, ref)


@pytest.mark.parametrize("precond", [None, "jacobi"])
def test_eigenvector_right_hand_side_closes_after_one_step(precond):
    """A sine mode is an eigenvector of A at theta=0, and of A M^{-1} for
    Jacobi's constant diagonal there: H is that eigenvalue and zeros, and
    the loss is the iteration polynomial's modulus at it."""
    n, K = 8, 20
    spec = AnisotropicProblem(epsilon=0.3, theta=0.0, n=n)
    f = sine_mode(n, 2, 3)
    sample = Sample(spec=spec, A=assemble_anisotropic(spec), f=f)
    (h,), _ = krylov_projection([sample], K, precond)
    assert h[1, 0] == 0 and not h[1:].any() and not h[:, 1:].any()
    P = make_preconditioner(precond, sample.A)
    w = sample.A.matvec(f if P is None else P.apply(f))
    assert h[0, 0] == pytest.approx(w @ f / (f @ f), rel=1e-14)
    net = MetaNet.create(m=3, variant="nag", seed=1, hidden=(6, 6))
    ref_loss, ref_grads = per_instance_loss([sample], net, K, precond)
    loss, tape, pvars = loss_relative_residual([sample], net, K,
                                               precond=precond)
    assert_close(loss, ref_loss)
    for g, ref in zip(gradient(loss, tape, pvars), ref_grads, strict=True):
        assert_close(g, ref)


@pytest.mark.parametrize("variant,precond,best", [
    ("plain", None, 0.001092), ("nagex", "ssor", 0.0001492)])
def test_training_on_closed_krylov_spaces(variant, precond, best):
    """``richlab train --n 4 --epochs 3``: every sample has 9 unknowns
    and closes before the default unroll of 50. Treating only an exactly
    zero column as closed lets rounding open spurious directions, and
    the best validation loss read "loss above 1e3" and 5.8e9; these are
    the full-operator trainer's figures."""
    ds = sample_dataset("anisotropic", 200, seed=0, n=4)
    net = train_ns(TrainConfig(n_epochs=3, variant=variant, precond=precond),
                   ds)
    assert net.training_history["krylov_closed"] == len(ds)
    val = net.training_history["val"][net.best_epoch]
    assert val == pytest.approx(best, rel=5e-4)


def test_nan_instance_is_named(mixed_dataset):
    batch = list(mixed_dataset)[:4]
    f = batch[2].f.copy()
    f[5] = np.nan
    batch[2] = dataclasses.replace(batch[2], f=f)
    net = MetaNet.create(m=3, variant="nag", seed=0, hidden=(4, 4))
    with pytest.raises(NanLossError) as exc:
        loss_relative_residual(batch, net, K=6)
    assert exc.value.instance_index == 2


def test_gradient_releases_the_tape(mixed_dataset):
    net = MetaNet.create(m=3, variant="nagex", seed=0, hidden=(4, 4))
    loss, tape, params = loss_relative_residual(list(mixed_dataset)[:3], net,
                                                K=6, precond="ssor")
    adjoint = weakref.ref(tape._adjoint)
    gc.disable()   # the history must go by reference counting alone
    try:
        grads = gradient(loss, tape, params)
        assert adjoint() is None
    finally:
        gc.enable()
    assert [g.shape for g in grads] == [p.shape for p in params]
    with pytest.raises(TapeReuseError):
        tape.backward()


def test_adam_matches_reference_step():
    p = [np.array([1.0, -2.0])]
    g = [np.array([0.5, 0.25])]
    opt = Adam(p, lr=0.1)
    out = opt.step(p, g)
    # first step: mhat = g, vhat = g*g, update = lr * g/( |g| + eps )
    expected = p[0] - 0.1 * g[0] / (np.abs(g[0]) + 1e-8)
    assert np.allclose(out[0], expected, rtol=1e-12)


def test_training_is_deterministic(small_dataset):
    cfg = TrainConfig(m=2, unroll=6, n_epochs=3, batch_size=2, seed=11,
                      variant="plain", hidden=(6, 6))
    n1 = train_ns(cfg, small_dataset)
    n2 = train_ns(cfg, small_dataset)
    for a, b in zip(n1.parameters(), n2.parameters()):
        assert np.array_equal(a, b)
    # all but the projection's wall time, and the second run reads the
    # first one's projections from the memo
    for key in ("train", "val", "krylov_closed"):
        assert n1.training_history[key] == n2.training_history[key]
    assert n2.training_history["projection_reused"] == len(small_dataset)


def test_training_reduces_validation_loss(small_dataset):
    cfg = TrainConfig(m=3, unroll=10, n_epochs=15, batch_size=2, seed=5,
                      variant="plain", hidden=(8, 8))
    net0 = MetaNet.create(cfg.m, variant=cfg.variant, hidden=cfg.hidden,
                          seed=cfg.seed)
    before = evaluate_loss(list(small_dataset), net0, cfg.unroll)
    trained = train_ns(cfg, small_dataset)
    after = evaluate_loss(list(small_dataset), trained, cfg.unroll)
    assert after < before


def test_best_checkpoint_is_validation_argmin(small_dataset):
    cfg = TrainConfig(m=3, unroll=8, n_epochs=8, batch_size=2, seed=2,
                      variant="nag", hidden=(6, 6))
    trained = train_ns(cfg, small_dataset)
    vals = trained.training_history["val"]
    assert trained.best_epoch == int(np.argmin(vals))


def test_preconditioner_built_once_per_sample(small_dataset, monkeypatch):
    from richlab.precond import Preconditioner

    calls = []
    build = Preconditioner.weighted_jacobi.__func__

    def counting(cls, A, *args, **kwargs):
        calls.append(id(A))
        return build(cls, A, *args, **kwargs)

    monkeypatch.setattr(Preconditioner, "weighted_jacobi",
                        classmethod(counting))
    cfg = TrainConfig(m=2, unroll=3, n_epochs=2, batch_size=2, seed=0,
                      hidden=(4, 4), precond="jacobi")
    train_ns(cfg, small_dataset)
    assert sorted(calls) == sorted(id(s.A) for s in small_dataset)
    # the projection memo serves every sample, so a second run builds none
    train_ns(cfg, small_dataset)
    assert len(calls) == len(small_dataset)


def test_helmholtz_dataset_is_refused_before_any_net():
    spec = HelmholtzProblem(angular_frequency=2 * np.pi, n=32)
    sample = Sample(spec=spec, A=assemble_helmholtz(spec),
                    f=np.ones(spec.ndof, dtype=np.complex128))
    ds = Dataset(kind="helmholtz", seed=0, n=32, samples=[sample, sample])
    with pytest.raises(ValueError, match="got 'helmholtz'"):
        train_ns(TrainConfig(), ds)


def test_zero_epochs_returns_the_initial_net(small_dataset):
    cfg = TrainConfig(m=2, unroll=6, n_epochs=0, batch_size=2, seed=11,
                      hidden=(6, 6))
    init = MetaNet.create(cfg.m, variant=cfg.variant, hidden=cfg.hidden,
                          seed=cfg.seed)
    net = train_ns(cfg, small_dataset)
    for a, b in zip(init.parameters(), net.parameters(), strict=True):
        assert np.array_equal(a, b)
    assert net.best_epoch == -1
    history = net.training_history
    assert history["train"] == [] and history["val"] == []
    assert history["krylov_closed"] == 0 and history["projection_s"] >= 0


@pytest.mark.parametrize("kw,message", [
    (dict(unroll=-1), "unroll must be >= 0 and batch_size >= 1"),
    (dict(batch_size=0), "unroll must be >= 0 and batch_size >= 1"),
    (dict(m=0), "m must be >= 1, got 0"),
    (dict(m=-2), "m must be >= 1, got -2"),
    (dict(learning_rate=0.0), "learning_rate must be positive, got 0.0"),
    (dict(learning_rate=-1e-3), "learning_rate must be positive"),
    (dict(learning_rate=float("nan")), "learning_rate must be positive"),
])
def test_config_rejects_settings_no_run_can_use(kw, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kw)
