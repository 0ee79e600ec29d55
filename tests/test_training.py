import dataclasses
import gc
import weakref

import numpy as np
import pytest

from richlab.data import Dataset, Sample, sample_dataset
from richlab.fns import FnsTrainConfig
from richlab.metanet import MetaNet
from richlab.problems import HelmholtzProblem, assemble_helmholtz
from richlab.tape import TapeReuseError
from richlab.training import (Adam, NanLossError, TrainConfig, _unroll,
                              evaluate_loss, gradient, loss_relative_residual,
                              make_preconditioner, train_ns)

from reference_iterations import linear_map, mean, norm2, spmv
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
    r1, _ = _unroll(s.A, s.f[None], omega, alpha, at, 9, "nag")
    r2, _ = _unroll(s.A, 7.5 * s.f[None], omega, alpha, at, 9, "nag")
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
def test_batched_unroll_bit_identical_to_per_instance(mixed_dataset, variant,
                                                      precond, batch_size):
    net = MetaNet.create(m=3, variant=variant, seed=4, hidden=(6, 6))
    batch = list(mixed_dataset)[:batch_size]
    K = 10
    ref_loss, ref_grads = per_instance_loss(batch, net, K, precond)
    loss, tape, pvars = loss_relative_residual(batch, net, K, precond=precond)
    grads = gradient(loss, tape, pvars)
    assert np.array_equal(loss, ref_loss)
    for g, ref in zip(grads, ref_grads, strict=True):
        assert np.array_equal(g, ref)
    assert evaluate_loss(batch, net, K, precond=precond) == loss


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
    assert n1.training_history == n2.training_history


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
    # the matrices are immutable, so a second run reuses every build
    train_ns(cfg, small_dataset)
    assert len(calls) == len(small_dataset)


def test_preconditioner_memo_lives_only_as_long_as_its_matrix():
    A = sample_dataset("anisotropic", 1, seed=7, n=8)[0].A
    P = make_preconditioner("ssor", A)
    assert make_preconditioner("ssor", A) is P
    assert make_preconditioner("jacobi", A) is not P
    matrix, built = weakref.ref(A), weakref.ref(P)
    del A, P
    gc.collect()
    assert matrix() is None and built() is None


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
                          input_dim=2, seed=cfg.seed)
    net = train_ns(cfg, small_dataset)
    for a, b in zip(init.parameters(), net.parameters(), strict=True):
        assert np.array_equal(a, b)
    assert net.best_epoch == -1
    assert net.training_history == {"train": [], "val": []}


@pytest.mark.parametrize("config", [TrainConfig, FnsTrainConfig])
@pytest.mark.parametrize("kw,message", [
    (dict(m=0), "m must be >= 1, got 0"),
    (dict(m=-2), "m must be >= 1, got -2"),
    (dict(learning_rate=0.0), "learning_rate must be positive, got 0.0"),
    (dict(learning_rate=-1e-3), "learning_rate must be positive"),
    (dict(learning_rate=float("nan")), "learning_rate must be positive"),
])
def test_configs_reject_empty_schedules_and_non_positive_rates(config, kw,
                                                               message):
    with pytest.raises(ValueError, match=message):
        config(**kw)
