"""Training of weight-schedule networks through the unrolled iteration."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .metanet import MetaNet
from .precond import Preconditioner
from .sparse import block_diagonal
from .tape import Tape


class TrainingDiverged(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class NanLossError(RuntimeError):
    def __init__(self, instance_index):
        super().__init__(f"NaN loss produced by batch instance {instance_index}")
        self.instance_index = instance_index


@dataclass
class TrainConfig:
    m: int = 3
    unroll: int = 50          # K inner iterations differentiated through
    n_epochs: int = 50
    batch_size: int = 20
    learning_rate: float = 1e-3
    seed: int = 0
    variant: str = "plain"
    precond: str | None = None      # None | "ssor" | "jacobi" | "gs"
    learn_log_omega: bool = False
    hidden: tuple = (64, 64)
    patience: int = 20
    val_fraction: float = 0.2

    def __post_init__(self):
        _check_config(self)


def _check_config(cfg):
    """Reject the settings no training run can use (shared by the
    hybrid's config)."""
    if cfg.unroll < 0 or cfg.batch_size < 1:
        raise ValueError("unroll must be >= 0 and batch_size >= 1")
    if cfg.m < 1:
        raise ValueError(f"m must be >= 1, got {cfg.m}")
    if not cfg.learning_rate > 0:
        raise ValueError(
            f"learning_rate must be positive, got {cfg.learning_rate}")


def make_preconditioner(name, A):
    if name is None or name == "identity":
        return None
    if callable(name):
        return name(A)
    if name == "ssor":
        return Preconditioner.ssor(A, relax=1.0)
    if name == "jacobi":
        return Preconditioner.weighted_jacobi(A)
    if name == "gs":
        return Preconditioner.gauss_seidel(A)
    raise ValueError(f"unknown preconditioner {name!r}")


def _cached_preconditioner(precond, sample, cache):
    """The sample's preconditioner, built only on a cache miss."""
    if cache is None:
        return make_preconditioner(precond, sample.A)
    if id(sample) not in cache:
        cache[id(sample)] = make_preconditioner(precond, sample.A)
    return cache[id(sample)]


def _rowwise(Ps):
    """(apply, apply_transpose) of per-instance preconditioners over a row
    stack, row b through Ps[b]; None when there are none."""
    if Ps is None or Ps[0] is None:
        return None
    return (lambda X: np.stack([P.apply(x) for P, x in zip(Ps, X)]),
            lambda G: np.stack([P.apply_transpose(g) for P, g in zip(Ps, G)]))


def _unroll(A, F, u, omega, alpha, alpha_t, K, variant, precondition):
    """The (B, n) row stack u after K inner updates against the
    block-diagonal A and the right-hand-side rows F, with the momentum
    starting at zero. The weights are as in
    :func:`unrolled_relative_residuals`; ``precondition`` is an
    (apply, apply_transpose) pair over row stacks, or None."""
    v = np.zeros(F.shape)
    m = omega.shape[1]
    for k in range(K):
        i = slice(k % m, k % m + 1)
        if variant in ("plain", "mom"):
            r = F - tp.spmv(A, u)
        else:  # nag, nagex: residual at the look-ahead point
            r = F - tp.spmv(A, u + alpha_t[:, i] * v)
        pr = tp.linear_map(*precondition, r) if precondition else r
        step = omega[:, i] * pr
        v = step if variant == "plain" else alpha[:, i] * v + step
        u = u + v
    return u


def _relative_residuals(A, F, u):
    """||F_b - A_b u_b|| / ||F_b|| for each row b."""
    inv_fnorm = 1.0 / np.array([np.linalg.norm(f) for f in F])
    return tp.row_norms(F - tp.spmv(A, u)) * inv_fnorm


def unrolled_relative_residuals(As, fs, omega, alpha, alpha_t, K, variant,
                                Ps=None):
    """Relative residuals ||f_b - A_b u_K|| / ||f_b|| of a batch after K
    inner updates from a zero initial guess.

    The batch runs as one (B, n) row stack against the block-diagonal
    operator of ``As``. ``omega``, ``alpha`` and ``alpha_t`` hold one row
    of m weights per instance (``alpha`` is unused for plain,
    ``alpha_t`` for plain and mom). Given tape Vars the unroll is
    recorded and a Var is returned; given arrays it runs tape-free. Each
    row sees the operations of a one-instance unroll in the same order,
    so its residual does not depend on the rest of the batch.
    """
    A = block_diagonal(As)
    F = np.stack(fs)
    u = np.zeros(F.shape)
    if isinstance(omega, tp.Var):
        u = omega.tape.var(u)
    u = _unroll(A, F, u, omega, alpha, alpha_t, K, variant, _rowwise(Ps))
    return _relative_residuals(A, F, u)


def _schedules(batch, net: MetaNet, params):
    """(omega, alpha, alpha_t) of a batch as (B, m) rows under ``params``
    (Vars or arrays, as for :meth:`MetaNet.forward_tape`), or None where
    the variant has no such weights. The network runs once per instance
    and its outputs are stacked row by row."""
    omega, alpha, alpha_t = zip(*(net.forward_tape(sample.mu, params)
                                  for sample in batch))
    tied = alpha_t[0] is alpha[0]   # nag reuses its momentum rows

    def rows(xs):
        return None if xs[0] is None else tp.stack(xs)

    alpha = rows(alpha)
    return rows(omega), alpha, alpha if tied else rows(alpha_t)


def _batch_losses(batch, net: MetaNet, params, K, precond, precond_cache):
    """Per-instance K-step relative residuals of a batch under ``params``:
    recorded when they are Vars, tape-free when they are arrays."""
    omega, alpha, alpha_t = _schedules(batch, net, params)
    return unrolled_relative_residuals(
        [s.A for s in batch], [s.f for s in batch], omega, alpha, alpha_t, K,
        net.variant,
        [_cached_preconditioner(precond, s, precond_cache) for s in batch])


def loss_relative_residual(batch, net: MetaNet, K, precond=None,
                           precond_cache=None):
    """Mean K-step relative residual over a batch, recorded on a tape.

    Returns (loss Var, tape, param Vars). Each instance starts from a
    zero initial guess. The network runs once per instance; its
    schedules are stacked into (B, m) rows for one batched unroll.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    tape = Tape()
    param_vars = [tape.var(p) for p in net.parameters()]
    losses = _batch_losses(batch, net, param_vars, K, precond, precond_cache)
    bad = np.flatnonzero(~np.isfinite(losses.value))
    if bad.size:
        raise NanLossError(int(bad[0]))
    return tp.batch_mean(losses), tape, param_vars


def gradient(loss, tape, param_vars):
    """Reverse-mode gradients of a recorded scalar loss (single use)."""
    tape.backward(loss)
    return [p.grad for p in param_vars]


def evaluate_loss(samples, net: MetaNet, K, precond=None, precond_cache=None):
    """Tape-free mean loss, equal bit for bit to the recorded loss of the
    same batch."""
    return tp.batch_mean(_batch_losses(samples, net, net.parameters(), K,
                                       precond, precond_cache))


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            mh = self.m[i] / (1 - self.b1 ** self.t)
            vh = self.v[i] / (1 - self.b2 ** self.t)
            out.append(p - self.lr * mh / (np.sqrt(vh) + self.eps))
        return out


def train_ns(config: TrainConfig, dataset, net=None):
    """Mini-batch training of the schedule network on the K-step
    relative-residual loss; returns the best-validation checkpoint.

    Deterministic under ``config.seed``.
    """
    if net is None:
        input_dim = len(dataset[0].mu)
        net = MetaNet.create(config.m, variant=config.variant,
                             hidden=config.hidden, input_dim=input_dim,
                             learn_log_omega=config.learn_log_omega,
                             seed=config.seed)
    rng = np.random.default_rng(config.seed)
    n_val = max(1, int(round(config.val_fraction * len(dataset)))) \
        if len(dataset) > 1 else 0
    train = dataset.samples[:len(dataset) - n_val]
    val = dataset.samples[len(dataset) - n_val:]
    if not train:
        train, val = dataset.samples, dataset.samples
    # every factorisation is built before the first batch, so the
    # batches' temporaries do not interleave with the factor builds
    cache = {}
    for sample in dataset.samples:
        _cached_preconditioner(config.precond, sample, cache)

    opt = Adam(net.parameters(), lr=config.learning_rate)
    history = {"train": [], "val": []}
    best = (np.inf, net.copy(), -1)
    bad_epochs = 0
    diverged_streak = 0
    for epoch in range(config.n_epochs):
        order = rng.permutation(len(train))
        epoch_losses = []
        for start in range(0, len(train), config.batch_size):
            batch = [train[j] for j in order[start:start + config.batch_size]]
            loss, tape, pvars = loss_relative_residual(
                batch, net, config.unroll, precond=config.precond,
                precond_cache=cache)
            grads = gradient(loss, tape, pvars)
            net.set_parameters(opt.step(net.parameters(), grads))
            epoch_losses.append(float(loss.value))
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate_loss(val or train, net, config.unroll,
                                 precond=config.precond, precond_cache=cache)
        history["train"].append(train_loss)
        history["val"].append(val_loss)
        if val_loss < best[0]:
            best = (val_loss, net.copy(), epoch)
            bad_epochs = 0
        else:
            bad_epochs += 1
        diverged_streak = diverged_streak + 1 if train_loss > 1e3 else 0
        if diverged_streak >= 3:
            raise TrainingDiverged(
                f"loss above 1e3 for 3 consecutive epochs (epoch {epoch})",
                history)
        if bad_epochs >= config.patience:
            break
    result = best[1] if best[2] >= 0 else net
    result.training_history = history
    result.best_epoch = best[2]
    return result
