"""Training of weight-schedule networks through the unrolled iteration."""
from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fgmres import orthogonalise
from .metanet import MetaNet
from .precond import Preconditioner
from .richardson import _inner_step
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

    def __post_init__(self):
        if self.unroll < 0 or self.batch_size < 1:
            raise ValueError("unroll must be >= 0 and batch_size >= 1")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.learning_rate > 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}")


PATIENCE = 20        # epochs without a better validation loss before a stop
VAL_FRACTION = 0.2   # share of the dataset, from its end, held out


def make_preconditioner(name, A):
    """A new preconditioner ``name`` of A (None for none or "identity")."""
    if name is None or name == "identity":
        return None
    if name == "ssor":
        return Preconditioner.ssor(A, relax=1.0)
    if name == "jacobi":
        return Preconditioner.weighted_jacobi(A)
    if name == "gs":
        return Preconditioner.gauss_seidel(A)
    raise ValueError(f"unknown preconditioner {name!r}")


# the relative norm below which an orthogonalised Arnoldi column counts as
# closing the Krylov space
KRYLOV_CLOSED = 1e-12


# each matrix's sample projections by (K, preconditioner name, f's bytes),
# kept as long as the matrix lives
_PROJECTIONS = weakref.WeakKeyDictionary()


def krylov_projection(samples, K, precond=None):
    """Each sample's (K+1, K+1) upper Hessenberg H of K Arnoldi steps on
    (A M^{-1}, f), M the preconditioner ``precond`` of A, and ||f||.

    With Q the orthonormal Krylov basis, (A M^{-1})^j f = ||f|| Q H^j e_1
    for every j <= K, so K left-preconditioned inner updates from u = 0
    leave a residual of the norm that the same updates leave on H with
    right-hand side ||f|| e_1 and no preconditioner. H's last column is
    zero: no such residual reads it. Each sample runs alone, by classical
    Gram-Schmidt run twice, so its H does not depend on the rest of the
    list. A column that keeps KRYLOV_CLOSED or less of its norm after
    orthogonalisation closes the sample's Krylov space: its steps stop
    there, and H's later rows and columns stay zero, which keeps those
    residuals exact.

    A sample's H and ||f|| are kept with its matrix, keyed on K,
    ``precond`` and the bytes of f, so a later call on the same matrix
    object and right-hand side returns them without projecting again,
    with the bits a fresh projection gives. Another matrix object, K,
    preconditioner or f, or an f changed in place, is projected afresh.
    M is built for each sample projected and dropped before the next one.
    """
    H, fnorm, _ = _project(samples, K, precond)
    return H, fnorm


def _project(samples, K, precond):
    """(H, ||f||) of :func:`krylov_projection`, and the number of samples
    whose projection the memo served."""
    slots = [(_PROJECTIONS.setdefault(s.A, {}), (K, precond, s.f.tobytes()))
             for s in samples]
    found = [memo.get(key) for memo, key in slots]
    misses = [i for i, hit in enumerate(found) if hit is None]
    # the memo keeps rows of one block per call, not one small array per
    # sample scattered through the heap
    block = np.zeros((len(misses), K + 1, K + 1))
    computed = 0
    for i, h in zip(misses, block):
        memo, key = slots[i]
        if key not in memo:   # not a repeat of an earlier sample of the list
            # the projection is a factor's one reader (every later batch
            # reads the memo), so one factor is held at a time, not one
            # per sample for as long as the dataset lives
            P = make_preconditioner(precond, samples[i].A)
            memo[key] = (h, _arnoldi(samples[i], K, P, h))
            del P   # before the next sample's factor is built
            computed += 1
        found[i] = memo[key]
    block.flags.writeable = False
    H = np.array([h for h, _ in found]).reshape(len(samples), K + 1, K + 1)
    fnorm = np.array([c for _, c in found])
    return H, fnorm, len(samples) - computed


def _arnoldi(sample, K, P, h):
    """Fill the zero (K+1, K+1) array h with the sample's projection
    under the preconditioner P (or None); return ||f||."""
    c = np.linalg.norm(sample.f)
    Q = np.empty((K + 1, len(sample.f)))
    np.divide(sample.f, c, out=Q[0])
    for j in range(K):
        w = sample.A.matvec(Q[j] if P is None else P.apply(Q[j]))
        before = np.linalg.norm(w)
        h[:j + 1, j] = orthogonalise(Q[:j + 1], w)
        after = np.linalg.norm(w)
        if not after > KRYLOV_CLOSED * before:
            break
        h[j + 1, j] = after
        np.divide(w, after, out=Q[j + 1])
    return c


def closed_before(H):
    """Per sample of an H stack, whether its Krylov space closed before
    K = len(H[0]) - 1 steps (a zero subdiagonal entry)."""
    return (np.diagonal(H, offset=-1, axis1=1, axis2=2) == 0).any(axis=1)


def _row_products(H):
    """The maps X -> (H_b X_b)_b and G -> (H_b^T G_b)_b of real (B, n)
    row stacks, for H a (B, n, n) stack, by ``np.matmul``."""
    H_t = H.transpose(0, 2, 1)
    return (lambda X: np.matmul(H, X[:, :, None])[:, :, 0],
            lambda G: np.matmul(H_t, G[:, :, None])[:, :, 0])


def _unroll(H, F, omega, alpha, alpha_t, K, variant, wrt=()):
    """Relative residuals ||F_b - H_b u_b|| / ||F_b|| of the (B, n) row
    stack u after K inner updates from u = 0, against the
    right-hand-side rows F, and their adjoint, for H a stack of
    :func:`_row_products`.

    This is the one Richardson(m) unroll of training. ``omega``,
    ``alpha`` and ``alpha_t`` hold one row of m weights per instance
    (``alpha`` is unused for plain, ``alpha_t`` for plain and mom; nag
    takes ``alpha`` as its look-ahead weights). The unroll starts with
    zero momentum, and its update k takes column k mod m of the weight
    rows. Each row sees the operations of a one-instance unroll in the
    same order, so its residual does not depend on the rest of the
    batch. Each update is the solver's own, ``richardson._inner_step``,
    run on the row stacks with the unroll's row-stack product as its
    operator.

    ``wrt`` names the rows to differentiate, among "omega", "alpha" and
    "alpha_t"; the forward keeps the history their adjoint reads: each
    update's residual, as the step returns it, and its starting
    velocity. The adjoint maps the gradient g of the residuals to a dict
    of the gradients of those rows that the unroll reads (nag's
    look-ahead part goes to "alpha"). It runs the transposed recurrence,
    and adds its terms in the order that recording the unroll one vector
    operation at a time would (``tests/reference_tape.py`` states it).
    """
    B, n = F.shape
    momentum = variant != "plain"
    look_ahead = variant in ("nag", "nagex")
    if variant == "nag":
        alpha_t = alpha
    m = omega.shape[1] if K else 1
    read = {"omega": K > 0, "alpha": K > 0 and momentum,
            "alpha_t": K > 0 and variant == "nagex"}
    wrt = [role for role in ("omega", "alpha", "alpha_t")
           if role in wrt and read[role]]
    keep_r = "omega" in wrt
    keep_v = "alpha" in wrt or "alpha_t" in wrt
    r_hist, v_hist = [], []

    product, product_t = _row_products(H)
    # update k takes column k mod m of (omega, alpha, alpha_t), as (B, 1)
    u = np.zeros((B, n))
    v = np.zeros((B, n))
    step = _inner_step(SimpleNamespace(matvec=product), F, u, v, variant)
    columns = [[None if w is None else w[:, c:c + 1]
                for w in (omega, alpha, alpha_t)] for c in range(m)]
    for k in range(K):
        if keep_v:
            v_hist.append(v.copy())
        r = step(*columns[k % m])
        if keep_r:
            r_hist.append(r)
    res = F - product(u)
    norms = np.array([np.linalg.norm(row) for row in res])
    inv_fnorm = 1.0 / np.array([np.linalg.norm(f) for f in F])
    rel = norms * inv_fnorm

    def adjoint(g):
        """Gradients of the rows in ``wrt`` from the gradient g of the
        relative residuals."""
        if not wrt:
            return {}
        gn = g * inv_fnorm
        gr = np.zeros_like(res)
        live = norms > 0
        gr[live] = gn[live, None] * res[live] / norms[live, None]
        gu = product_t(-gr)
        grads = {role: np.zeros((B, m)) for role in wrt}
        g_alpha = grads.get("alpha")
        g_alpha_t = g_alpha if variant == "nag" else grads.get("alpha_t")
        gv_next = gla_next = None
        for k in reversed(range(K)):
            col = k % m
            c = slice(col, col + 1)
            gv = gu
            if momentum and gv_next is not None:
                cn = slice((k + 1) % m, (k + 1) % m + 1)
                gv = gv_next * alpha[:, cn]
                if look_ahead:
                    gv = gv + gla_next * alpha_t[:, cn]
                gv = gv + gu
            if g_alpha is not None:
                g_alpha[:, col] += (gv * v_hist[k]).sum(axis=1)
            if keep_r:
                grads["omega"][:, col] += (gv * r_hist[k]).sum(axis=1)
            gla = product_t(-(gv * omega[:, c]))
            if g_alpha_t is not None:
                g_alpha_t[:, col] += (gla * v_hist[k]).sum(axis=1)
            gu = gu + gla
            gv_next, gla_next = gv, gla
        return grads

    return rel, adjoint


def _batch_mean(values):
    """Mean of a 1-D stack by left-to-right adds, times 1/len."""
    total = values[0]
    for item in values[1:]:
        total = total + item
    return total * (1.0 / len(values))


def _mean_loss(rel, adjoint):
    """The batch mean of the residuals ``rel``, and a function that
    returns the adjoint's row gradients of that mean."""
    B = len(rel)
    return _batch_mean(rel), lambda: adjoint(np.full(B, 1.0 / B))


def _schedules(batch, net: MetaNet):
    """(omega, alpha, alpha_t) of a batch as (B, m) rows, None where the
    variant has no such weights, and the per-instance records of
    :meth:`MetaNet.backward`. The network runs once per instance and its
    outputs are stacked row by row."""
    outputs, records = zip(*(net.forward_tape(sample.mu) for sample in batch))
    omega, alpha, alpha_t = zip(*outputs)

    def rows(xs):
        return None if xs[0] is None else np.stack(xs)

    return (rows(omega), rows(alpha), rows(alpha_t)), records


def _projections(batch, K, precond):
    """The batch's (H, F) stacks for the projected unroll, F = ||f|| e_1."""
    H, fnorm = krylov_projection(batch, K, precond)
    F = np.zeros((len(batch), K + 1))
    F[:, 0] = fnorm
    return H, F


def _batch_losses(batch, net: MetaNet, K, precond, wrt=()):
    """Per-instance K-step relative residuals of a batch, each from a zero
    initial guess, as one row stack on the instances' Krylov
    projections; the network's records; and the unroll's adjoint for
    the schedule rows named in ``wrt``."""
    rows, records = _schedules(batch, net)
    rel, adjoint = _unroll(*_projections(batch, K, precond), *rows, K,
                           net.variant, wrt=wrt)
    return rel, records, adjoint


def loss_relative_residual(batch, net: MetaNet, K, precond=None):
    """Mean K-step relative residual over a batch, recorded for one
    backward pass.

    Returns (loss, tape, params): the loss as a float, the :class:`Tape`
    whose ``backward`` returns its gradients, and the parameter arrays
    those gradients align with. The network runs once per instance; its
    schedules are stacked into (B, m) rows for one batched unroll on the
    instances' Krylov projections (see :func:`krylov_projection`, whose
    memo serves every sample projected before under the same K and
    ``precond``).
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    losses, records, adjoint = _batch_losses(
        batch, net, K, precond, wrt=("omega", "alpha", "alpha_t"))
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise NanLossError(int(bad[0]))
    loss, row_grads = _mean_loss(losses, adjoint)

    def backward():
        g = row_grads()
        return net.backward(records, g.get("omega"), g.get("alpha"),
                            g.get("alpha_t"))

    return loss, Tape(backward), net.parameters()


def gradient(loss, tape, params):
    """Gradients of a recorded loss, aligned with ``params`` (single
    use)."""
    return tape.backward()


def evaluate_loss(samples, net: MetaNet, K, precond=None):
    """Unrecorded mean loss, equal bit for bit to the recorded loss of
    the same batch."""
    return _batch_mean(_batch_losses(samples, net, K, precond)[0])


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


def train_ns(config: TrainConfig, dataset):
    """Mini-batch training of the schedule network on the K-step
    relative-residual loss; returns the best-validation checkpoint.

    Every sample is projected before the first epoch, or served by the
    memo of :func:`krylov_projection` if an earlier call projected it,
    and every batch and validation pass runs on those projections. The
    returned net's ``training_history`` holds the per-epoch "train" and
    "val" losses, the projection's wall time "projection_s", the number
    of samples the memo served "projection_reused", and "krylov_closed",
    the number of samples whose Krylov space closed before K steps.
    Deterministic under ``config.seed``.
    """
    if dataset.kind != "anisotropic":
        raise ValueError("schedule-net training expects an anisotropic "
                         f"dataset, got {dataset.kind!r}")
    net = MetaNet.create(config.m, variant=config.variant,
                         hidden=config.hidden,
                         learn_log_omega=config.learn_log_omega,
                         seed=config.seed)
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    H, _, reused = _project(dataset.samples, config.unroll, config.precond)
    history = {"train": [], "val": [],
               "projection_s": time.perf_counter() - t0,
               "projection_reused": reused,
               "krylov_closed": int(closed_before(H).sum())}
    del H   # the batches read the memo's copy
    n_val = max(1, int(round(VAL_FRACTION * len(dataset)))) \
        if len(dataset) > 1 else 0
    train = dataset.samples[:len(dataset) - n_val]
    val = dataset.samples[len(dataset) - n_val:]
    if not train:
        train, val = dataset.samples, dataset.samples

    opt = Adam(net.parameters(), lr=config.learning_rate)
    best = (np.inf, net.copy(), -1)
    bad_epochs = 0
    diverged_streak = 0
    for epoch in range(config.n_epochs):
        order = rng.permutation(len(train))
        epoch_losses = []
        for start in range(0, len(train), config.batch_size):
            batch = [train[j] for j in order[start:start + config.batch_size]]
            loss, tape, params = loss_relative_residual(
                batch, net, config.unroll, precond=config.precond)
            net.set_parameters(opt.step(params, tape.backward()))
            epoch_losses.append(float(loss))
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate_loss(val or train, net, config.unroll,
                                 precond=config.precond)
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
        if bad_epochs >= PATIENCE:
            break
    result = best[1] if best[2] >= 0 else net
    result.training_history = history
    result.best_epoch = best[2]
    return result
