"""Hybrid smoother + sine-spectral correction iteration.

One hybrid step applies M inner smoothing updates, then adds a learned
diagonal correction in the orthonormal 2D sine basis:
u <- u + dst2_inv(lambda_tilde * dst2(f - A u)). With homogeneous
Dirichlet boundaries the sine basis diagonalizes the isotropic and
axis-aligned constant-coefficient operators exactly, so the correction
can represent their exact inverse. A trained hybrid anchors its
correction on the operator's own sine-basis diagonal and learns one
log-multiplier per mode; training alternates between that multiplier
and the smoother weight network, each phase freezing the other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import (load_checkpoint, missing_entries_refused,
                         save_checkpoint)
from .metanet import MetaNet
from .richardson import DivergenceError, SolveReport, _recurrence_pass
from .training import Adam, _check_config, _mean_loss, _schedules, _unroll
from .transforms import dst2, dst2_inv

import time


@dataclass
class SpectralCorrection:
    """Diagonal operator in the sine basis on the (n-1)^2 interior."""
    lambda_tilde: np.ndarray
    n: int

    def __post_init__(self):
        self.lambda_tilde = np.asarray(self.lambda_tilde, dtype=float)
        if self.lambda_tilde.shape != ((self.n - 1) ** 2,):
            raise ValueError("correction length does not match the grid")
        if not np.all(np.isfinite(self.lambda_tilde)):
            raise ValueError("correction entries must be finite")

    def apply(self, r):
        return dst2_inv(self.lambda_tilde * dst2(r))


def sine_basis_eigenvalues(A, n):
    """Diagonal of the operator in the orthonormal sine basis, diag(S A S).

    Exact eigenvalues whenever the basis diagonalizes A; otherwise the
    basis-diagonal part. S = s (x) s is the 2D DST-I with the 1D matrix
    s[p, i] = sqrt(2/n) sin((p+1)(i+1) pi/n). The nonzeros of A are
    grouped by their grid offset (d1, d2); the entries C_d[i, j] =
    A[(i, j), (i+d1, j+d2)] of one offset add U_d1 C_d U_d2^T, where
    U_d[p, i] = s[p, i] s[p, i+d]. No stencil is assumed, and memory is
    O(n^2) per offset.
    """
    if A.is_complex:
        raise ValueError("sine-basis diagonal requires a real matrix")
    side = n - 1
    if A.shape != (side * side, side * side):
        raise ValueError(f"operator shape {A.shape} does not match the "
                         f"interior of an n={n} grid")
    idx = np.arange(1, n)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(idx, idx) / n)

    def shifted_products(d):
        U = np.zeros((side, side))
        if d >= 0:
            U[:, :side - d] = s[:, :side - d] * s[:, d:]
        else:
            U[:, -d:] = s[:, -d:] * s[:, :side + d]
        return U

    rows = np.repeat(np.arange(side * side), np.diff(A.row_starts))
    i, j = np.divmod(rows, side)
    ci, cj = np.divmod(A.col_indices, side)
    # |d2| < side, so d1 * 2 side + d2 names the offset uniquely
    key = (ci - i) * (2 * side) + (cj - j)
    lam = np.zeros((side, side))
    for offset in np.unique(key):
        mine = key == offset
        d1, d2 = divmod(int(offset) + side, 2 * side)
        C = np.zeros((side, side))
        C[i[mine], j[mine]] = A.values[mine]
        lam += shifted_products(d1) @ C @ shifted_products(d2 - side).T
    return lam.reshape(-1)


def fns_lite_step(A, f, u, schedule, M, corr: SpectralCorrection, *,
                  _residual=None):
    """One hybrid iteration: M inner smoothing updates, one correction.

    The smoother is plain Richardson(m); momentum schedules are rejected.
    ``_residual`` is f - A u when the caller holds it (``solve_fns``
    does, from its convergence test); the step then reads it in place of
    its first product.
    """
    if schedule.variant != "plain":
        raise ValueError(f"the hybrid smoother is plain Richardson, got a "
                         f"{schedule.variant!r} schedule")
    f, u = np.asarray(f), np.asarray(u)
    u = u.astype(np.result_type(u, f, A.dtype))   # a copy: u stays the caller's
    _recurrence_pass(A, schedule, f, u, M, _residual)
    stale = M or _residual is None   # updates outdate _residual
    u += corr.apply(f - A.matvec(u) if stale else _residual)
    if not np.all(np.isfinite(u)):
        raise DivergenceError("hybrid step produced a non-finite iterate",
                              inner_iteration=M)
    return u


def solve_fns(A, f, schedule, corr, M, tol=1e-6):
    """Run the hybrid iteration from zero to the relative-residual tol.

    A zero ``f`` is solved by the zero iterate, with relative residual 0
    and no product taken.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    u = np.zeros(A.ncols)
    fnorm = np.linalg.norm(f)
    converged = fnorm == 0.0
    rel = 0.0 if converged else 1.0
    trace = [rel]
    it = 0
    r = None   # f - A u, once a step has run: the next step reads it
    while not converged and it < 10_000:   # a cap on hybrid steps
        u = fns_lite_step(A, f, u, schedule, M, corr, _residual=r)
        it += 1
        r = f - A.matvec(u)
        rel = float(np.linalg.norm(r)) / fnorm
        trace.append(rel)
        converged = rel <= tol
    # the first step takes its own residual; each later one reads r
    return u, SolveReport(iterations=it, inner_iterations=it * M,
                          converged=converged, final_relative_residual=rel,
                          wall_time=time.perf_counter() - t0,
                          trace=np.array(trace),
                          matvecs=it * (M + 1) + (it > 0))


# -- differentiable hybrid loss -----------------------------------------

def _hybrid_loss(batch, omega, lam, n_hybrid, M, wrt=()):
    """Mean relative residual of a batch after n_hybrid hybrid steps from
    a zero initial guess, and a function that returns the gradients of
    the rows named in ``wrt`` ("omega", "lam") that the loss reads.

    The batch runs as one (B, N) row stack through the training unroll:
    each step is M plain updates with the (B, m) weight rows ``omega``,
    then the correction u + S(lam * S(f - A u)) with the (B, N)
    correction rows ``lam``.
    """
    A, F = [s.A for s in batch], np.stack([s.f for s in batch])
    return _mean_loss(*_unroll(A, F, omega, None, None, M, "plain", lam=lam,
                               cycles=n_hybrid, wrt=wrt))


def _g_gradient(lam_grads, lam):
    """The gradient of g from a batch's (B, N) correction-row gradients
    (None when the loss reads no correction row), given its rows
    lam = exp(g) / d: each row's derivative in g is the row itself, mode
    by mode, so the gradient is the sum over b of lam_grads_b * lam_b."""
    if lam_grads is None:
        return np.zeros(lam.shape[1])
    return np.sum(lam_grads * lam, axis=0)


# -- hybrid model -------------------------------------------------------

@dataclass
class FnsLiteModel:
    """Smoother weight network plus a learned per-mode log-multiplier g
    on the operator's own sine-basis diagonal: the correction for A is
    exp(g) / diag(S A S), so g = 0 gives that diagonal's inverse."""
    net: MetaNet
    g: np.ndarray                 # ((n-1)^2,)
    n: int

    def correction_for(self, A) -> SpectralCorrection:
        return SpectralCorrection(
            lambda_tilde=np.exp(self.g) / sine_basis_eigenvalues(A, self.n),
            n=self.n)

    def save(self, path, extra_metadata=None):
        """One checkpoint of kind "fns-anchored": the net's header and
        arrays, the grid size, g, and ``extra_metadata`` as "config"."""
        meta, arrays = self.net._checkpoint()
        meta.update(kind="fns-anchored", n=self.n)
        if extra_metadata:
            meta["config"] = extra_metadata
        save_checkpoint(path, meta, {**arrays, "g": self.g})

    @classmethod
    def load(cls, path):
        meta, arrays = load_checkpoint(path, "fns-anchored")
        with missing_entries_refused(path):
            return cls(net=MetaNet._from_checkpoint(meta, arrays, path),
                       g=arrays["g"], n=meta["n"])


@dataclass
class FnsTrainConfig:
    m: int = 3                 # smoother schedule length
    smooth_steps: int = 10     # M inner smoothing updates per hybrid step
    unroll: int = 3            # hybrid iterations differentiated through
    cycles: int = 3            # alternation cycles after the initial phase
    n_epochs: int = 50         # cap per phase
    batch_size: int = 20
    learning_rate: float = 1e-3
    seed: int = 0
    hidden: tuple = (64, 64)

    def __post_init__(self):
        _check_config(self)


PLATEAU_WINDOW = 5   # a phase stops when its relative loss decrease over
PLATEAU_TOL = 0.01   # PLATEAU_WINDOW epochs falls below PLATEAU_TOL
OMEGA_INIT = 0.5     # the initial constant smoother weight


def _initial_net(config, input_dim):
    net = MetaNet.create(config.m, variant="plain", hidden=config.hidden,
                         input_dim=input_dim, seed=config.seed)
    # raw bias placing the initial step weight at OMEGA_INIT
    net.biases[-1][:] = np.log(np.expm1(OMEGA_INIT))
    return net


def _plateaued(losses):
    if len(losses) <= PLATEAU_WINDOW:
        return False
    ref = losses[-PLATEAU_WINDOW - 1]
    return (ref - losses[-1]) < PLATEAU_TOL * abs(ref)


def train_fns_lite(config: FnsTrainConfig, dataset, net=None):
    """Alternating optimization of the correction's g and the weights.

    Phase 0 trains g from zero under the frozen initial smoother; each
    subsequent cycle retrains the weight network under the frozen g,
    then g under the frozen network. Each sample's sine-basis diagonal
    d is taken once per run, and a batch's correction rows are
    exp(g) / d. ``cycles=0`` returns the phase-0 artifacts. Returns an
    FnsLiteModel with a ``training_history`` list of per-phase loss
    curves.
    """
    if dataset.kind != "anisotropic":
        raise ValueError("hybrid training expects an anisotropic dataset")
    n = dataset.n
    if net is None:
        net = _initial_net(config, input_dim=len(dataset[0].mu))
    model = FnsLiteModel(net=net, g=np.zeros((n - 1) ** 2), n=n)
    diagonals = np.stack([sine_basis_eigenvalues(s.A, n) for s in dataset])
    rng = np.random.default_rng(config.seed)
    history = []

    def run_phase(train_lambda):
        losses = []
        params = [model.g] if train_lambda else model.net.parameters()
        opt = Adam(params, lr=config.learning_rate)
        for _ in range(config.n_epochs):
            order = rng.permutation(len(dataset))
            epoch = []
            for start in range(0, len(dataset), config.batch_size):
                idx = order[start:start + config.batch_size]
                batch = [dataset[int(k)] for k in idx]
                (omega, _, _), records = _schedules(batch, model.net)
                lam = np.exp(model.g) / diagonals[idx]
                loss, row_grads = _hybrid_loss(
                    batch, omega, lam, config.unroll, config.smooth_steps,
                    wrt=("lam",) if train_lambda else ("omega",))
                if train_lambda:
                    grads = [_g_gradient(row_grads().get("lam"), lam)]
                else:
                    grads = model.net.backward(records,
                                               row_grads().get("omega"))
                params = opt.step(params, grads)
                if train_lambda:
                    model.g = params[0]
                else:
                    model.net.set_parameters(params)
                    params = model.net.parameters()
                epoch.append(float(loss))
            losses.append(float(np.mean(epoch)))
            if _plateaued(losses):
                break
        return losses

    history.append(("lambda", run_phase(True)))
    for _ in range(config.cycles):
        history.append(("omega", run_phase(False)))
        history.append(("lambda", run_phase(True)))
    model.training_history = history
    return model
