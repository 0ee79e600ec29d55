"""Reference loops, kept as test oracles.

These are the stationary solver, the V-cycle smoother and the hybrid
step as they were written before the shared in-place update: every
inner update builds new arrays, and every product is the CSR product of
``A.to_scipy()``. The library's iterates must equal theirs bit for bit.

``reference_fgmres`` is FGMRES with its Krylov bases stored column by
column. Its Gram-Schmidt dot products run on strided vectors, which
BLAS sums in another order, so the library matches it to rounding only.

The dense operators (``sweep_operator``, ``sweep_affine_term``,
``two_grid_error_operator``) give one sweep or one two-grid cycle as a
matrix, for spectral checks on small grids.

``reference_hybrid_unroll`` records the hybrid iteration one instance
at a time on the reference tape (``tests/reference_tape.py``), with
``norm2`` and ``mean`` as its reductions; the batched training loss
must equal it.

``reference_unroll`` is the batched training unroll recorded on that
tape, one node per vector operation, through the tape ops ``spmv``,
``linear_map`` and ``row_norms`` defined here. The values of
``training._unroll`` and the gradients of its hand-written adjoint must
equal its bit for bit.

``reference_krylov_projection`` projects samples in chunks, each chunk
as one block-diagonal row stack with its Gram-Schmidt through
``np.matmul`` stacks. Those sum in another order than the library's
one-sample-at-a-time projection, so the two match to rounding only.
"""
import time

import numpy as np

from richlab.fgmres import FgmresConfig
from richlab.multigrid import prolongation_matrix, restriction_matrix
from richlab.richardson import DIVERGENCE_FACTOR, DivergenceError, SolveReport
from richlab.sparse import block_diagonal
from richlab.training import KRYLOV_CLOSED, make_preconditioner
from richlab.transforms import dst2, dst2_inv

from reference_tape import Var, _track, _value


def csr_matvec(A, x):
    return A.to_scipy().dot(x)


def precondition(P, r):
    """B^{-1} r, the identity when P is None."""
    return r if P is None else P.apply(r)


def reference_inner_update(A, f, u, v, i, schedule, P):
    """One inner update of the selected variant; returns (u, v)."""
    w = schedule.omega[i]
    a = schedule.alpha[i]
    at = schedule.alpha_tilde[i]
    if schedule.variant in ("plain", "mom"):
        r = f - csr_matvec(A, u)
    else:  # nag, nagex: residual at the look-ahead point
        r = f - csr_matvec(A, u + at * v)
    v = a * v + w * precondition(P, r)
    return u + v, v


def reference_solve_stationary(A, f, schedule, P=None, tol=1e-6,
                               max_outer=100_000, u0=None):
    t0 = time.perf_counter()
    n = A.ncols
    dtype = np.promote_types(A.dtype, np.asarray(f).dtype)
    u = np.zeros(n, dtype=dtype) if u0 is None else np.array(u0, dtype=dtype)
    v = np.zeros(n, dtype=dtype)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return u, SolveReport(0, 0, True, 0.0, time.perf_counter() - t0,
                              np.array([0.0]))
    reuse_residual = schedule.variant in ("plain", "mom")
    r = f - csr_matvec(A, u)
    rel = float(np.linalg.norm(r)) / fnorm
    trace = [rel]
    inner = 0
    outer = 0
    converged = rel <= tol
    while not converged and outer < max_outer:
        for i in range(schedule.m):
            w = schedule.omega[i]
            a = schedule.alpha[i]
            at = schedule.alpha_tilde[i]
            if reuse_residual:
                step_r = r
            else:
                step_r = f - csr_matvec(A, u + at * v)
            v = a * v + w * precondition(P, step_r)
            u = u + v
            inner += 1
            if reuse_residual or i == schedule.m - 1:
                r = f - csr_matvec(A, u)
                rel = float(np.linalg.norm(r)) / fnorm
                if not np.isfinite(rel) or rel > DIVERGENCE_FACTOR * max(trace[0], 1.0):
                    raise DivergenceError(
                        f"residual blew up to {rel:.3g} at inner iteration {inner}",
                        inner_iteration=inner)
        outer += 1
        trace.append(rel)
        if rel <= tol:
            converged = True
    return u, SolveReport(
        iterations=outer, inner_iterations=inner, converged=converged,
        final_relative_residual=rel, wall_time=time.perf_counter() - t0,
        trace=np.array(trace))


def _reference_smooth(level, f, u):
    s = level.schedule
    if s is None:
        return u
    v = np.zeros_like(u)
    for i in range(s.m):
        u, v = reference_inner_update(level.A, f, u, v, i, s, None)
    if not np.all(np.isfinite(u.view(float))):
        raise DivergenceError("smoother produced a non-finite iterate",
                              inner_iteration=s.m)
    return u


def _reference_v_cycle_level(h, k, f, u):
    level = h.levels[k]
    if k == h.depth - 1:
        return h.coarse_solve(f)
    u = _reference_smooth(level, f, u)
    r = f - csr_matvec(level.A, u)
    fc = csr_matvec(level.R, r)
    ec = _reference_v_cycle_level(h, k + 1, fc, np.zeros_like(fc))
    u = u + csr_matvec(level.P, ec)
    return _reference_smooth(level, f, u)


def reference_v_cycle(h, f, u=None):
    lvl0 = h.levels[0]
    dtype = np.promote_types(lvl0.A.dtype, np.asarray(f).dtype)
    if u is None:
        u = np.zeros(lvl0.A.ncols, dtype=dtype)
    return _reference_v_cycle_level(h, 0, np.asarray(f, dtype=dtype),
                                    np.asarray(u, dtype=dtype))


def reference_fns_lite_step(A, f, u, schedule, M, corr):
    for k in range(M):
        u = u + schedule.omega[k % schedule.m] * (f - csr_matvec(A, u))
    u = u + corr.apply(f - csr_matvec(A, u))
    if not np.all(np.isfinite(u)):
        raise DivergenceError("hybrid step produced a non-finite iterate",
                              inner_iteration=M)
    return u


def reference_fgmres(A, f, precond_apply=None, cfg=None):
    """FGMRES with column-major Krylov bases V (n, restart+1) and
    Z (n, restart); returns (u, SolveReport)."""
    if cfg is None:
        cfg = FgmresConfig()
    if precond_apply is None:
        precond_apply = lambda r: r
    t0 = time.perf_counter()
    n = A.ncols
    dtype = np.promote_types(A.dtype, np.asarray(f).dtype)
    u = np.zeros(n, dtype=dtype)
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return u, SolveReport(0, 0, True, 0.0, time.perf_counter() - t0,
                              np.array([0.0]))
    r = f - A.matvec(u)
    beta = float(np.linalg.norm(r))
    rel = beta / fnorm
    trace = [rel]
    total = 0
    converged = rel <= cfg.tol
    stagnated = False
    outer = 0
    while not converged and not stagnated and outer < cfg.max_outer:
        cycle_start_rel = rel
        mr = cfg.restart
        V = np.zeros((n, mr + 1), dtype=dtype)
        Z = np.zeros((n, mr), dtype=dtype)
        H = np.zeros((mr + 1, mr), dtype=dtype)
        cs = np.zeros(mr, dtype=dtype)
        sn = np.zeros(mr, dtype=dtype)
        g = np.zeros(mr + 1, dtype=dtype)
        V[:, 0] = r / beta
        g[0] = beta
        k = 0
        while k < mr:
            z = np.asarray(precond_apply(V[:, k]), dtype=dtype)
            Z[:, k] = z
            w = A.matvec(z)
            # modified Gram-Schmidt
            for i in range(k + 1):
                H[i, k] = np.vdot(V[:, i], w)
                w = w - H[i, k] * V[:, i]
            hk1 = np.linalg.norm(w)
            H[k + 1, k] = hk1
            # apply stored Givens rotations to the new column
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + np.conj(cs[i]) * H[i + 1, k]
                H[i, k] = t
            # new rotation zeroing H[k+1, k]
            denom = np.sqrt(np.abs(H[k, k]) ** 2 + np.abs(hk1) ** 2)
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = np.conj(H[k, k]) / denom
                sn[k] = np.conj(H[k + 1, k]) / denom
            t = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k, k] = t
            H[k + 1, k] = 0.0
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            total += 1
            rel = float(np.abs(g[k + 1])) / fnorm
            trace.append(rel)
            happy = hk1 <= 1e-14 * max(1.0, float(np.abs(H[k, k])))
            k += 1
            if rel <= cfg.tol or happy:
                converged = True
                break
            if hk1 > 0:
                V[:, k] = w / hk1
        # solve the triangular system and update the iterate
        Hk = np.triu(H[:k, :k])
        if k == 0:
            y = np.zeros(0, dtype=dtype)
        else:
            try:
                y = np.linalg.solve(Hk, g[:k])
            except np.linalg.LinAlgError:
                # singular projected system (breakdown on a singular
                # operator): take the minimum-norm least-squares update
                y, *_ = np.linalg.lstsq(Hk, g[:k], rcond=None)
        u = u + Z[:, :k] @ y
        r = f - A.matvec(u)
        beta = float(np.linalg.norm(r))
        rel = beta / fnorm
        converged = rel <= cfg.tol
        if not converged and rel >= cycle_start_rel:
            stagnated = True
        outer += 1
    report = SolveReport(iterations=total, inner_iterations=total,
                         converged=converged, final_relative_residual=rel,
                         wall_time=time.perf_counter() - t0,
                         trace=np.array(trace), stagnated=stagnated,
                         restarts=outer)
    return u, report


# -- dense error operators ----------------------------------------------

def sweep_operator(A_dense, omega):
    """Dense error-propagation operator T_m = prod_i (I - omega_i A)
    of one plain sweep, applied right-to-left (i = 1 first)."""
    n = A_dense.shape[0]
    T = np.eye(n, dtype=A_dense.dtype)
    for w in omega:
        T = (np.eye(n, dtype=A_dense.dtype) - w * A_dense) @ T
    return T


def sweep_affine_term(A_dense, omega):
    """Dense g with u_k = T_m u_{k-1} + g f for one plain sweep."""
    n = A_dense.shape[0]
    m = len(omega)
    G = omega[-1] * np.eye(n, dtype=A_dense.dtype)
    for j in range(m - 1):
        M = omega[j] * np.eye(n, dtype=A_dense.dtype)
        for i in range(j + 1, m):
            M = (np.eye(n, dtype=A_dense.dtype) - omega[i] * A_dense) @ M
        G += M
    return G


def two_grid_error_operator(A, n, omega, pre=1, post=0):
    """Dense error-propagation matrix of the two-grid cycle with a plain
    Richardson smoother: E = S^post (I - P Ac^{-1} R A) S^pre."""
    Ad = A.to_dense()
    R = restriction_matrix(n).to_dense()
    P = prolongation_matrix(n).to_dense()
    Ac = R @ Ad @ P
    S = sweep_operator(Ad, omega)
    n_int = Ad.shape[0]
    cgc = np.eye(n_int) - P @ np.linalg.solve(Ac, R @ Ad)
    E = np.linalg.matrix_power(S, pre)
    E = cgc @ E
    return np.linalg.matrix_power(S, post) @ E


# -- per-instance tape oracles ------------------------------------------

def norm2(x):
    """Euclidean norm of a recorded vector."""
    n = np.linalg.norm(x.value)
    return x.tape._record(n, ((x, lambda g: g * x.value / n if n > 0
                               else np.zeros_like(x.value)),))


def mean(xs):
    """Mean of recorded scalars by left-to-right adds."""
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return total * (1.0 / len(xs))


def _correction_tape(lam, r):
    """dst2_inv(lam * dst2(r)) with either argument recorded on a tape."""
    if isinstance(lam, Var):
        Fr = dst2(r.value if isinstance(r, Var) else r)
        val = dst2_inv(lam.value * Fr)
        parents = [(lam, lambda g: dst2(g) * Fr)]
        if isinstance(r, Var):
            lam_v = lam.value
            parents.append((r, lambda g: dst2_inv(lam_v * dst2(g))))
        return lam.tape._record(val, tuple(parents))
    return linear_map(lambda x: dst2_inv(lam * dst2(x)),
                      lambda g: dst2_inv(lam * dst2(g)), r)


def reference_hybrid_unroll(A, f, omega, lam, n_hybrid, M, m):
    """Tape-recorded hybrid unroll of one instance from zero; its
    relative residual as a Var.

    ``omega`` is a Var (length m, cycled) or a constant array; ``lam``
    likewise a Var or constant correction array.
    """
    tape = omega.tape if isinstance(omega, Var) else lam.tape
    u = tape.var(np.zeros(len(f)))
    fnorm = float(np.linalg.norm(f))
    for _ in range(n_hybrid):
        for k in range(M):
            u = u + omega[k % m] * (f - spmv(A, u))
        u = u + _correction_tape(lam, f - spmv(A, u))
    return norm2(f - spmv(A, u)) * (1.0 / fnorm)


# -- the recorded batched unroll ----------------------------------------

def spmv(A, x):
    """Sparse A @ x with a constant SparseMatrix A. A row stack x of
    shape (B, n) is multiplied as one vector by a block-diagonal A, or
    row by row by the matrices of a (B, n, n) stack A."""
    X = _value(x)
    if isinstance(A, np.ndarray):
        A_t = A.transpose(0, 2, 1)
        return _track(np.matmul(A, X[:, :, None])[:, :, 0],
                      (x, lambda g: np.matmul(A_t, g[:, :, None])[:, :, 0]))
    shape = X.shape
    return _track(A.matvec(X.reshape(-1)).reshape(shape),
                  (x, lambda g: A.rmatvec(g.reshape(-1)).reshape(shape)))


def rowwise(Ps):
    """(apply, apply_transpose) of per-instance preconditioners over a row
    stack, row b through Ps[b]; None when there are none."""
    if Ps[0] is None:
        return None
    return (lambda X: np.stack([P.apply(x) for P, x in zip(Ps, X)]),
            lambda G: np.stack([P.apply_transpose(g) for P, g in zip(Ps, G)]))


def linear_map(apply_fn, apply_transpose_fn, x):
    """y = L x for a constant linear operator with known transpose."""
    return _track(apply_fn(_value(x)), (x, apply_transpose_fn))


def row_norms(x):
    """Euclidean norm of each row of a (B, n) stack, one row at a time,
    so row b matches ``np.linalg.norm`` of that row bit for bit."""
    X = _value(x)
    n = np.array([np.linalg.norm(row) for row in X])

    def vjp(g):
        out = np.zeros_like(X)
        live = n > 0
        out[live] = g[live, None] * X[live] / n[live, None]
        return out

    return _track(n, (x, vjp))


def _reference_segment(A, F, u, omega, alpha, alpha_t, K, variant,
                       precondition):
    v = np.zeros(F.shape)
    m = omega.shape[1]
    for k in range(K):
        i = slice(k % m, k % m + 1)
        if variant in ("plain", "mom"):
            r = F - spmv(A, u)
        else:  # nag, nagex: residual at the look-ahead point
            r = F - spmv(A, u + alpha_t[:, i] * v)
        pr = linear_map(*precondition, r) if precondition else r
        step = omega[:, i] * pr
        v = step if variant == "plain" else alpha[:, i] * v + step
        u = u + v
    return u


def reference_unroll(A, F, omega, alpha, alpha_t, K, variant,
                     precondition=None, lam=None, cycles=1):
    """``training._unroll`` recorded one vector operation at a time:
    per-row relative residuals after ``cycles`` segments of K updates,
    each followed by the hybrid correction when ``lam`` is given."""
    u = np.zeros(F.shape)
    if isinstance(omega, Var):
        u = omega.tape.var(u)
    elif isinstance(lam, Var) and cycles == 0:
        u = lam.tape.var(u)
    for _ in range(cycles):
        u = _reference_segment(A, F, u, omega, alpha, alpha_t, K, variant,
                               precondition)
        if lam is not None:
            r = F - spmv(A, u)
            u = u + linear_map(dst2, dst2, lam * linear_map(dst2, dst2, r))
    inv_fnorm = 1.0 / np.array([np.linalg.norm(f) for f in F])
    return row_norms(F - spmv(A, u)) * inv_fnorm


# -- the Krylov projection of training ----------------------------------

def _chunk_arnoldi(chunk, Ps, fnorm, H, K):
    """K Arnoldi steps on (A_b M_b^{-1}, f_b) for each sample b of a chunk,
    M_b = Ps[b] (the identity for None), by classical Gram-Schmidt run
    twice on the chunk's basis stack, into the (B, K+1, K+1) slice H. A
    column whose orthogonalised norm is KRYLOV_CLOSED or less of its
    norm before closes its sample's Krylov space: it and every later
    basis column stay zero."""
    B, n = len(chunk), len(chunk[0].f)
    A = block_diagonal([s.A for s in chunk])
    Q = np.zeros((B, K + 1, n))
    np.divide(np.stack([s.f for s in chunk]), fnorm[:, None], out=Q[:, 0])
    live = np.ones(B, dtype=bool)
    for j in range(K):
        X = Q[:, j]
        if Ps[0] is not None:
            X = np.stack([P.apply(x) for P, x in zip(Ps, X)])
        W = A.matvec(X.reshape(-1)).reshape(B, n)
        before = np.linalg.norm(W, axis=1)
        basis = Q[:, :j + 1]
        h = np.zeros((B, 1, j + 1))
        for _ in range(2):
            part = np.matmul(basis, W[:, :, None]).transpose(0, 2, 1)
            W -= np.matmul(part, basis)[:, 0]
            h += part
        H[:, :j + 1, j] = h[:, 0]
        after = np.linalg.norm(W, axis=1)
        live &= after > KRYLOV_CLOSED * before
        H[live, j + 1, j] = after[live]
        Q[live, j + 1] = W[live] / after[live, None]


def reference_krylov_projection(samples, K, precond=None, chunk=20):
    """(H, ||f||) of ``training.krylov_projection``, ``chunk`` samples of
    one grid size at a time."""
    Ps = [make_preconditioner(precond, s.A) for s in samples]
    H = np.zeros((len(samples), K + 1, K + 1))
    fnorm = np.array([np.linalg.norm(s.f) for s in samples])
    for start in range(0, len(samples), chunk):
        stop = start + chunk
        _chunk_arnoldi(samples[start:stop], Ps[start:stop],
                       fnorm[start:stop], H[start:stop], K)
    return H, fnorm
