"""The training unroll and its hand-written adjoint against a recording.

``training._unroll`` returns its residuals and an adjoint that runs the
transposed recurrence. ``reference_unroll`` records the same iteration
one vector operation at a time on the generic tape of
``tests/reference_tape.py``. On one H stack, losses and gradients must
agree bit for bit. The schedule loss runs the unroll on each sample's
Krylov projection instead of the full preconditioned operator; that
loss and its gradients must agree with the full-operator recording to
1e-12 relative.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_tape as tp
from richlab.data import sample_dataset
from richlab.metanet import MetaNet
from richlab.training import (_mean_loss, _unroll, evaluate_loss, gradient,
                              krylov_projection, loss_relative_residual,
                              make_preconditioner)

from conftest import assert_close
from reference_iterations import reference_unroll, rowwise
from reference_tape import Tape, recorded_schedules

N = 8


@pytest.fixture(scope="module")
def samples():
    # eps and theta drawn over their whole ranges, n=8 (49 unknowns)
    return list(sample_dataset("anisotropic", 3, seed=21, n=N))


def full_operator(batch, precond):
    """The batch's list of operators, right-hand-side rows and row-wise
    preconditioner pair, as the full-operator unroll reads them."""
    return ([s.A for s in batch],
            np.stack([s.f for s in batch]),
            rowwise([make_preconditioner(precond, s.A) for s in batch]))


def reference_loss(batch, net, K, precond):
    """Loss and parameter gradients of the recorded full-operator
    unroll."""
    tape = Tape()
    pvars = [tape.var(p) for p in net.parameters()]
    omega, alpha, alpha_t = recorded_schedules(batch, net, pvars)
    A, F, precondition = full_operator(batch, precond)
    loss = tp.batch_mean(reference_unroll(A, F, omega, alpha, alpha_t, K,
                                          net.variant, precondition))
    tape.backward(loss)
    return loss.value, [p.grad for p in pvars]


@pytest.mark.parametrize("K", [0, 1, 3, 7])
@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("precond", [None, "jacobi", "ssor"])
@pytest.mark.parametrize("variant", ["plain", "mom", "nag", "nagex"])
def test_projected_loss_matches_recorded_reference(samples, variant, precond,
                                                   batch_size, K):
    net = MetaNet.create(m=3, variant=variant, seed=6, hidden=(6, 6))
    batch = samples[:batch_size]
    ref_loss, ref_grads = reference_loss(batch, net, K, precond)
    loss, tape, pvars = loss_relative_residual(batch, net, K, precond=precond)
    grads = gradient(loss, tape, pvars)
    assert_close(loss, ref_loss)
    for g, ref in zip(grads, ref_grads, strict=True):
        assert_close(g, ref)
    assert evaluate_loss(batch, net, K, precond=precond) == loss


def spectral_radius(sample, precond):
    """Largest eigenvalue modulus of A M^{-1}, from its dense matrix."""
    P = make_preconditioner(precond, sample.A)
    identity = np.eye(sample.A.ncols)
    Minv = identity if P is None else np.column_stack(
        [P.apply(e) for e in identity])
    return np.abs(np.linalg.eigvals(sample.A.to_scipy() @ Minv)).max()


@pytest.mark.parametrize("precond", [None, "ssor"])
def test_projected_unroll_matches_full_operator_on_diverging_schedule(
        samples, precond):
    """Weights near 3/lambda_max: every residual grows by orders of
    magnitude, and the projection still tracks it, with the gradient of
    every weight row."""
    K, m = 30, 3
    rng = np.random.default_rng(5)
    B = len(samples)
    A, F, precondition = full_operator(samples, precond)
    radius = np.array([spectral_radius(s, precond) for s in samples])
    rows = {"omega": rng.uniform(2.8, 3.2, (B, m)) / radius[:, None],
            "alpha": rng.uniform(0.0, 0.5, (B, m)),
            "alpha_t": rng.uniform(0.0, 0.5, (B, m))}

    tape = Tape()
    leaves = {role: tape.var(x) for role, x in rows.items()}
    out = reference_unroll(A, F, leaves["omega"], leaves["alpha"],
                           leaves["alpha_t"], K, "nagex", precondition)
    tape.backward(tp.batch_mean(out))
    assert out.value.min() > 1e3

    H, fnorm = krylov_projection(samples, K, precond)
    F_proj = np.zeros((B, K + 1))
    F_proj[:, 0] = fnorm
    value, adjoint = _unroll(H, F_proj, rows["omega"], rows["alpha"],
                             rows["alpha_t"], K, "nagex", wrt=tuple(rows))
    grads = _mean_loss(value, adjoint)[1]()
    for b in range(B):
        assert_close(value[b], out.value[b])
    for role in rows:
        assert_close(grads[role], leaves[role].grad)


@st.composite
def unroll_cases(draw):
    """A variant, sizes, a preconditioner for the projection and a seed
    for the weight rows. The operator is the batch's H stack under the
    drawn preconditioner."""
    variant = draw(st.sampled_from(["plain", "mom", "nag", "nagex"]))
    return dict(variant=variant, m=draw(st.integers(1, 3)),
                B=draw(st.integers(1, 3)),
                K=draw(st.integers(0, 6)),
                precond=draw(st.sampled_from([None, "jacobi", "ssor"])),
                seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(case=unroll_cases())
def test_kernel_matches_reference_on_random_weight_rows(samples, case):
    """Weight rows drawn at random: the kernel's residuals and the
    adjoint's gradients of every row equal those of the reference, which
    records the rows as leaves, on a stack of projections. nag passes its
    alpha rows as both momentum rows; a row the unroll does not read has
    a zero gradient."""
    rng = np.random.default_rng(case["seed"])
    batch = samples[:case["B"]]
    B, m, K, variant = case["B"], case["m"], case["K"], case["variant"]
    H, fnorm = krylov_projection(batch, K, case["precond"])
    F = np.zeros((B, K + 1))
    F[:, 0] = fnorm
    rows = {"omega": rng.uniform(0.01, 0.4, (B, m)),
            "alpha": rng.uniform(0.0, 0.9, (B, m)),
            "alpha_t": rng.uniform(0.0, 0.9, (B, m))}

    def weights(given):
        alpha = given["alpha"] if variant != "plain" else None
        alpha_t = {"nag": alpha, "nagex": given["alpha_t"]}.get(variant)
        return given["omega"], alpha, alpha_t

    tape = Tape()
    leaves = {role: tape.var(x) for role, x in rows.items()}
    out = reference_unroll(H, F, *weights(leaves), K, variant)
    tape.backward(tp.batch_mean(out))

    value, adjoint = _unroll(H, F, *weights(rows), K, variant,
                             wrt=tuple(rows))
    grads = _mean_loss(value, adjoint)[1]()
    assert np.array_equal(value, out.value)
    for role, x in rows.items():
        assert np.array_equal(grads.get(role, np.zeros_like(x)),
                              leaves[role].grad), role
