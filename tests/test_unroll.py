"""The training unroll and its hand-written adjoint against a recording.

``training._unroll`` returns its residuals and an adjoint that runs the
transposed recurrence. ``reference_unroll`` records the same iteration
one vector operation at a time on the generic tape of
``tests/reference_tape.py``. Losses and gradients must agree bit for
bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_tape as tp
from richlab.data import sample_dataset
from richlab.fns import sine_basis_eigenvalues
from richlab.metanet import MetaNet
from richlab.sparse import block_diagonal
from richlab.training import (_mean_loss, _rowwise, _unroll, evaluate_loss,
                              gradient, loss_relative_residual,
                              make_preconditioner)

from reference_iterations import reference_unroll
from reference_tape import Tape, recorded_schedules

N = 8


@pytest.fixture(scope="module")
def samples():
    # eps and theta drawn over their whole ranges, n=8 (49 unknowns)
    return list(sample_dataset("anisotropic", 3, seed=21, n=N))


def reference_loss(batch, net, K, precond):
    """Loss and parameter gradients of the recorded reference unroll."""
    tape = Tape()
    pvars = [tape.var(p) for p in net.parameters()]
    omega, alpha, alpha_t = recorded_schedules(batch, net, pvars)
    Ps = [make_preconditioner(precond, s.A) for s in batch]
    loss = tp.batch_mean(reference_unroll(
        block_diagonal([s.A for s in batch]), np.stack([s.f for s in batch]),
        omega, alpha, alpha_t, K, net.variant, _rowwise(Ps)))
    tape.backward(loss)
    return loss.value, [p.grad for p in pvars]


@pytest.mark.parametrize("K", [0, 1, 3, 7])
@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("precond", [None, "jacobi", "ssor"])
@pytest.mark.parametrize("variant", ["plain", "mom", "nag", "nagex"])
def test_kernel_matches_recorded_reference(samples, variant, precond,
                                           batch_size, K):
    net = MetaNet.create(m=3, variant=variant, seed=6, hidden=(6, 6))
    batch = samples[:batch_size]
    ref_loss, ref_grads = reference_loss(batch, net, K, precond)
    loss, tape, pvars = loss_relative_residual(batch, net, K, precond=precond)
    grads = gradient(loss, tape, pvars)
    assert np.array_equal(loss, ref_loss)
    for g, ref in zip(grads, ref_grads, strict=True):
        assert np.array_equal(g, ref)
    assert evaluate_loss(batch, net, K, precond=precond) == loss


@st.composite
def unroll_cases(draw):
    """A variant, sizes, a preconditioner, optional hybrid corrections and
    a seed for the weight and correction rows."""
    variant = draw(st.sampled_from(["plain", "mom", "nag", "nagex"]))
    hybrid = draw(st.booleans())
    return dict(variant=variant, hybrid=hybrid,
                m=draw(st.integers(1, 3)), B=draw(st.integers(1, 3)),
                K=draw(st.integers(0, 6)),
                cycles=draw(st.integers(0, 2)) if hybrid else 1,
                precond=draw(st.sampled_from([None, "jacobi", "ssor"])),
                seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=60, deadline=None)
@given(case=unroll_cases())
def test_kernel_matches_reference_on_random_weight_rows(samples, case):
    """Weight rows drawn at random: the kernel's residuals and the
    adjoint's gradients of every row equal those of the reference, which
    records the rows as leaves. nag passes its alpha rows as both
    momentum rows; a row the unroll does not read has a zero gradient."""
    rng = np.random.default_rng(case["seed"])
    batch = samples[:case["B"]]
    B, m, variant = case["B"], case["m"], case["variant"]
    A = block_diagonal([s.A for s in batch])
    F = np.stack([s.f for s in batch])
    precondition = _rowwise([make_preconditioner(case["precond"], s.A)
                             for s in batch])
    rows = {"omega": rng.uniform(0.01, 0.4, (B, m)),
            "alpha": rng.uniform(0.0, 0.9, (B, m)),
            "alpha_t": rng.uniform(0.0, 0.9, (B, m))}
    if case["hybrid"]:
        rows["lam"] = np.stack([
            rng.uniform(0.5, 1.5, (N - 1) ** 2)
            / sine_basis_eigenvalues(s.A, N) for s in batch])

    def weights(given):
        alpha = given["alpha"] if variant != "plain" else None
        alpha_t = {"nag": alpha, "nagex": given["alpha_t"]}.get(variant)
        return given["omega"], alpha, alpha_t

    tape = Tape()
    leaves = {role: tape.var(x) for role, x in rows.items()}
    out = reference_unroll(A, F, *weights(leaves), case["K"], variant,
                           precondition, lam=leaves.get("lam"),
                           cycles=case["cycles"])
    tape.backward(tp.batch_mean(out))

    value, adjoint = _unroll(A, F, *weights(rows), case["K"], variant,
                             precondition, lam=rows.get("lam"),
                             cycles=case["cycles"], wrt=tuple(rows))
    grads = _mean_loss(value, adjoint)[1]()
    assert np.array_equal(value, out.value)
    for role, x in rows.items():
        assert np.array_equal(grads.get(role, np.zeros_like(x)),
                              leaves[role].grad), role
