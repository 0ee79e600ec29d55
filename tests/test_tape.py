import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from richlab import tape as tp
from richlab.precond import Preconditioner
from richlab.sparse import block_diagonal
from richlab.tape import Tape, TapeReuseError

from conftest import random_sparse, random_spd
from reference_iterations import mean, norm2


def weighted_sum(x, w):
    """w . x as a constant linear map of the recorded vector x."""
    w = np.asarray(w)
    return tp.linear_map(lambda z: z @ w, lambda g: g * w, x)


def numeric_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def test_arithmetic_chain():
    t = Tape()
    x = t.var(np.array([1.0, 2.0, 3.0]))
    y = weighted_sum((x * 2.0 + 1.0) * x, np.ones(3))  # sum(2x^2 + x)
    t.backward(y)
    assert np.allclose(x.grad, 4.0 * x.value + 1.0)


def test_tape_reuse_rejected():
    t = Tape()
    x = t.var(np.array(2.0))
    y = x * x
    t.backward(y)
    with pytest.raises(TapeReuseError):
        t.backward(y)


def test_disconnected_parameter_gets_exact_zero():
    t = Tape()
    x = t.var(np.array([1.0, 2.0]))
    unused = t.var(np.array([[5.0, 6.0]]))
    y = norm2(x)
    t.backward(y)
    assert np.array_equal(unused.grad, np.zeros((1, 2)))


def test_scalar_scaling_linearity():
    t1, t2 = Tape(), Tape()
    x1, x2 = t1.var(np.array([1.0, -2.0])), t2.var(np.array([1.0, -2.0]))
    y1 = norm2(tp.tanh(x1))
    y2 = norm2(tp.tanh(x2)) * 2.0
    t1.backward(y1)
    t2.backward(y2)
    assert np.allclose(x2.grad, 2.0 * x1.grad, rtol=1e-15)


@pytest.mark.parametrize("op,ref", [
    (tp.tanh, lambda x: np.tanh(x)),
    (tp.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    (tp.softplus, lambda x: np.logaddexp(0, x)),
    (tp.exp, np.exp),
])
def test_elementwise_ops_vs_finite_differences(op, ref):
    x0 = np.array([0.2, 1.3, 0.7])
    t = Tape()
    x = t.var(x0)
    y = weighted_sum(op(x), [1.0, -2.0, 0.5])
    t.backward(y)
    num = numeric_grad(lambda z: ref(z) @ np.array([1.0, -2.0, 0.5]), x0)
    assert np.allclose(x.grad, num, rtol=1e-6, atol=1e-9)


def test_spmv_gradient(rng):
    A = random_spd(6, rng)
    x0 = rng.standard_normal(6)
    t = Tape()
    x = t.var(x0)
    y = norm2(tp.spmv(A, x))
    t.backward(y)
    num = numeric_grad(lambda z: np.linalg.norm(A.to_dense() @ z), x0)
    assert np.allclose(x.grad, num, rtol=1e-5, atol=1e-8)


def test_matvec_parameter_gradient(rng):
    W0 = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    t = Tape()
    W = t.var(W0)
    y = norm2(tp.matvec(W, x))
    t.backward(y)
    num = numeric_grad(lambda Z: np.linalg.norm(Z @ x), W0)
    assert np.allclose(W.grad, num, rtol=1e-5, atol=1e-8)


def test_linear_map_uses_transpose(rng):
    A = random_spd(5, rng)
    P = Preconditioner.sor(A, relax=1.3)
    x0 = rng.standard_normal(5)
    w = rng.standard_normal(5)
    t = Tape()
    x = t.var(x0)
    y = weighted_sum(tp.linear_map(P.apply, P.apply_transpose, x), w)
    t.backward(y)
    assert np.allclose(x.grad, P.apply_transpose(w), rtol=1e-12)


def test_getitem_scatter():
    t = Tape()
    x = t.var(np.array([1.0, 2.0, 3.0]))
    y = x[1] * 5.0
    t.backward(y)
    assert np.array_equal(x.grad, [0.0, 5.0, 0.0])


def test_row_ops_match_per_row_ops_bit_for_bit(rng):
    X0 = rng.standard_normal((4, 7))
    t1, t2 = Tape(), Tape()
    X = t1.var(X0)
    batched = tp.batch_mean(tp.row_norms(X) * 0.5)
    t1.backward(batched)
    rows = [t2.var(x) for x in X0]
    single = mean([norm2(x) * 0.5 for x in rows])
    t2.backward(single)
    assert np.array_equal(batched.value, single.value)
    assert np.array_equal(X.grad, np.stack([x.grad for x in rows]))


def test_stack_routes_row_gradients(rng):
    t = Tape()
    xs = [t.var(rng.standard_normal(3)) for _ in range(3)]
    w = rng.standard_normal((3, 3))
    t.backward(tp.batch_mean(tp.row_norms(tp.stack(xs) * w)))
    for x, wb in zip(xs, w):
        ref = wb * (x.value * wb) / np.linalg.norm(x.value * wb) / 3.0
        assert np.allclose(x.grad, ref, rtol=1e-14)


def test_batched_ops_accept_plain_arrays(rng):
    A = random_spd(5, rng)
    D = block_diagonal([A, A])
    X0 = rng.standard_normal((2, 5))
    P = Preconditioner.ssor(A)
    t = Tape()

    def chain(x):
        y = tp.linear_map(lambda Z: np.stack([P.apply(z) for z in Z]),
                          lambda Z: np.stack([P.apply_transpose(z) for z in Z]),
                          tp.spmv(D, x))
        return tp.batch_mean(tp.row_norms(y))

    plain = chain(X0)
    recorded = chain(t.var(X0))
    assert not isinstance(plain, tp.Var)
    assert plain == recorded.value


def _row_stack_and_seed():
    """A (B, n) row stack of moderate floats and a seed for the constant
    operands drawn around it."""
    shapes = st.tuples(st.integers(1, 4), st.integers(1, 6))
    floats = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
    return st.tuples(shapes.flatmap(lambda s: hnp.arrays(float, s,
                                                         elements=floats)),
                     st.integers(0, 2 ** 16))


TAPE_OPS = ["tanh", "sigmoid", "softplus", "exp", "matvec", "stack", "spmv",
            "linear_map", "row_norms", "batch_mean"]


def _op_case(name, X, seed):
    """(op, array arguments) of one tape op on the row stack X, with its
    constant operands drawn under ``seed``."""
    rng = np.random.default_rng(seed)
    n = X.shape[1]
    if name == "matvec":
        return tp.matvec, (rng.standard_normal((n, n)), X[0])
    if name == "stack":
        return (lambda *rows: tp.stack(rows)), tuple(X)
    if name == "spmv":
        A = block_diagonal([random_sparse(n, rng)] * len(X))
        return (lambda x: tp.spmv(A, x)), (X,)
    if name == "linear_map":
        M = rng.standard_normal((n, n))
        return (lambda x: tp.linear_map(lambda Z: Z @ M.T, lambda G: G @ M,
                                        x)), (X,)
    if name == "batch_mean":
        return tp.batch_mean, (X[:, 0],)
    return getattr(tp, name), (X,)


@pytest.mark.parametrize("name", TAPE_OPS)
@given(case=_row_stack_and_seed())
def test_every_op_runs_tape_free_bit_for_bit(name, case):
    """Given plain arrays an op returns a plain numpy result whose bits are
    the value it records given Vars."""
    op, args = _op_case(name, *case)
    plain = op(*args)
    t = Tape()
    recorded = op(*(t.var(a) for a in args))
    assert not isinstance(plain, tp.Var) and isinstance(recorded, tp.Var)
    plain = np.asarray(plain)
    assert plain.dtype == recorded.value.dtype
    assert plain.shape == recorded.value.shape
    assert plain.tobytes() == recorded.value.tobytes()

