"""Minimal reverse-mode automatic differentiation over numpy arrays.

Nodes hold whole arrays (or scalars); each recorded operation stores its
parents together with local vector-Jacobian closures. Replaying the tape
in reverse creation order visits every node exactly once, which is a
valid reverse topological order because parents are always created
before children. The replay releases the graph as it goes, so the
recorded arrays are freed by reference counting once it ends.

The batched operations (``spmv`` on a row stack, ``linear_map``,
``row_norms``, ``batch_mean``) also accept plain arrays and then return
plain arrays, so one kernel serves recorded and tape-free evaluation.
"""
from __future__ import annotations

import numpy as np


class TapeReuseError(RuntimeError):
    """A tape can drive exactly one backward pass."""


class Tape:
    def __init__(self):
        self._nodes = []
        self._consumed = False

    def var(self, value):
        """Create a tracked leaf (parameter or input)."""
        return Var(np.asarray(value, dtype=float), self, parents=())

    def _record(self, value, parents):
        return Var(np.asarray(value, dtype=float), self, parents=parents)

    def backward(self, loss):
        """Accumulate gradients of a scalar loss into the nodes' .grad.

        A gradient is allocated on its node's first contribution; leaves
        that receive none read zeros. Each node drops its parents once
        it has passed its gradient on, and the tape drops its node list,
        so the graph is released while it is replayed.
        """
        if self._consumed:
            raise TapeReuseError("tape has already been replayed")
        self._consumed = True
        if np.ndim(loss.value) != 0:
            raise ValueError("backward needs a scalar loss node")
        loss.grad = np.ones_like(loss.value)
        nodes, self._nodes = self._nodes, []
        while nodes:
            node = nodes.pop()
            parents, node._parents = node._parents, ()
            if node.grad is None:
                if not parents:
                    node.grad = np.zeros_like(node.value)
                continue
            for parent, vjp in parents:
                g = vjp(node.grad)
                parent.grad = g if parent.grad is None else parent.grad + g


class Var:
    __slots__ = ("value", "tape", "_parents", "grad", "__weakref__")

    # make numpy defer to our reflected operators instead of broadcasting
    # a Var elementwise into an object array
    __array_ufunc__ = None

    def __init__(self, value, tape, parents):
        self.value = value
        self.tape = tape
        self._parents = parents
        self.grad = None
        tape._nodes.append(self)

    # -- helpers ---------------------------------------------------------
    def _lift(self, other):
        if isinstance(other, Var):
            return other
        return None

    def __repr__(self):
        return f"Var({self.value!r})"

    @property
    def shape(self):
        return np.shape(self.value)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Var):
            return self.tape._record(self.value + other.value, (
                (self, lambda g: _unbroadcast(g, self.value)),
                (other, lambda g: _unbroadcast(g, other.value))))
        return self.tape._record(self.value + other,
                                 ((self, lambda g: _unbroadcast(g, self.value)),))

    __radd__ = __add__

    def __neg__(self):
        return self.tape._record(-self.value, ((self, lambda g: -g),))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Var) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Var):
            return self.tape._record(self.value * other.value, (
                (self, lambda g: _unbroadcast(g * other.value, self.value)),
                (other, lambda g: _unbroadcast(g * self.value, other.value))))
        other = np.asarray(other)
        return self.tape._record(self.value * other,
                                 ((self, lambda g: _unbroadcast(g * other, self.value)),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            return self.tape._record(self.value / other.value, (
                (self, lambda g: _unbroadcast(g / other.value, self.value)),
                (other, lambda g: _unbroadcast(-g * self.value / other.value ** 2,
                                               other.value))))
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        recip = self.tape._record(
            1.0 / self.value, ((self, lambda g: -g / self.value ** 2),))
        return recip * other

    def __getitem__(self, idx):
        def vjp(g):
            out = np.zeros_like(self.value)
            np.add.at(out, idx, g)
            return out
        return self.tape._record(self.value[idx], ((self, vjp),))


def _unbroadcast(g, target):
    """Sum gradient g down to the shape of the target value."""
    g = np.asarray(g)
    while g.ndim > np.ndim(target):
        g = g.sum(axis=0)
    for ax, size in enumerate(np.shape(target)):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise nonlinearities ----------------------------------------

def tanh(x: Var) -> Var:
    t = np.tanh(x.value)
    return x.tape._record(t, ((x, lambda g: g * (1.0 - t ** 2)),))


def sigmoid(x: Var) -> Var:
    s = 1.0 / (1.0 + np.exp(-x.value))
    return x.tape._record(s, ((x, lambda g: g * s * (1.0 - s)),))


def softplus(x: Var) -> Var:
    y = np.logaddexp(0.0, x.value)
    s = 1.0 / (1.0 + np.exp(-x.value))
    return x.tape._record(y, ((x, lambda g: g * s),))


def exp(x: Var) -> Var:
    y = np.exp(x.value)
    return x.tape._record(y, ((x, lambda g: g * y),))


def sqrt(x: Var) -> Var:
    y = np.sqrt(x.value)
    return x.tape._record(y, ((x, lambda g: g * 0.5 / y),))


# -- linear algebra ----------------------------------------------------

def dot(a: Var, b) -> Var:
    if isinstance(b, Var):
        return a.tape._record(a.value @ b.value, (
            (a, lambda g: g * b.value),
            (b, lambda g: g * a.value)))
    b = np.asarray(b)
    return a.tape._record(a.value @ b, ((a, lambda g: g * b),))


def norm2(x: Var) -> Var:
    n = np.linalg.norm(x.value)
    return x.tape._record(n, ((x, lambda g: g * x.value / n if n > 0
                               else np.zeros_like(x.value)),))


def matvec(W: Var, x) -> Var:
    """Dense W @ x with a parameter matrix W."""
    if isinstance(x, Var):
        return W.tape._record(W.value @ x.value, (
            (W, lambda g: np.outer(g, x.value)),
            (x, lambda g: W.value.T @ g)))
    x = np.asarray(x)
    return W.tape._record(W.value @ x, ((W, lambda g: np.outer(g, x)),))


def _value(x):
    return x.value if isinstance(x, Var) else np.asarray(x)


def _track(x, value, vjp):
    """``value`` recorded as the child of ``x`` when x is a Var, else
    returned as a plain array."""
    if isinstance(x, Var):
        return x.tape._record(value, ((x, vjp),))
    return value


def spmv(A, x):
    """Sparse A @ x with a constant SparseMatrix A. A row stack x of
    shape (B, n) is multiplied as one vector by a block-diagonal A."""
    X = _value(x)
    shape = X.shape
    return _track(x, A.matvec(X.reshape(-1)).reshape(shape),
                  lambda g: A.rmatvec(g.reshape(-1)).reshape(shape))


def linear_map(apply_fn, apply_transpose_fn, x):
    """y = L x for a constant linear operator with known transpose."""
    return _track(x, apply_fn(_value(x)), apply_transpose_fn)


def stack(xs) -> Var:
    """One (len(xs), ...) node whose row b is xs[b]."""
    return xs[0].tape._record(
        np.stack([x.value for x in xs]),
        tuple((x, lambda g, b=b: g[b]) for b, x in enumerate(xs)))


def row_norms(x):
    """Euclidean norm of each row of a (B, n) stack, one row at a time,
    so row b matches ``norm2`` of that row bit for bit."""
    X = _value(x)
    n = np.array([np.linalg.norm(row) for row in X])

    def vjp(g):
        out = np.zeros_like(X)
        live = n > 0
        out[live] = g[live, None] * X[live] / n[live, None]
        return out

    return _track(x, n, vjp)


def batch_mean(x):
    """Mean of a 1-D stack by left-to-right adds, matching ``mean`` of
    the same entries as a list bit for bit."""
    values = _value(x)
    total = values[0]
    for item in values[1:]:
        total = total + item
    scale = 1.0 / len(values)
    return _track(x, total * scale, lambda g: np.full(len(values), g * scale))


def mean(xs) -> Var:
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return total * (1.0 / len(xs))
