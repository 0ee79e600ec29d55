"""Minimal reverse-mode automatic differentiation over numpy arrays.

Nodes hold whole arrays (or scalars); each recorded operation stores its
parents together with local vector-Jacobian closures. Replaying the tape
in reverse creation order visits every node exactly once, which is a
valid reverse topological order because parents are always created
before children. The replay releases the graph as it goes, so the
recorded arrays are freed by reference counting once it ends.

Every operation also accepts plain arrays and then returns the plain
result of the same numpy expression, so one forward pass serves
recorded and tape-free evaluation bit for bit.
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


def _value(x):
    return x.value if isinstance(x, Var) else np.asarray(x)


def _track(value, *edges):
    """``value`` recorded as the child of the Vars among the (input, vjp)
    ``edges``, or returned as a plain array when there are none."""
    edges = tuple((x, vjp) for x, vjp in edges if isinstance(x, Var))
    if not edges:
        return value
    return edges[0][0].tape._record(value, edges)


# -- elementwise nonlinearities ----------------------------------------

def tanh(x):
    t = np.tanh(_value(x))
    return _track(t, (x, lambda g: g * (1.0 - t ** 2)))


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-_value(x)))
    return _track(s, (x, lambda g: g * s * (1.0 - s)))


def softplus(x):
    X = _value(x)
    return _track(np.logaddexp(0.0, X),
                  (x, lambda g: g * (1.0 / (1.0 + np.exp(-X)))))


def exp(x):
    y = np.exp(_value(x))
    return _track(y, (x, lambda g: g * y))


# -- linear algebra ----------------------------------------------------

def matvec(W, x):
    """Dense W @ x with a parameter matrix W."""
    Wv, X = _value(W), _value(x)
    return _track(Wv @ X, (W, lambda g: np.outer(g, X)),
                  (x, lambda g: Wv.T @ g))


def spmv(A, x):
    """Sparse A @ x with a constant SparseMatrix A. A row stack x of
    shape (B, n) is multiplied as one vector by a block-diagonal A."""
    X = _value(x)
    shape = X.shape
    return _track(A.matvec(X.reshape(-1)).reshape(shape),
                  (x, lambda g: A.rmatvec(g.reshape(-1)).reshape(shape)))


def linear_map(apply_fn, apply_transpose_fn, x):
    """y = L x for a constant linear operator with known transpose."""
    return _track(apply_fn(_value(x)), (x, apply_transpose_fn))


def stack(xs):
    """One (len(xs), ...) node whose row b is xs[b]."""
    return _track(np.stack([_value(x) for x in xs]),
                  *((x, lambda g, b=b: g[b]) for b, x in enumerate(xs)))


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


def batch_mean(x):
    """Mean of a 1-D stack by left-to-right adds, matching the sum of the
    same entries as a list, times 1/len, bit for bit."""
    values = _value(x)
    total = values[0]
    for item in values[1:]:
        total = total + item
    scale = 1.0 / len(values)
    return _track(total * scale,
                  (x, lambda g: np.full(len(values), g * scale)))
