"""The generic reverse-mode tape, kept as a test oracle.

Minimal reverse-mode automatic differentiation over numpy arrays. The
library differentiates its training loss by hand (``MetaNet.backward``
and the adjoint of ``training._unroll``); this engine records the same
computations one operation at a time, so the bit-identity tests can
compare the hand-written gradients with a recording.

Nodes hold whole arrays (or scalars); each recorded operation stores its
parents together with local vector-Jacobian closures. Replaying the tape
in reverse creation order visits every node exactly once, which is a
valid reverse topological order because parents are always created
before children. The replay releases the graph as it goes, so the
recorded arrays are freed by reference counting once it ends.

Every operation also accepts plain arrays and then returns the plain
result of the same numpy expression.

The library's hand-written adjoints promise the bits that recording
their computation here gives: ``training._unroll`` against
``reference_iterations.reference_unroll``, one vector operation at a
time, and ``MetaNet.backward`` against :func:`metanet_forward`. So they
follow the order in which this tape's replay accumulates:

- a node's gradient is complete before its own VJPs run, and a parent
  receives its children's contributions in reverse creation order, the
  first assigned and each later one added;
- so the iterate u_{t-1} receives u_t's gradient, then the product's;
  the velocity v_t receives, in order, those of update t+1's momentum
  term, of its look-ahead term, and of u_t;
- a weight column's contributions are added from the last update back
  to the first; under nag the momentum and look-ahead rows are one Var,
  and its two contributions of each update go out through one edge in
  that order (momentum first);
- a network parameter collects one contribution per instance of a
  batch, the last instance first; the raw output's gradient is a zero
  vector with each output's slice added, so a -0 there reads +0.
"""
from __future__ import annotations

import numpy as np

from richlab.tape import TapeReuseError


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
        return _track(self.value + _value(other),
                      (self, lambda g: _unbroadcast(g, self.value)),
                      (other, lambda g: _unbroadcast(g, other.value)))

    __radd__ = __add__

    def __neg__(self):
        return _track(-self.value, (self, lambda g: -g))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _value(other)
        return _track(self.value * o,
                      (self, lambda g: _unbroadcast(g * o, self.value)),
                      (other, lambda g: _unbroadcast(g * self.value, o)))

    __rmul__ = __mul__

    def __getitem__(self, idx):
        def vjp(g):
            out = np.zeros_like(self.value)
            np.add.at(out, idx, g)
            return out
        return _track(self.value[idx], (self, vjp))


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


def stack(xs):
    """One (len(xs), ...) node whose row b is xs[b]."""
    return _track(np.stack([_value(x) for x in xs]),
                  *((x, lambda g, b=b: g[b]) for b, x in enumerate(xs)))


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


# -- the recorded schedule network ---------------------------------------

def metanet_forward(net, mu, params):
    """(omega, alpha, alpha_tilde) of ``net`` at ``mu`` under ``params``,
    given in the order of ``net.parameters()``: recorded on their tape
    when they are Vars. A weight the variant does not have is None;
    nag's alpha_tilde is its alpha."""
    nw = len(net.weights)
    Ws, bs = params[:nw], params[nw:]
    h = net.normalize(mu)
    for W, b in zip(Ws[:-1], bs[:-1]):
        h = tanh(matvec(W, h) + b)
    raw = matvec(Ws[-1], h) + bs[-1]
    m = net.m
    omega = exp(raw[:m]) if net.learn_log_omega else softplus(raw[:m])
    alpha = sigmoid(raw[m:2 * m]) if net.variant != "plain" else None
    if net.variant == "nagex":
        return omega, alpha, sigmoid(raw[2 * m:3 * m])
    return omega, alpha, alpha if net.variant == "nag" else None


def recorded_schedules(batch, net, params):
    """(omega, alpha, alpha_t) of a batch as (B, m) row stacks under
    ``params``, or None where the variant has no such weights: the
    network runs once per instance and its outputs are stacked."""
    omega, alpha, alpha_t = zip(*(metanet_forward(net, sample.mu, params)
                                  for sample in batch))
    tied = alpha_t[0] is alpha[0]   # nag reuses its momentum rows

    def rows(xs):
        return None if xs[0] is None else stack(xs)

    alpha = rows(alpha)
    return rows(omega), alpha, alpha if tied else rows(alpha_t)
