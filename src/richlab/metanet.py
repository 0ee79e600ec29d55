"""Small fully-connected map from PDE parameters to a weight schedule.

Outputs are reparameterized so any raw network output yields a legal
schedule: softplus keeps the step weights strictly positive (optionally
exp, when learning log-weights), sigmoid keeps momentum coefficients in
the open unit interval.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .schedules import WeightSchedule

# raw-output bias at init: omega starts near softplus(-2) ~ 0.127,
# momentum near sigmoid(-2) ~ 0.119
_RAW_BIAS = -2.0

_GROUPS = {"plain": 1, "mom": 2, "nag": 2, "nagex": 3}

ANISOTROPIC_BOUNDS = np.array([[-6.0, 0.0], [0.0, np.pi]])


@dataclass
class MetaNet:
    widths: list
    weights: list
    biases: list
    variant: str = "plain"
    m: int = 3
    learn_log_omega: bool = False
    input_bounds: np.ndarray = field(
        default_factory=lambda: ANISOTROPIC_BOUNDS.copy())
    seed: int = 0

    @classmethod
    def create(cls, m, variant="plain", hidden=(64, 64),
               learn_log_omega=False, seed=0):
        """A new net whose inputs are the anisotropic parameters
        (lg eps, theta) that ANISOTROPIC_BOUNDS bounds."""
        out_dim = m * _GROUPS[variant]
        widths = [len(ANISOTROPIC_BOUNDS), *hidden, out_dim]
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
            biases.append(np.zeros(fan_out))
        # small final layer plus a conservative raw bias keeps the initial
        # schedule stable for unrolled training
        weights[-1] *= 0.01
        biases[-1][:] = _RAW_BIAS
        return cls(widths=widths, weights=weights, biases=biases,
                   variant=variant, m=m, learn_log_omega=learn_log_omega,
                   seed=seed)

    # -- parameter plumbing ---------------------------------------------
    def parameters(self):
        return [*self.weights, *self.biases]

    def set_parameters(self, params):
        nw = len(self.weights)
        self.weights = [np.array(p) for p in params[:nw]]
        self.biases = [np.array(p) for p in params[nw:]]

    def copy(self):
        return MetaNet(widths=list(self.widths),
                       weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases],
                       variant=self.variant, m=self.m,
                       learn_log_omega=self.learn_log_omega,
                       input_bounds=self.input_bounds.copy(), seed=self.seed)

    # -- forward passes --------------------------------------------------
    def normalize(self, mu):
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.widths[0],):   # the bounds would broadcast it
            raise ValueError(f"the net takes a parameter vector of length "
                             f"{self.widths[0]}, got shape {mu.shape}")
        lo, hi = self.input_bounds[:, 0], self.input_bounds[:, 1]
        return 2.0 * (mu - lo) / (hi - lo) - 1.0

    def forward_tape(self, mu):
        """(omega, alpha, alpha_tilde) of the current parameters, and the
        record of the pass that :meth:`backward` reads. A weight the
        variant does not have is None; nag's alpha_tilde is its alpha."""
        hs = [self.normalize(mu)]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            hs.append(np.tanh(W @ hs[-1] + b))
        raw = self.weights[-1] @ hs[-1] + self.biases[-1]
        m = self.m
        omega = np.exp(raw[:m]) if self.learn_log_omega \
            else np.logaddexp(0.0, raw[:m])
        alpha = _sigmoid(raw[m:2 * m]) if self.variant != "plain" else None
        alpha_t = _sigmoid(raw[2 * m:3 * m]) if self.variant == "nagex" \
            else None
        record = (self.weights, hs, raw, omega, alpha, alpha_t)
        if self.variant == "nag":
            alpha_t = alpha
        return (omega, alpha, alpha_t), record

    def schedule_arrays(self, mu):
        """(omega, alpha, alpha_tilde) of the current parameters, by the
        one forward pass :meth:`forward_tape`."""
        return self.forward_tape(mu)[0]

    def backward(self, records, g_omega, g_alpha=None, g_alpha_t=None):
        """Parameter gradients, in the order of parameters(), of a loss
        that reads the schedule rows of B forward passes, given their
        ``records`` and the loss's (B, m) gradients with respect to the
        omega, alpha and alpha_tilde rows (None where the loss reads no
        such row; nag's alpha gradient holds its look-ahead part).

        Each parameter sums its instances' contributions from the last
        instance to the first, and each contribution takes the float
        operations of recording the forward one operation at a time
        (``tests/reference_tape.py`` states that order).
        """
        if g_omega is None and g_alpha is None and g_alpha_t is None:
            return [np.zeros_like(p) for p in self.parameters()]
        m = self.m
        total = None
        for b in reversed(range(len(records))):
            Ws, hs, raw, omega, alpha, alpha_t = records[b]
            g = np.zeros(len(raw))
            if g_alpha_t is not None:
                g[2 * m:3 * m] += g_alpha_t[b] * alpha_t * (1.0 - alpha_t)
            if g_alpha is not None:
                g[m:2 * m] += g_alpha[b] * alpha * (1.0 - alpha)
            if g_omega is not None:
                g[:m] += g_omega[b] * omega if self.learn_log_omega \
                    else g_omega[b] * (1.0 / (1.0 + np.exp(-raw[:m])))
            gW, gb = [], []
            for i in reversed(range(len(Ws))):
                gW.insert(0, np.outer(g, hs[i]))
                gb.insert(0, g)
                if i:
                    g = (Ws[i].T @ g) * (1.0 - hs[i] ** 2)
            own = gW + gb
            total = own if total is None else \
                [t + o for t, o in zip(total, own)]
        return total

    # -- persistence -----------------------------------------------------
    def save(self, path, extra_metadata=None):
        meta = {"kind": "metanet", "widths": list(self.widths),
                "activation": "tanh", "variant": self.variant, "m": self.m,
                "learn_log_omega": self.learn_log_omega, "seed": self.seed}
        if extra_metadata:
            meta["config"] = extra_metadata
        arrays = {"input_bounds": self.input_bounds}
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"weight_{i}"] = W
            arrays[f"bias_{i}"] = b
        save_checkpoint(path, meta, arrays)

    @classmethod
    def load(cls, path):
        """Inverse of :meth:`save`. A ValueError naming ``path`` refuses a
        checkpoint of a kind other than "metanet", widths other than a
        list of at least two positive integers, an m other than a
        positive integer, a variant outside _GROUPS, a non-boolean
        learn_log_omega, a non-integer seed, a last width other than m
        times the variant's output groups, an array whose shape the
        widths do not give, and a missing header key or array."""
        def refuse(what):
            raise ValueError(f"{path}: checkpoint {what}")

        meta, arrays = load_checkpoint(path, "metanet")
        try:   # a KeyError names a header key or array the file lacks
            widths, m, variant = meta["widths"], meta["m"], meta["variant"]
            log_omega, seed = meta["learn_log_omega"], meta["seed"]
            if not (isinstance(widths, list) and len(widths) >= 2 and all(
                    type(w) is int and w > 0 for w in widths)):
                refuse(f"widths {widths!r} are not a list of at least two "
                       "positive integers")
            if not (type(m) is int and m > 0):
                refuse(f"m {m!r} is not a positive integer")
            if variant not in tuple(_GROUPS):  # no hash: a list is refused too
                refuse(f"variant {variant!r} is not one of "
                       f"{', '.join(_GROUPS)}")
            if type(log_omega) is not bool:
                refuse(f"learn_log_omega {log_omega!r} is not a boolean")
            if type(seed) is not int:
                refuse(f"seed {seed!r} is not an integer")
            outputs = m * _GROUPS[variant]
            if widths[-1] != outputs:
                refuse(f"widths {widths} end in {widths[-1]} outputs, not "
                       f"the {outputs} of m={m} and variant {variant!r}")
            shapes = {"input_bounds": (widths[0], 2)}
            for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
                shapes[f"weight_{i}"] = (fan_out, fan_in)
                shapes[f"bias_{i}"] = (fan_out,)
            for name, shape in shapes.items():
                if arrays[name].shape != shape:
                    refuse(f"array {name!r} has shape {arrays[name].shape}, "
                           f"not the {shape} of widths {widths}")
            nlayers = len(widths) - 1
            return cls(widths=widths,
                       weights=[arrays[f"weight_{i}"]
                                for i in range(nlayers)],
                       biases=[arrays[f"bias_{i}"] for i in range(nlayers)],
                       variant=variant, m=m, learn_log_omega=log_omega,
                       input_bounds=arrays["input_bounds"], seed=seed)
        except KeyError as exc:
            raise ValueError(f"{path} lacks the checkpoint entry "
                             f"{exc.args[0]!r}") from None


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def meta_forward(net: MetaNet, mu) -> WeightSchedule:
    """Deterministic map from PDE parameters to a weight schedule."""
    return WeightSchedule(*net.schedule_arrays(mu), variant=net.variant)
