"""Small fully-connected map from PDE parameters to a weight schedule.

Outputs are reparameterized so any raw network output yields a legal
schedule: softplus keeps the step weights strictly positive (optionally
exp, when learning log-weights), sigmoid keeps momentum coefficients in
the open unit interval.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
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
    def create(cls, m, variant="plain", hidden=(64, 64), input_dim=2,
               learn_log_omega=False, input_bounds=None, seed=0):
        out_dim = m * _GROUPS[variant]
        widths = [input_dim, *hidden, out_dim]
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
        bounds = ANISOTROPIC_BOUNDS.copy() if input_bounds is None \
            else np.asarray(input_bounds, dtype=float)
        return cls(widths=widths, weights=weights, biases=biases,
                   variant=variant, m=m, learn_log_omega=learn_log_omega,
                   input_bounds=bounds, seed=seed)

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
        lo, hi = self.input_bounds[:, 0], self.input_bounds[:, 1]
        return 2.0 * (np.asarray(mu, dtype=float) - lo) / (hi - lo) - 1.0

    def forward_tape(self, mu, params):
        """(omega, alpha, alpha_tilde) under ``params``, given in the order
        of parameters(): recorded on their tape when they are Vars, plain
        arrays when they are arrays. A weight the variant does not have is
        None; nag's alpha_tilde is its alpha."""
        nw = len(self.weights)
        Ws, bs = params[:nw], params[nw:]
        h = self.normalize(mu)
        for W, b in zip(Ws[:-1], bs[:-1]):
            h = tp.tanh(tp.matvec(W, h) + b)
        raw = tp.matvec(Ws[-1], h) + bs[-1]
        m = self.m
        omega = tp.exp(raw[:m]) if self.learn_log_omega \
            else tp.softplus(raw[:m])
        alpha = tp.sigmoid(raw[m:2 * m]) \
            if _GROUPS[self.variant] >= 2 else None
        if self.variant == "nagex":
            return omega, alpha, tp.sigmoid(raw[2 * m:3 * m])
        return omega, alpha, alpha if self.variant == "nag" else None

    def schedule_arrays(self, mu):
        """(omega, alpha, alpha_tilde) of the current parameters as plain
        arrays, by the one forward pass :meth:`forward_tape`."""
        return self.forward_tape(mu, self.parameters())

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
        meta, arrays = load_checkpoint(path)
        if meta.get("kind") != "metanet":
            raise ValueError("checkpoint does not hold a metanet")
        nlayers = len(meta["widths"]) - 1
        return cls(widths=meta["widths"],
                   weights=[arrays[f"weight_{i}"] for i in range(nlayers)],
                   biases=[arrays[f"bias_{i}"] for i in range(nlayers)],
                   variant=meta["variant"], m=meta["m"],
                   learn_log_omega=meta["learn_log_omega"],
                   input_bounds=arrays["input_bounds"], seed=meta["seed"])


def meta_forward(net: MetaNet, mu) -> WeightSchedule:
    """Deterministic map from PDE parameters to a weight schedule."""
    return WeightSchedule(*net.schedule_arrays(mu), variant=net.variant)
