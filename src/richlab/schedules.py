"""Weight schedules for one outer sweep of the Richardson(m) family."""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

VARIANTS = ("plain", "mom", "nag", "nagex")


@dataclass(frozen=True)
class WeightSchedule:
    """Per-sweep weights (omega) and momentum coefficients (alpha, alpha_tilde).

    ``plain`` carries no momentum; ``nag`` couples the look-ahead
    coefficient to alpha; ``nagex`` decouples them.
    """

    omega: np.ndarray
    alpha: np.ndarray = None
    alpha_tilde: np.ndarray = None
    variant: str = "plain"

    def __post_init__(self):
        omega = _weights("omega", self.omega)
        m = len(omega)
        if m < 1:
            raise ValueError("schedule needs at least one weight")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        alpha = np.zeros(m) if self.alpha is None \
            else _weights("alpha", self.alpha)
        at = None if self.alpha_tilde is None \
            else _weights("alpha_tilde", self.alpha_tilde)
        if self.variant == "plain":
            if np.any(alpha != 0.0) or (at is not None and np.any(at != 0.0)):
                raise ValueError("plain variant requires zero momentum coefficients")
        if self.variant == "nag":
            if at is not None and not np.array_equal(at, alpha):
                raise ValueError("nag requires alpha_tilde == alpha")
            at = alpha
        if at is None:
            at = np.zeros(m)
        if not (len(alpha) == len(at) == m):
            raise ValueError("omega, alpha, alpha_tilde must share length m")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_tilde", at)

    @property
    def m(self):
        return len(self.omega)


def _weights(name, value):
    """``value`` as a 1-D float array (a scalar is one weight), or a
    ValueError that names the field."""
    x = np.atleast_1d(np.asarray(value, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def chebyshev_weights(lambda_max, lambda_min, m):
    """Weights placing the degree-m residual polynomial roots at the
    Chebyshev points mapped onto [lambda_min, lambda_max]."""
    if not (np.isfinite(lambda_max) and lambda_max > lambda_min > 0):
        raise ValueError(
            "need finite lambda_max > lambda_min > 0, got "
            f"({lambda_max}, {lambda_min})")
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    i = np.arange(1, m + 1)
    x = np.cos((2 * i - 1) * np.pi / (2 * m))
    return 2.0 / (lambda_max + lambda_min + (lambda_max - lambda_min) * x)


def chebyshev_semi_weights(lambda_max, m, alpha=1.0 / 30.0):
    """Semi-iteration weights: lambda_min replaced by alpha*lambda_max."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return chebyshev_weights(lambda_max, alpha * lambda_max, m)


def chebyshev_schedule(lambda_max, lambda_min, m):
    return WeightSchedule(omega=chebyshev_weights(lambda_max, lambda_min, m))


def chebyshev_semi_schedule(lambda_max, m, alpha=1.0 / 30.0):
    return WeightSchedule(omega=chebyshev_semi_weights(lambda_max, m, alpha))
