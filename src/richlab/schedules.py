"""Weight schedules for one outer sweep of the Richardson(m) family."""
from __future__ import annotations

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
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "omega", omega)
        m = len(omega)
        if m < 1:
            raise ValueError("schedule needs at least one weight")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        alpha = self.alpha
        alpha = np.zeros(m) if alpha is None else np.atleast_1d(np.asarray(alpha, dtype=float))
        at = self.alpha_tilde
        if self.variant == "plain":
            if at is None:
                at = np.zeros(m)
            if np.any(alpha != 0.0) or np.any(np.atleast_1d(at) != 0.0):
                raise ValueError("plain variant requires zero momentum coefficients")
        if self.variant == "nag":
            if at is not None and not np.array_equal(np.atleast_1d(at), alpha):
                raise ValueError("nag requires alpha_tilde == alpha")
            at = alpha
        if at is None:
            at = np.zeros(m)
        at = np.atleast_1d(np.asarray(at, dtype=float))
        if not (len(alpha) == len(at) == m):
            raise ValueError("omega, alpha, alpha_tilde must share length m")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_tilde", at)

    @property
    def m(self):
        return len(self.omega)


def chebyshev_weights(lambda_max, lambda_min, m):
    """Weights placing the degree-m residual polynomial roots at the
    Chebyshev points mapped onto [lambda_min, lambda_max]."""
    if not lambda_max > lambda_min > 0:
        raise ValueError(
            f"need lambda_max > lambda_min > 0, got ({lambda_max}, {lambda_min})")
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
