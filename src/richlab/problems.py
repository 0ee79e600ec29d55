"""Discrete model problems on the unit square with Dirichlet boundaries.

Two families are provided: anisotropic diffusion discretized with
bilinear finite elements, and a damped Helmholtz operator discretized
with the 5-point finite difference stencil plus an absorbing sponge
layer. Unknowns are the (n-1)^2 interior nodes in lexicographic
row-major order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix

# 2x2 Gauss points / weights on the unit square, exact for bilinear
# stiffness with constant coefficients
_GPTS = [(0.5 - 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)),
         (0.5 + 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)),
         (0.5 + 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)),
         (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))]
_GW = 0.25


# grid points per wavelength below which a Helmholtz grid is refused
MIN_POINTS_PER_WAVELENGTH = 10.0


class ShannonViolation(ValueError):
    """Grid too coarse for the requested wavenumber."""


@dataclass(frozen=True)
class AnisotropicProblem:
    """-div(C grad u) = f with C = Q(theta) diag(1, eps) Q(theta)^T."""

    epsilon: float
    theta: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    kind = "anisotropic"

    @property
    def ndof(self):
        return (self.n - 1) ** 2

    @property
    def mu(self):
        """PDE parameter vector (lg eps, theta)."""
        return np.array([np.log10(self.epsilon), self.theta])


@dataclass(frozen=True)
class HelmholtzProblem:
    """-Lap u - k^2 u + i gamma (omega/c^2) u = f with a sponge layer."""

    angular_frequency: float
    n: int
    wave_speed: float = 1.0
    sponge_width: int | None = None  # cells; default one wavelength
    shannon_check: bool = True

    def __post_init__(self):
        if self.angular_frequency <= 0.0:
            raise ValueError("angular_frequency must be positive")
        if self.wave_speed <= 0.0:
            raise ValueError("wave_speed must be positive")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    kind = "helmholtz"

    @property
    def ndof(self):
        return (self.n - 1) ** 2

    @property
    def wavelength_cells(self):
        h = 1.0 / self.n
        return 2.0 * np.pi * self.wave_speed / (self.angular_frequency * h)

    @property
    def mu(self):
        return np.array([self.angular_frequency])


ProblemSpec = AnisotropicProblem | HelmholtzProblem


def coefficient_matrix(epsilon, theta):
    """Diffusion tensor C(eps, theta) = Q diag(1, eps) Q^T."""
    c, s = np.cos(theta), np.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    return Q @ np.diag([1.0, epsilon]) @ Q.T


def bilinear_element_stiffness(C):
    """4x4 element stiffness for constant C on a square element.

    The 1/h^2 gradient scaling cancels the h^2 area factor, so the
    matrix is independent of the element size. Local node order:
    (0,0), (1,0), (1,1), (0,1) in (x, y).
    """
    Ke = np.zeros((4, 4))
    for xi, eta in _GPTS:
        # d/dxi, d/deta of the four bilinear basis functions
        G = np.array([
            [-(1 - eta), (1 - eta), eta, -eta],
            [-(1 - xi), -xi, xi, (1 - xi)],
        ])
        Ke += _GW * G.T @ C @ G
    # enforce bit-exact symmetry of the element (and hence assembled) matrix
    return 0.5 * (Ke + Ke.T)


def assemble_anisotropic(p: AnisotropicProblem) -> SparseMatrix:
    """Bilinear FEM stiffness matrix on the interior unknowns.

    The stiffness is left unscaled by h^2 (all entries O(1)); relative
    residual iteration counts are invariant under that scaling.
    """
    n = p.n
    Ke = bilinear_element_stiffness(coefficient_matrix(p.epsilon, p.theta))

    # interior index of grid node (ix, iy), -1 on the boundary
    interior = -np.ones((n + 1, n + 1), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    interior[1:n, 1:n] = (ii - 1) * (n - 1) + (jj - 1)

    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ex, ey = ex.reshape(-1), ey.reshape(-1)
    # element corner nodes in local order (0,0),(1,0),(1,1),(0,1)
    nodes = np.stack([
        interior[ex, ey], interior[ex + 1, ey],
        interior[ex + 1, ey + 1], interior[ex, ey + 1],
    ], axis=1)  # (nelem, 4)

    rows, cols, vals = [], [], []
    for a in range(4):
        for b in range(4):
            mask = (nodes[:, a] >= 0) & (nodes[:, b] >= 0)
            rows.append(nodes[mask, a])
            cols.append(nodes[mask, b])
            vals.append(np.full(mask.sum(), Ke[a, b]))
    A = SparseMatrix.from_triplets(
        p.ndof, p.ndof,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        drop_tol=1e-14 * np.abs(Ke).max())
    return A


def damping_mask(p: HelmholtzProblem) -> np.ndarray:
    """Sponge-layer damping gamma on the interior grid (flattened).

    Zero in the interior, rising quadratically to the angular frequency
    over ``sponge_width`` cells adjacent to the boundary.
    """
    n = p.n
    width = p.sponge_width
    if width is None:
        width = max(1, int(round(p.wavelength_cells)))
    i = np.arange(1, n)
    edge = np.minimum(i, n - i)  # cells to the nearest boundary
    dist = np.minimum(edge[:, None], edge[None, :])
    depth = np.clip(width - dist, 0, width) / width
    return (p.angular_frequency * depth ** 2).reshape(-1)


def assemble_helmholtz(p: HelmholtzProblem) -> SparseMatrix:
    """5-point damped Helmholtz operator, complex symmetric."""
    if p.shannon_check and p.wavelength_cells < MIN_POINTS_PER_WAVELENGTH:
        raise ShannonViolation(
            f"only {p.wavelength_cells:.2f} grid points per wavelength "
            f"(need >= {MIN_POINTS_PER_WAVELENGTH:g})")
    n = p.n
    h = 1.0 / n
    m = n - 1
    k = p.angular_frequency / p.wave_speed
    gamma = damping_mask(p)

    diag = (4.0 - k ** 2 * h ** 2) / h ** 2 + 1j * gamma * (
        p.angular_frequency / p.wave_speed ** 2)
    off = -1.0 / h ** 2

    idx = np.arange(m * m).reshape(m, m)
    rows = [idx.reshape(-1)]
    cols = [idx.reshape(-1)]
    vals = [diag]
    for ra, ca in [(idx[:-1, :], idx[1:, :]), (idx[1:, :], idx[:-1, :]),
                   (idx[:, :-1], idx[:, 1:]), (idx[:, 1:], idx[:, :-1])]:
        rows.append(ra.reshape(-1))
        cols.append(ca.reshape(-1))
        vals.append(np.full(ra.size, off, dtype=np.complex128))
    return SparseMatrix.from_triplets(
        m * m, m * m, np.concatenate(rows), np.concatenate(cols),
        np.concatenate(vals))
