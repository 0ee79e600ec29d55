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

from .sparse import SparseMatrix, _index_dtype, _wrap_built

# 2x2 Gauss points / weights on the unit square, exact for bilinear
# stiffness with constant coefficients
_GPTS = [(0.5 - 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)),
         (0.5 + 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)),
         (0.5 + 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)),
         (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))]
_GW = 0.25
# element corners in local node order, as (x, y) offsets of the first
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


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
        for name in ("angular_frequency", "wave_speed"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        width = self.sponge_width
        if width is not None and (isinstance(width, bool)
                                  or not isinstance(width, (int, np.integer))
                                  or width < 1):
            raise ValueError(
                f"sponge_width must be None or an integer >= 1, got {width!r}")
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

    Every interior node sees the same four elements, so each row is the
    9-point stencil cut at the boundary. An offset's value sums the
    element entries Ke[a, b] whose corners b and a lie that offset
    apart, in (a, b) order: the order in which summing the element
    triplets of each row adds them. Offsets of magnitude at most
    1e-14 max|Ke| are dropped.
    """
    Ke = bilinear_element_stiffness(coefficient_matrix(p.epsilon, p.theta))
    stencil = {}
    for a, (ax, ay) in enumerate(_CORNERS):
        for b, (bx, by) in enumerate(_CORNERS):
            offset = (bx - ax, by - ay)
            stencil[offset] = stencil.get(offset, 0.0) + Ke[a, b]
    tol = 1e-14 * np.abs(Ke).max()
    offsets = sorted(k for k, v in stencil.items() if abs(v) > tol)
    return _stencil_matrix(p.n - 1, offsets,
                           np.array([[stencil[k]] for k in offsets]))


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

    # the 5-point offsets in lexicographic order, diagonal in the middle
    values = np.full((5, m * m), off, dtype=np.complex128)
    values[2] = diag
    return _stencil_matrix(m, [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
                           values)


def _stencil_matrix(m, offsets, values):
    """CSR matrix of a stencil on the m x m interior grid, unknown (i, j)
    at i m + j. ``offsets`` are K (di, dj) grid offsets in lexicographic
    order, so that each row's columns ascend; row k of ``values`` holds
    offset k's value, or one value per unknown. Entries whose neighbour
    falls outside the grid, and exact zeros, are left out."""
    di, dj = np.array(offsets).T
    i = np.arange(m)
    # offset-major (K, m^2) masks: long rows keep numpy's loops fast
    inside_i = (0 <= i + di[:, None]) & (i + di[:, None] < m)   # (K, m)
    inside_j = (0 <= i + dj[:, None]) & (i + dj[:, None] < m)
    keep = (inside_i[:, :, None] & inside_j[:, None, :]).reshape(-1, m * m)
    values = np.broadcast_to(values, keep.shape)
    keep &= values != 0
    cols = np.arange(m * m) + (di * m + dj)[:, None]
    index = _index_dtype(m * m, m * m, int(np.count_nonzero(keep)))
    row_starts = np.zeros(m * m + 1, dtype=index)
    np.cumsum(keep.sum(axis=0, dtype=index), out=row_starts[1:])
    # masking the transposed views reads each row's offsets in order
    return _wrap_built(m * m, m * m, row_starts, cols.T[keep.T],
                       values.T[keep.T])
