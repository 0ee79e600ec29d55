"""Discrete model problems on the unit square with Dirichlet boundaries.

Two families are provided: anisotropic diffusion discretized with
bilinear finite elements, and a damped Helmholtz operator discretized
with the 5-point finite difference stencil plus an absorbing sponge
layer. Unknowns are the (n-1)^2 interior nodes in lexicographic
row-major order.
"""
from __future__ import annotations

import numbers
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
# the nine stencil offsets (dx, dy) in lexicographic order, and each
# pair (a, b) of element corners, in (a, b) order, with the index of
# the offset from corner a to corner b
_OFFSETS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
_PAIRS = [(a, b, 3 * (bx - ax + 1) + (by - ay + 1))
          for a, (ax, ay) in enumerate(_CORNERS)
          for b, (bx, by) in enumerate(_CORNERS)]


# grid points per wavelength below which a Helmholtz grid is refused
MIN_POINTS_PER_WAVELENGTH = 10.0


class ShannonViolation(ValueError):
    """Grid too coarse for the requested wavenumber."""


def _integer(name, value, least):
    """``value`` as an int of at least ``least``; a bool or a value that
    is not an integer is refused with a ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


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
        object.__setattr__(self, "n", _integer("n", self.n, 2))

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
    """-Lap u - k^2 u + i gamma k u = f with a sponge layer, k = omega."""

    angular_frequency: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.angular_frequency < np.inf:
            raise ValueError("angular_frequency must be finite and positive, "
                             f"got {self.angular_frequency}")
        object.__setattr__(self, "n", _integer("n", self.n, 2))

    kind = "helmholtz"

    @property
    def ndof(self):
        return (self.n - 1) ** 2

    @property
    def wavelength_cells(self):
        h = 1.0 / self.n
        return 2.0 * np.pi / (self.angular_frequency * h)

    @property
    def mu(self):
        return np.array([self.angular_frequency])


ProblemSpec = AnisotropicProblem | HelmholtzProblem


def coefficient_matrix(epsilon, theta):
    """Diffusion tensor C(eps, theta) = Q diag(1, eps) Q^T, one 2x2 matrix
    per entry of ``epsilon`` and ``theta`` (stacked on the last two axes)."""
    epsilon, theta = np.broadcast_arrays(epsilon, theta)
    c, s = np.cos(theta), np.sin(theta)
    Q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    D = np.zeros(Q.shape)
    D[..., 0, 0] = 1.0
    D[..., 1, 1] = epsilon
    return Q @ D @ Q.swapaxes(-1, -2)


def bilinear_element_stiffness(C):
    """4x4 element stiffness for constant C on a square element, one per
    2x2 matrix stacked in ``C``.

    The 1/h^2 gradient scaling cancels the h^2 area factor, so the
    matrix is independent of the element size. Local node order:
    (0,0), (1,0), (1,1), (0,1) in (x, y).
    """
    Ke = np.zeros(C.shape[:-2] + (4, 4))
    for xi, eta in _GPTS:
        # d/dxi, d/deta of the four bilinear basis functions
        G = np.array([
            [-(1 - eta), (1 - eta), eta, -eta],
            [-(1 - xi), -xi, xi, (1 - xi)],
        ])
        Ke += _GW * G.T @ C @ G
    # enforce bit-exact symmetry of the element (and hence assembled) matrix
    return 0.5 * (Ke + Ke.swapaxes(-1, -2))


def assemble_anisotropic(p: AnisotropicProblem) -> SparseMatrix:
    """Bilinear FEM stiffness matrix on the interior unknowns: the batch
    of one of :func:`assemble_anisotropic_batch`."""
    return assemble_anisotropic_batch([p])[0]


def assemble_anisotropic_batch(specs) -> list[SparseMatrix]:
    """The bilinear FEM stiffness matrix of each spec, in one pass.

    The stiffness is left unscaled by h^2 (all entries O(1)); relative
    residual iteration counts are invariant under that scaling.

    Every interior node sees the same four elements, so each row is the
    9-point stencil cut at the boundary. An offset's value sums the
    element entries Ke[a, b] whose corners b and a lie that offset
    apart, in (a, b) order: the order in which summing the element
    triplets of each row adds them. Offsets of magnitude at most
    1e-14 max|Ke| are dropped. The specs of one grid size and one set of
    kept offsets share one read-only pattern (row starts and column
    indices); each matrix gathers its own values from its stencil.
    """
    Ke = bilinear_element_stiffness(coefficient_matrix(
        [p.epsilon for p in specs], [p.theta for p in specs]))
    stencils = np.zeros((len(specs), len(_OFFSETS)))
    for a, b, k in _PAIRS:
        stencils[:, k] += Ke[:, a, b]
    tol = 1e-14 * np.abs(Ke).max(axis=(1, 2))
    kept = np.abs(stencils) > tol[:, None]
    groups = {}
    for s, p in enumerate(specs):
        groups.setdefault((p.n, kept[s].tobytes()), []).append(s)
    matrices = [None] * len(specs)
    for (n, _), members in groups.items():
        offsets = np.flatnonzero(kept[members[0]])
        row_starts, col_indices, slots = _stencil_pattern(
            n - 1, _OFFSETS[offsets])
        for s in members:
            matrices[s] = _wrap_built((n - 1) ** 2, (n - 1) ** 2, row_starts,
                                      col_indices,
                                      stencils[s, offsets].take(slots))
    return matrices


def damping_mask(p: HelmholtzProblem) -> np.ndarray:
    """Sponge-layer damping gamma on the interior grid (flattened).

    Zero in the interior, rising quadratically to the angular frequency
    over the wavelength's width in cells adjacent to the boundary.
    """
    n = p.n
    width = max(1, int(round(p.wavelength_cells)))
    i = np.arange(1, n)
    edge = np.minimum(i, n - i)  # cells to the nearest boundary
    dist = np.minimum(edge[:, None], edge[None, :])
    depth = np.clip(width - dist, 0, width) / width
    return (p.angular_frequency * depth ** 2).reshape(-1)


def assemble_helmholtz(p: HelmholtzProblem) -> SparseMatrix:
    """5-point damped Helmholtz operator, complex symmetric; a grid below
    MIN_POINTS_PER_WAVELENGTH points per wavelength is refused."""
    if p.wavelength_cells < MIN_POINTS_PER_WAVELENGTH:
        raise ShannonViolation(
            f"only {p.wavelength_cells:.2f} grid points per wavelength "
            f"(need >= {MIN_POINTS_PER_WAVELENGTH:g})")
    n = p.n
    h = 1.0 / n
    m = n - 1
    k = p.angular_frequency
    diag = (4.0 - k ** 2 * h ** 2) / h ** 2 + 1j * damping_mask(p) * k
    off = -1.0 / h ** 2

    # the 5-point offsets in lexicographic order, diagonal in the middle
    values = np.full((5, m * m), off, dtype=np.complex128)
    values[2] = diag
    return _stencil_matrix(m, [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
                           values)


def _stencil_pattern(m, offsets):
    """The CSR pattern of a stencil on the m x m interior grid, unknown
    (i, j) at i m + j, as read-only arrays (row_starts, col_indices,
    slots). ``offsets`` are K (di, dj) grid offsets in lexicographic
    order, so that each row's columns ascend; entries whose neighbour
    falls outside the grid are left out, and slots[e] is the index in
    ``offsets`` of entry e's offset."""
    di, dj = np.asarray(offsets).T
    i = np.arange(m)
    # offset-major (K, m^2) masks: long rows keep numpy's loops fast
    inside_i = (0 <= i + di[:, None]) & (i + di[:, None] < m)   # (K, m)
    inside_j = (0 <= i + dj[:, None]) & (i + dj[:, None] < m)
    keep = (inside_i[:, :, None] & inside_j[:, None, :]).reshape(-1, m * m)
    counts = keep.sum(axis=0)
    index = _index_dtype(m * m, m * m, int(counts.sum()))
    row_starts = np.zeros(m * m + 1, dtype=index)
    np.cumsum(counts, out=row_starts[1:])
    # masking the (m^2, K) transposes reads each row's offsets in order;
    # contiguous copies and an int8 slot source select faster than the
    # strided transposed views
    mask = np.ascontiguousarray(keep.T)
    cols = np.arange(m * m, dtype=index) + (di * m + dj).astype(index)[:, None]
    col_indices = np.ascontiguousarray(cols.T)[mask]
    slots = np.tile(np.arange(len(di), dtype=np.int8), (m * m, 1))[mask]
    for array in (row_starts, col_indices, slots):
        array.flags.writeable = False
    return row_starts, col_indices, slots


def _stencil_matrix(m, offsets, values):
    """CSR matrix of a stencil on the pattern of :func:`_stencil_pattern`:
    row k of the (K, m^2) ``values`` holds offset k's value at each
    unknown. Exact zeros are left out."""
    row_starts, col_indices, slots = _stencil_pattern(m, offsets)
    di, dj = np.asarray(offsets).T
    # entry e of row r = col - (di m + dj)[slot] reads values[slot, r]
    shift = np.arange(len(offsets)) * (m * m) - (di * m + dj)
    values = values.ravel().take(col_indices + shift.take(slots))
    nonzero = values != 0
    if not nonzero.all():
        row_starts = np.concatenate(([0], np.cumsum(nonzero)))[row_starts]
        col_indices, values = col_indices[nonzero], values[nonzero]
    return _wrap_built(m * m, m * m, row_starts, col_indices, values)
