"""Orthonormal 2D discrete sine transform on interior grids.

Vectors live on the (N-1) x (N-1) interior of an N x N uniform grid with
homogeneous Dirichlet boundaries and are stored in lexicographic
(row-major) order; a (B, N) stack holds one such vector per row. The
type-I DST with orthonormal scaling is symmetric and involutory, so
forward and inverse transforms coincide.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.fft


def interior_side(length):
    """Side n-1 of the interior grid for a flat vector, or raise."""
    side = math.isqrt(length)
    if side * side != length:
        raise ValueError(f"vector length {length} is not a perfect square")
    return side


def dst2(x):
    """Orthonormal 2D DST-I of a flattened interior grid vector, or of
    each row of a stack of them (the transform runs along the last
    axis; row b equals the transform of x[b] bit for bit)."""
    x = np.asarray(x)
    side = interior_side(x.shape[-1])
    grid = x.reshape(x.shape[:-1] + (side, side))
    out = scipy.fft.dstn(grid, type=1, norm="ortho", axes=(-2, -1))
    return out.reshape(x.shape)


def dst2_inv(x):
    """Inverse of :func:`dst2` (the transform is involutory)."""
    return dst2(x)

