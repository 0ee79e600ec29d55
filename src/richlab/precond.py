"""Stationary-method preconditioners expressed as residual maps B^{-1} r.

With the omega=1 convention, weighted Jacobi, Gauss-Seidel, SOR and
SSOR correspond to

    alpha D^{-1},
    (D - L)^{-1},
    alpha (D - alpha L)^{-1},
    alpha (2 - alpha) (D - alpha U)^{-1} D (D - alpha L)^{-1},

where D is the diagonal and -L / -U the strict lower / upper parts of A.
Triangular solves use the fixed lexicographic unknown ordering. Each
triangle is factored once, and B^{-T} solves with the transposes of the
same factors.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse

from .sparse import lu_solver


class ZeroDiagonalError(ValueError):
    def __init__(self, row):
        super().__init__(f"zero diagonal entry in row {row}")
        self.row = row


def _check_diagonal(diag):
    zero = np.nonzero(diag == 0)[0]
    if len(zero):
        raise ZeroDiagonalError(int(zero[0]))


def _relaxed_diagonal(A, relax, method):
    """diag(A), after checking the relaxation and the diagonal."""
    if not 0.0 < relax < 2.0:
        raise ValueError(f"{method} relaxation must be in (0, 2), got {relax}")
    diag = A.diagonal()
    _check_diagonal(diag)
    return diag


def _triangle(A, relax, lower):
    """Solver ``solve(r, trans)`` for D + relax * (the strict lower or
    upper triangle of A) from A's CSR arrays: each row keeps its diagonal
    and, in column order, its relaxed entries on one side; like a scipy
    sum, it drops those the relaxation rounds to zero. A no-pivot natural
    order LU of a triangle is the triangle: SuperLU just substitutes."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_starts))
    cols = A.col_indices
    values = np.where(cols == rows, A.values, relax * A.values)
    keep = (cols <= rows) if lower else (cols >= rows)
    keep &= values != 0
    starts = np.concatenate(([0], np.cumsum(keep)))[A.row_starts]
    return lu_solver(scipy.sparse.csr_matrix(
        (values[keep], cols[keep], starts), shape=A.shape),
        permc_spec="NATURAL", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True})


class Preconditioner:
    """Linear map r -> B^{-1} r with cached splitting factors of A."""

    def __init__(self, apply_fn, apply_transpose_fn):
        self._apply = apply_fn
        self._apply_t = apply_transpose_fn

    def apply(self, r):
        return self._apply(np.asarray(r))

    def apply_transpose(self, r):
        """Action of B^{-T} (not conjugated): the adjoint of ``apply``,
        for differentiating through a preconditioned iteration."""
        return self._apply_t(np.asarray(r))

    @classmethod
    def weighted_jacobi(cls, A, relax=2.0 / 3.0):
        diag = A.diagonal()
        _check_diagonal(diag)
        scale = relax / diag
        fn = lambda r: scale * r
        return cls(fn, fn)

    @classmethod
    def gauss_seidel(cls, A):
        return cls.sor(A, 1.0)

    @classmethod
    def sor(cls, A, relax):
        _relaxed_diagonal(A, relax, "SOR")
        dl = _triangle(A, relax, lower=True)
        return cls(lambda r: relax * dl(r), lambda r: relax * dl(r, "T"))

    @classmethod
    def ssor(cls, A, relax=1.0):
        diag = _relaxed_diagonal(A, relax, "SSOR")
        dl = _triangle(A, relax, lower=True)
        du = _triangle(A, relax, lower=False)
        c = relax * (2.0 - relax)
        return cls(lambda r: c * du(diag * dl(r)),
                   lambda r: c * dl(diag * du(r, "T"), "T"))

