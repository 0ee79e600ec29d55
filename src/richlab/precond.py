"""Stationary-method preconditioners expressed as residual maps B^{-1} r.

With the omega=1 convention, weighted Jacobi, Gauss-Seidel, SOR and
SSOR correspond to

    alpha D^{-1},
    (D - L)^{-1},
    alpha (D - alpha L)^{-1},
    alpha (2 - alpha) (D - alpha U)^{-1} D (D - alpha L)^{-1},

where D is the diagonal and -L / -U the strict lower / upper parts of A.
Triangular solves use the fixed lexicographic unknown ordering.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class ZeroDiagonalError(ValueError):
    def __init__(self, row):
        super().__init__(f"zero diagonal entry in row {row}")
        self.row = row


def _check_diagonal(diag):
    zero = np.nonzero(diag == 0)[0]
    if len(zero):
        raise ZeroDiagonalError(int(zero[0]))


def _tri_factor(T):
    """Cached solver for a triangular sparse matrix.

    A no-pivot natural-order LU of a triangular matrix is the matrix
    itself, so this is just a fast C-level substitution routine. SuperLU
    will not solve real factors for a complex right-hand side, so such a
    side is solved as its real and imaginary parts.
    """
    lu = scipy.sparse.linalg.splu(T.tocsc(), permc_spec="NATURAL",
                                  diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    if np.iscomplexobj(T.data):
        return lu.solve

    def solve(r):
        if not np.iscomplexobj(r):
            return lu.solve(r)
        x = np.empty_like(r)
        x.real = lu.solve(r.real)
        x.imag = lu.solve(r.imag)
        return x

    return solve


class Preconditioner:
    """Linear map r -> B^{-1} r with cached splitting factors of A."""

    def __init__(self, kind, apply_fn, apply_transpose_fn, relax=None):
        self.kind = kind
        self.relax = relax
        self._apply = apply_fn
        self._apply_t = apply_transpose_fn

    def apply(self, r):
        return self._apply(np.asarray(r))

    def apply_transpose(self, r):
        """Action of B^{-T}, needed by reverse-mode differentiation."""
        return self._apply_t(np.asarray(r))

    def __call__(self, r):
        return self.apply(r)

    @classmethod
    def identity(cls):
        ident = lambda r: r
        return cls("identity", ident, ident)

    @classmethod
    def weighted_jacobi(cls, A, relax=2.0 / 3.0):
        diag = A.diagonal()
        _check_diagonal(diag)
        scale = relax / diag
        fn = lambda r: scale * r
        return cls("weighted-jacobi", fn, fn, relax=relax)

    @classmethod
    def gauss_seidel(cls, A):
        p = cls.sor(A, relax=1.0)
        p.kind = "gauss-seidel"
        p.relax = None
        return p

    @classmethod
    def sor(cls, A, relax):
        if not 0.0 < relax < 2.0:
            raise ValueError(f"SOR relaxation must be in (0, 2), got {relax}")
        diag = A.diagonal()
        _check_diagonal(diag)
        csr = A.to_scipy()
        DL = (scipy.sparse.diags(diag) + relax * scipy.sparse.tril(csr, k=-1)).tocsr()
        solve, solve_t = _tri_factor(DL), _tri_factor(DL.T.tocsr())
        fn = lambda r: relax * solve(r)
        fn_t = lambda r: relax * solve_t(r)
        return cls("sor", fn, fn_t, relax=relax)

    @classmethod
    def ssor(cls, A, relax=1.0):
        if not 0.0 < relax < 2.0:
            raise ValueError(f"SSOR relaxation must be in (0, 2), got {relax}")
        diag = A.diagonal()
        _check_diagonal(diag)
        csr = A.to_scipy()
        DL = (scipy.sparse.diags(diag) + relax * scipy.sparse.tril(csr, k=-1)).tocsr()
        DU = (scipy.sparse.diags(diag) + relax * scipy.sparse.triu(csr, k=1)).tocsr()
        dl, du = _tri_factor(DL), _tri_factor(DU)
        dlt, dut = _tri_factor(DL.T.tocsr()), _tri_factor(DU.T.tocsr())
        c = relax * (2.0 - relax)

        def fn(r):
            return c * du(diag * dl(r))

        def fn_t(r):
            return c * dlt(diag * dut(r))

        return cls("ssor", fn, fn_t, relax=relax)


def apply_preconditioner(P, r):
    """B^{-1} r for a built preconditioner (identity when P is None)."""
    if P is None:
        return np.asarray(r)
    return P.apply(r)
