"""Extreme-eigenvalue bounds for symmetric positive definite operators."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

SPD_ERROR = "operator is not symmetric positive definite"


@dataclass(frozen=True)
class SpectralBounds:
    lambda_max: float
    lambda_min: float
    method: str  # lanczos

    def __post_init__(self):
        if not self.lambda_max >= self.lambda_min:
            raise ValueError(f"lambda_max={self.lambda_max} < lambda_min={self.lambda_min}")


def _lower_banded(csr):
    """LAPACK lower band storage ab[i - j, j] = A[i, j] of a CSR matrix."""
    coo = csr.tocoo()
    lower = coo.row >= coo.col
    rows, cols = coo.row[lower], coo.col[lower]
    ab = np.zeros((int((rows - cols).max(initial=0)) + 1, csr.shape[0]))
    ab[rows - cols, cols] = coo.data[lower]
    return ab


def _banded_cholesky(ab):
    """Lower banded Cholesky factor, or ValueError if ab is not SPD."""
    try:
        return scipy.linalg.cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(SPD_ERROR) from exc


def dense_spectral_bounds(A):
    """Extreme eigenvalues of a real symmetric positive definite matrix.

    lambda_max comes from ARPACK Lanczos on A, and lambda_min from
    Lanczos in shift-invert mode at sigma=0 through a banded Cholesky
    factor of A. Both run to machine precision (tol=0) from a fixed
    start vector, so repeated calls agree bit for bit, and no dense
    N x N array is formed. lambda_min is certified by a banded Cholesky
    factorisation of A - (1 - 1e-10) lambda_min I: if that fails, an
    eigenvalue lies below the one found. A matrix that is asymmetric,
    indefinite or singular to working precision raises ValueError.

    The name predates the Lanczos method and is kept for its callers.
    """
    if A.is_complex:
        raise ValueError("spectral bounds require a real symmetric matrix")
    csr = A.to_scipy()
    N = A.nrows
    if A.ncols != N or abs(csr - csr.T).max() > 1e-12 * abs(csr).max():
        raise ValueError(SPD_ERROR)
    ab = _lower_banded(csr)
    factor = _banded_cholesky(ab)
    if N == 1:  # ARPACK needs more unknowns than requested eigenvalues
        lo = hi = ab[0, 0]
    else:
        v0 = np.random.default_rng(0).standard_normal(N)
        hi = scipy.sparse.linalg.eigsh(csr, k=1, which="LA", tol=0, v0=v0,
                                       return_eigenvectors=False)[0]
        inverse = scipy.sparse.linalg.LinearOperator(
            (N, N), dtype=float,
            matvec=lambda x: scipy.linalg.cho_solve_banded((factor, True), x))
        lo = scipy.sparse.linalg.eigsh(csr, k=1, sigma=0.0, which="LM",
                                       OPinv=inverse, tol=0, v0=v0,
                                       return_eigenvectors=False)[0]
    if not lo > np.finfo(float).eps * hi:
        raise ValueError(SPD_ERROR)
    ab[0] -= (1.0 - 1e-10) * lo
    _banded_cholesky(ab)
    return SpectralBounds(lambda_max=float(hi), lambda_min=float(lo),
                          method="lanczos")
