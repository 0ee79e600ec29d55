"""Extreme-eigenvalue bounds for symmetric positive definite operators."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

SPD_ERROR = "operator is not symmetric positive definite"


class NotSPDError(ValueError):
    """The operator is asymmetric, indefinite or singular to working
    precision: a property of the matrix, not of how it was asked for."""

    def __init__(self):
        super().__init__(SPD_ERROR)


@dataclass(frozen=True)
class SpectralBounds:
    lambda_max: float
    lambda_min: float
    method: str  # lanczos

    def __post_init__(self):
        if not self.lambda_max >= self.lambda_min:
            raise ValueError(f"lambda_max={self.lambda_max} < lambda_min={self.lambda_min}")


def _shifted_cholesky(csr, sign, sigma):
    """Lower banded Cholesky factor of sign * (A - sigma I) for the CSR
    matrix A, or NotSPDError if that matrix is not positive definite.
    The band, ab[i - j, j] = sign * A[i, j] in LAPACK's lower storage, is
    built in the Fortran order LAPACK factors in place, so the factor is
    the only band in memory."""
    coo = csr.tocoo()
    lower = coo.row >= coo.col
    rows, cols = coo.row[lower], coo.col[lower]
    band = np.zeros((int((rows - cols).max(initial=0)) + 1, csr.shape[0]),
                    order="F")
    band[rows - cols, cols] = sign * coo.data[lower]
    band[0] -= sign * sigma
    try:
        return scipy.linalg.cholesky_banded(band, overwrite_ab=True,
                                            lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError() from exc


def _nearest_eigenvalue(csr, sign, sigma, factor, v0):
    """The eigenvalue of A nearest sigma, by ARPACK Lanczos in
    shift-invert mode to machine precision, given the banded Cholesky
    factor of sign * (A - sigma I)."""
    def solve(x):
        # the factor came out of a successful Cholesky, so it is finite
        y = scipy.linalg.cho_solve_banded((factor, True), x,
                                          check_finite=False)
        return y if sign > 0 else np.negative(y, out=y)

    inverse = scipy.sparse.linalg.LinearOperator(csr.shape, dtype=float,
                                                 matvec=solve)
    return scipy.sparse.linalg.eigsh(csr, k=1, sigma=sigma, which="LM",
                                     OPinv=inverse, tol=0, v0=v0,
                                     return_eigenvectors=False)[0]


def _shift_above(csr, theta):
    """A shift sigma > lambda_max above the Ritz value theta, with the
    factor of sigma I - A whose success proves it. The gap starts at
    1e-3 theta and grows fourfold after each failed factorisation."""
    delta = 1e-3 * theta
    while True:
        try:
            return theta + delta, _shifted_cholesky(csr, -1.0, theta + delta)
        except NotSPDError:
            delta *= 4.0


def dense_spectral_bounds(A):
    """Extreme eigenvalues of a real symmetric positive definite matrix.

    Both come from ARPACK Lanczos in shift-invert mode through a banded
    Cholesky factor, run to machine precision (tol=0) from one fixed
    start vector, so repeated calls agree bit for bit, and no dense
    N x N array is formed:

    - lambda_min is the eigenvalue nearest sigma=0, through the factor
      of A, which is also the check that A is positive definite.
    - lambda_max: plain Lanczos on A to tol=1e-3 gives a top Ritz value
      theta, and sigma = theta + 1e-3 theta. A successful factorisation
      of sigma I - A proves sigma > lambda_max; on failure the gap above
      theta grows fourfold and sigma I - A is factored again. The
      eigenvalue nearest sigma is then lambda_max. On the clustered tops
      of the anisotropic spectra this takes a few dozen solves, where
      plain Lanczos to tol=0 takes hundreds to thousands of products.

    lambda_min is certified by a banded Cholesky factorisation of
    A - (1 - 1e-10) lambda_min I: if that fails, an eigenvalue lies
    below the one found. Each factor lives only as long as the call
    that uses it, so at most one is alive at a time. A matrix that is
    asymmetric, indefinite or singular to working precision raises
    NotSPDError (a ValueError); a complex one raises ValueError.

    The name predates the Lanczos method and is kept for its callers.
    """
    if A.is_complex:
        raise ValueError("spectral bounds require a real symmetric matrix")
    csr = A.to_scipy()
    N = A.nrows
    if A.ncols != N or abs(csr - csr.T).max() > 1e-12 * abs(csr).max():
        raise NotSPDError()
    if N == 1:  # ARPACK needs more unknowns than requested eigenvalues
        lo = hi = csr[0, 0]
    else:
        v0 = np.random.default_rng(0).standard_normal(N)
        lo = _nearest_eigenvalue(csr, 1.0, 0.0,
                                 _shifted_cholesky(csr, 1.0, 0.0), v0)
        theta = scipy.sparse.linalg.eigsh(csr, k=1, which="LA", tol=1e-3,
                                          v0=v0, return_eigenvectors=False)[0]
        hi = _nearest_eigenvalue(csr, -1.0, *_shift_above(csr, theta), v0)
    if not lo > np.finfo(float).eps * hi:
        raise NotSPDError()
    _shifted_cholesky(csr, 1.0, (1.0 - 1e-10) * lo)
    return SpectralBounds(lambda_max=float(hi), lambda_min=float(lo),
                          method="lanczos")
