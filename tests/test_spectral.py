import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from richlab import spectral
from richlab.problems import AnisotropicProblem, assemble_anisotropic
from richlab.sparse import SparseMatrix
from richlab.spectral import dense_spectral_bounds


def tridiag(n, diag=2.0):
    return SparseMatrix.from_scipy(
        scipy.sparse.diags([-1.0, diag, -1.0], [-1, 0, 1], shape=(n, n)))


def test_lambda_max_diagonal():
    A = SparseMatrix.from_scipy(scipy.sparse.diags([1.0, 2.0, 3.0]))
    b = dense_spectral_bounds(A)
    assert abs(b.lambda_max - 3.0) < 1e-12


def test_lambda_max_tridiag_closed_form():
    # 1D Dirichlet Laplacian eigenvalues are 2 - 2 cos(k pi / (n+1))
    A = tridiag(4)
    expect = 2.0 - 2.0 * np.cos(4 * np.pi / 5)
    b = dense_spectral_bounds(A)
    assert abs(b.lambda_max - expect) < 1e-12


def test_lambda_min_diagonal():
    A = SparseMatrix.from_scipy(scipy.sparse.diags([1.0, 2.0, 3.0]))
    b = dense_spectral_bounds(A)
    assert abs(b.lambda_min - 1.0) < 1e-12


def test_lambda_min_tridiag_closed_form():
    A = tridiag(4)
    expect = 2.0 - 2.0 * np.cos(np.pi / 5)
    b = dense_spectral_bounds(A)
    assert abs(b.lambda_min - expect) < 1e-12


def test_dense_oracle_bounds():
    A = tridiag(6)
    b = dense_spectral_bounds(A)
    lam = np.linalg.eigvalsh(A.to_dense())
    assert np.isclose(b.lambda_min, lam[0]) and np.isclose(b.lambda_max, lam[-1])
    assert b.method == "lanczos"


@settings(max_examples=30, deadline=None)
@given(log_eps=st.floats(-6.0, 0.0), theta=st.floats(0.0, np.pi),
       n=st.integers(2, 32))
def test_bounds_match_eigvalsh(log_eps, theta, n):
    A = assemble_anisotropic(
        AnisotropicProblem(epsilon=10.0 ** log_eps, theta=theta, n=n))
    lam = np.linalg.eigvalsh(A.to_dense())
    b = dense_spectral_bounds(A)
    assert abs(b.lambda_min - lam[0]) <= 1e-10 * lam[0]
    assert abs(b.lambda_max - lam[-1]) <= 1e-10 * lam[-1]


def test_one_by_one_system():
    A = assemble_anisotropic(AnisotropicProblem(epsilon=0.5, theta=0.3, n=2))
    assert A.shape == (1, 1)
    b = dense_spectral_bounds(A)
    assert b.lambda_min == b.lambda_max == A.to_dense()[0, 0]


def test_repeated_calls_bit_identical():
    A = assemble_anisotropic(
        AnisotropicProblem(epsilon=1e-3, theta=np.pi / 3, n=24))
    assert dense_spectral_bounds(A) == dense_spectral_bounds(A)


def test_no_dense_matrix_is_formed(monkeypatch):
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1e-2, theta=0.4, n=16))

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix formed")

    monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", refuse)
    dense_spectral_bounds(A)


def test_indefinite_matrix_raises():
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        dense_spectral_bounds(tridiag(8, diag=1.0))


def test_singular_matrix_raises():
    # Neumann 1D Laplacian: constant vectors span the null space
    L = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(8, 8)).tolil()
    L[0, 0] = L[7, 7] = 1.0
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        dense_spectral_bounds(SparseMatrix.from_scipy(L))


def test_asymmetric_matrix_raises():
    A = SparseMatrix.from_scipy(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        dense_spectral_bounds(A)


def test_complex_matrix_raises():
    A = SparseMatrix.from_scipy(scipy.sparse.diags([1.0 + 1j, 2.0]))
    with pytest.raises(ValueError, match="real symmetric"):
        dense_spectral_bounds(A)


def test_certificate_rejects_a_non_minimal_eigenvalue(monkeypatch):
    # shift-invert that lands on the second-smallest eigenvalue must not
    # pass for lambda_min
    A = tridiag(8)
    second = np.linalg.eigvalsh(A.to_dense())[1]
    eigsh = scipy.sparse.linalg.eigsh

    def wrong_shift_invert(*args, **kwargs):
        if kwargs.get("sigma") is not None:
            return np.array([second])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.scipy.sparse.linalg, "eigsh",
                        wrong_shift_invert)
    with pytest.raises(ValueError, match="not symmetric positive definite"):
        dense_spectral_bounds(A)


def _rotated(n):
    return assemble_anisotropic(
        AnisotropicProblem(epsilon=1e-2, theta=np.pi / 3, n=n))


def test_shift_grows_until_its_factorisation_succeeds(monkeypatch):
    # a top Ritz value at half of lambda_max puts the first shift below
    # it, so sigma I - A fails to factor and the gap must grow
    A = _rotated(12)
    lam = np.linalg.eigvalsh(A.to_dense())
    eigsh = scipy.sparse.linalg.eigsh

    def low_ritz_value(*args, **kwargs):
        if kwargs.get("sigma") is None:
            return np.array([lam[-1] / 2])
        return eigsh(*args, **kwargs)

    shifted_cholesky = spectral._shifted_cholesky
    outcomes = []

    def recorded(csr, sign, sigma):
        try:
            factor = shifted_cholesky(csr, sign, sigma)
        except spectral.NotSPDError:
            outcomes.append((sign, False))
            raise
        outcomes.append((sign, True))
        return factor

    monkeypatch.setattr(spectral.scipy.sparse.linalg, "eigsh", low_ritz_value)
    monkeypatch.setattr(spectral, "_shifted_cholesky", recorded)
    b = dense_spectral_bounds(A)
    above = [ok for sign, ok in outcomes if sign < 0]
    assert above[0] is False and above[-1] is True and not any(above[:-1])
    assert abs(b.lambda_min - lam[0]) <= 1e-10 * lam[0]
    assert abs(b.lambda_max - lam[-1]) <= 1e-10 * lam[-1]
    assert dense_spectral_bounds(A) == b


def test_lambda_max_takes_few_plain_products(monkeypatch):
    # plain Lanczos to tol=0 needs hundreds of products at n=32; the
    # loose top Ritz value needs a few dozen, and shift-invert as many
    # solves
    A = _rotated(32)
    eigsh = scipy.sparse.linalg.eigsh
    counts = {"products": 0, "solves": 0}

    def counted(op, key):
        def matvec(x):
            counts[key] += 1
            return op.matvec(x)
        return scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec,
                                                  dtype=float)

    def counting_eigsh(A, *args, **kwargs):
        if kwargs.get("sigma") is None:
            A = counted(scipy.sparse.linalg.aslinearoperator(A), "products")
        else:
            kwargs["OPinv"] = counted(kwargs["OPinv"], "solves")
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spectral.scipy.sparse.linalg, "eigsh", counting_eigsh)
    dense_spectral_bounds(A)
    assert 0 < counts["products"] <= 100
    assert 0 < counts["solves"] <= 150
