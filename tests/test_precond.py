import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from richlab.precond import Preconditioner, ZeroDiagonalError
from richlab.sparse import SparseMatrix

from conftest import random_spd, random_sparse


def split(A_dense):
    D = np.diag(np.diag(A_dense))
    L = -np.tril(A_dense, k=-1)
    U = -np.triu(A_dense, k=1)
    return D, L, U


def test_weighted_jacobi_entrywise(rng):
    A = random_sparse(6, rng)
    P = Preconditioner.weighted_jacobi(A, relax=0.8)
    r = rng.standard_normal(6)
    assert np.allclose(P.apply(r), 0.8 * r / A.diagonal(), atol=0, rtol=1e-15)


def test_gauss_seidel_dense_oracle(rng):
    A = random_spd(6, rng)
    D, L, U = split(A.to_dense())
    P = Preconditioner.gauss_seidel(A)
    r = rng.standard_normal(6)
    ref = np.linalg.solve(D - L, r)
    assert np.linalg.norm(P.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_sor_dense_oracle(rng):
    A = random_spd(6, rng)
    a = 1.4
    D, L, U = split(A.to_dense())
    P = Preconditioner.sor(A, relax=a)
    r = rng.standard_normal(6)
    ref = a * np.linalg.solve(D - a * L, r)
    assert np.linalg.norm(P.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("relax", [1.0, 1.3])
def test_ssor_dense_oracle(rng, relax):
    A = random_spd(6, rng)
    a = relax
    D, L, U = split(A.to_dense())
    Binv = a * (2 - a) * np.linalg.solve(D - a * U, D @ np.linalg.solve(D - a * L, np.eye(6)))
    P = Preconditioner.ssor(A, relax=a)
    r = rng.standard_normal(6)
    ref = Binv @ r
    assert np.linalg.norm(P.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_ssor_symmetric_for_symmetric_matrix(rng):
    A = random_spd(6, rng)
    P = Preconditioner.ssor(A, relax=1.2)
    B = np.column_stack([P.apply(e) for e in np.eye(6)])
    assert np.allclose(B, B.T, atol=1e-12)


def test_apply_transpose_matches_dense_transpose(rng):
    nonsym = random_sparse(6, rng)
    spd = random_spd(6, rng)
    # complex symmetric: B^{-T} is the plain transpose, not the adjoint
    csym = SparseMatrix.from_scipy(
        spd.to_scipy() + 0.2j * scipy.sparse.diags(spd.diagonal()))
    for A in (nonsym, spd, csym):
        for P in (Preconditioner.sor(A, 1.2), Preconditioner.ssor(A, 0.9),
                  Preconditioner.gauss_seidel(A)):
            B = np.column_stack([P.apply(e) for e in np.eye(6)])
            Bt = np.column_stack([P.apply_transpose(e) for e in np.eye(6)])
            assert np.allclose(Bt, B.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("build,factors", [
    (lambda A: Preconditioner.ssor(A, 1.1), 2),
    (lambda A: Preconditioner.sor(A, 1.1), 1),
    (Preconditioner.gauss_seidel, 1)], ids=["ssor", "sor", "gauss_seidel"])
def test_each_triangle_is_factored_once(rng, monkeypatch, build, factors):
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    P = build(random_sparse(6, rng))
    r = rng.standard_normal(6)
    P.apply(r)
    P.apply_transpose(r)
    assert len(calls) == factors


def test_complex_residual_on_real_factors(rng):
    A = random_sparse(6, rng)  # real, non-symmetric
    r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for P in (Preconditioner.sor(A, 1.2), Preconditioner.ssor(A, 0.9),
              Preconditioner.gauss_seidel(A)):
        for apply in (P.apply, P.apply_transpose):
            z = apply(r)
            assert z.dtype == np.complex128
            assert np.array_equal(z.real, apply(r.real))
            assert np.array_equal(z.imag, apply(r.imag))


def test_zero_diagonal_names_row():
    A = SparseMatrix.from_scipy(np.array([[1.0, 2.0], [3.0, 0.0]]))
    with pytest.raises(ZeroDiagonalError, match="row 1"):
        Preconditioner.weighted_jacobi(A)


def test_relaxation_bounds(rng):
    A = random_spd(4, rng)
    with pytest.raises(ValueError):
        Preconditioner.sor(A, relax=2.0)
    with pytest.raises(ValueError):
        Preconditioner.ssor(A, relax=0.0)
