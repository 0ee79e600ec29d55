import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from richlab.sparse import (DimensionMismatch, SparseMatrix, block_diagonal,
                            read_matrix_market, spmv, write_matrix_market)

from conftest import random_sparse


def tridiag(n, lo=-1.0, di=2.0, up=-1.0):
    return SparseMatrix.from_scipy(
        scipy.sparse.diags([lo, di, up], [-1, 0, 1], shape=(n, n)))


def test_identity_spmv():
    A = SparseMatrix.identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(spmv(A, x), x)


def test_tridiag_hand_sum():
    A = tridiag(3)
    y = spmv(A, np.ones(3))
    assert np.array_equal(y, [1.0, 0.0, 1.0])


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = random_sparse(6, rng, density=0.4)
        x = rng.standard_normal(6)
        y = spmv(A, x)
        y_ref = A.to_dense() @ x
        assert np.linalg.norm(y - y_ref) <= 1e-14 * max(np.linalg.norm(y_ref), 1.0)


def test_dimension_mismatch_names_sizes():
    A = SparseMatrix.identity(3)
    with pytest.raises(DimensionMismatch, match="3"):
        A.matvec(np.ones(4))


def test_duplicate_triplets_summed():
    A = SparseMatrix.from_triplets(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert A.nnz == 2
    assert A.to_dense()[0, 0] == 3.0


def test_invariants_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])  # bad row_starts length
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 2.0])  # cols not increasing
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, [0, 1], [3], [1.0])  # col out of range


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    A = random_sparse(5, rng)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A)
    banner = path.read_text().splitlines()[0]
    assert banner.startswith("%%MatrixMarket matrix coordinate real general")
    B = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), B.to_dense())


def test_matrix_market_complex(tmp_path):
    A = SparseMatrix.from_scipy(scipy.sparse.diags([1 + 2j, 3.0]))
    path = tmp_path / "c.mtx"
    write_matrix_market(path, A)
    assert "complex" in path.read_text().splitlines()[0]
    B = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), B.to_dense())


@pytest.mark.parametrize("complex_values", [False, True])
def test_rmatvec_equals_scipy_transpose_product(complex_values):
    rng = np.random.default_rng(5)
    M = scipy.sparse.random(9, 7, density=0.4, random_state=6, format="csr")
    if complex_values:
        M = M + 1j * scipy.sparse.random(9, 7, density=0.4, random_state=7,
                                         format="csr")
    A = SparseMatrix.from_scipy(M)
    for _ in range(3):   # the cached transpose serves every call alike
        x = rng.standard_normal(9) + (1j * rng.standard_normal(9)
                                      if complex_values else 0.0)
        assert np.array_equal(A.rmatvec(x), A.to_scipy().T @ x)
    with pytest.raises(DimensionMismatch):
        A.rmatvec(np.ones(7))


def test_block_diagonal_rows_match_their_blocks_exactly():
    rng = np.random.default_rng(8)
    blocks = [random_sparse(n, rng) for n in (5, 3, 6)]
    D = block_diagonal(blocks)
    assert D.shape == (14, 14) and D.nnz == sum(b.nnz for b in blocks)
    assert np.array_equal(D.to_dense(), scipy.linalg.block_diag(
        *(b.to_dense() for b in blocks)))
    xs = [rng.standard_normal(b.ncols) for b in blocks]
    y, yt = D.matvec(np.concatenate(xs)), D.rmatvec(np.concatenate(xs))
    pos = 0
    for b, x in zip(blocks, xs):
        assert np.array_equal(y[pos:pos + b.nrows], b.matvec(x))
        assert np.array_equal(yt[pos:pos + b.nrows], b.rmatvec(x))
        pos += b.nrows
    assert block_diagonal(blocks[:1]) is blocks[0]
