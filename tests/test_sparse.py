import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("complex_block", [False, True])
def test_block_diagonal_arrays_pass_validation_unchanged(complex_block):
    # block_diagonal skips the constructor's checks; the validated build
    # of the same arrays must accept them and keep them as they are
    rng = np.random.default_rng(9)
    blocks = [random_sparse(n, rng) for n in (4, 1, 7)] + _aniso_blocks()
    if complex_block:
        blocks[1] = SparseMatrix.from_scipy(blocks[1].to_scipy() * (1 + 2j))
    D = block_diagonal(blocks)
    checked = SparseMatrix(D.nrows, D.ncols, D.row_starts, D.col_indices,
                           D.values)
    for name in ("row_starts", "col_indices", "values"):
        got, want = getattr(D, name), getattr(checked, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype
    assert D.shape == checked.shape and D.dtype == checked.dtype
    assert (D.to_scipy() != checked.to_scipy()).nnz == 0


# -- product kernels ------------------------------------------------------

def _kernel_format(A, transpose=False):
    return A._kernel(transpose)[0].format


@st.composite
def patterned_matrices(draw, banded):
    """Banded matrices (a few nearly full diagonals: the DIA kernel) or
    scattered ones (the CSR kernel), real or complex, any shape."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.standard_normal((nrows, ncols))
    if is_complex:
        M = M + 1j * rng.standard_normal((nrows, ncols))
    offset = np.arange(ncols)[None, :] - np.arange(nrows)[:, None]
    if banded:
        # up to two full-length diagonals and a half-full extra one
        lo, hi = min(0, ncols - nrows), max(0, ncols - nrows)
        full = rng.choice(np.arange(lo, hi + 1), size=min(2, hi - lo + 1),
                          replace=False)
        extra = rng.integers(-nrows + 1, ncols)
        keep = np.isin(offset, full) | (
            (offset == extra) & (rng.random(M.shape) < 0.5))
    else:
        keep = rng.random(M.shape) < 0.15
        keep[0, 0] = True
    return SparseMatrix.from_scipy(scipy.sparse.csr_matrix(M * keep))


def _vector(rng, n, is_complex):
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if is_complex else x


@given(data=st.data(), banded=st.booleans(), complex_x=st.booleans())
def test_products_equal_csr_bit_for_bit(data, banded, complex_x):
    A = data.draw(patterned_matrices(banded))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    csr = A.to_scipy()
    if banded:
        assert _kernel_format(A) == _kernel_format(A, True) == "dia"
    for _ in range(2):
        x, xt = _vector(rng, A.ncols, complex_x), _vector(rng, A.nrows, complex_x)
        y, yt = A.matvec(x), A.rmatvec(xt)
        assert np.array_equal(y, csr @ x) and y.dtype == (csr @ x).dtype
        assert np.array_equal(yt, csr.T @ xt)
        # signed zeros too: DIA padding adds only +0 to a running sum
        assert np.array_equal(np.signbit(y.view(float)),
                              np.signbit((csr @ x).view(float)))


@given(data=st.data(), banded=st.booleans(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_input_matches_csr(data, banded, bad):
    A = data.draw(patterned_matrices(banded))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    csr = A.to_scipy()
    for n, product, ref in ((A.ncols, A.matvec, csr.dot),
                            (A.nrows, A.rmatvec, csr.T.dot)):
        x = _vector(rng, n, A.is_complex)
        x[data.draw(st.integers(0, n - 1))] = bad
        y, expect = product(x), ref(x)
        finite = np.isfinite(expect)
        assert np.array_equal(np.isfinite(y), finite)
        assert np.array_equal(y[finite], expect[finite])


def test_kernel_choice_follows_the_pattern():
    from richlab.multigrid import build_hierarchy
    from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                                  assemble_anisotropic, assemble_helmholtz)

    aniso = assemble_anisotropic(AnisotropicProblem(1e-2, np.pi / 3, 16))
    assert _kernel_format(aniso) == _kernel_format(aniso, True) == "dia"
    h = build_hierarchy(assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * 1.5, n=32)), 32, coarsest=8)
    for level in h.levels:   # fine and Galerkin coarse operators
        assert _kernel_format(level.A) == "dia"
    for level in h.levels[:-1]:
        assert _kernel_format(level.R) == _kernel_format(level.P) == "csr"
    assert _kernel_format(random_sparse(30, np.random.default_rng(2),
                                        density=0.1)) == "csr"


def _aniso_blocks():
    from richlab.problems import AnisotropicProblem, assemble_anisotropic

    return [assemble_anisotropic(AnisotropicProblem(eps, theta, 8))
            for eps, theta in ((1.0, 0.0), (1e-2, 0.5), (1e-4, 2.0))]


def test_block_diagonal_takes_the_dia_kernel_both_ways():
    D = block_diagonal(_aniso_blocks())
    for transpose, dense in ((False, D.to_dense()), (True, D.to_dense().T)):
        kernel = D._kernel(transpose)[0]
        assert kernel.format == "dia" and np.all(np.diff(kernel.offsets) > 0)
        assert np.array_equal(kernel.toarray(), dense)


def test_nan_in_one_block_stays_in_its_rows():
    blocks = _aniso_blocks()
    D = block_diagonal(blocks)
    rng = np.random.default_rng(4)
    for product in (D.matvec, D.rmatvec):
        x = rng.standard_normal(D.ncols)
        x[2 * 49 + 20] = np.nan   # block 2 holds the NaN
        y = product(x)
        assert np.all(np.isfinite(y[:2 * 49]))
        assert np.array_equal(np.isfinite(y), np.isfinite(
            (D.to_scipy() if product == D.matvec else D.to_scipy().T) @ x))


# -- validation -------------------------------------------------------------

@st.composite
def valid_csr_arrays(draw):
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = rng.standard_normal((nrows, ncols)) * (rng.random((nrows, ncols)) < 0.6)
    dense[draw(st.integers(0, nrows - 1)), :2] = 1.0   # a row with two entries
    csr = scipy.sparse.csr_matrix(dense)
    return nrows, ncols, csr.indptr.copy(), csr.indices.copy(), csr.data.copy()


@given(arrays=valid_csr_arrays(), data=st.data())
def test_malformed_row_starts_rejected(arrays, data):
    nrows, ncols, starts, cols, vals = arrays
    SparseMatrix(nrows, ncols, starts, cols, vals)
    faults = ["length", "first", "last"] + (["order"] if nrows >= 2 else [])
    fault = data.draw(st.sampled_from(faults))
    starts = starts.copy()
    if fault == "length":
        starts = np.append(starts, starts[-1])
    elif fault == "first":
        starts[0] = data.draw(st.sampled_from([-1, 1]))
    elif fault == "last":
        starts[-1] += data.draw(st.sampled_from([-1, 1]))
    else:   # a decreasing step with both endpoints kept
        starts[1] = len(vals) + 1
    with pytest.raises(ValueError, match="row_starts"):
        SparseMatrix(nrows, ncols, starts, cols, vals)


@given(arrays=valid_csr_arrays(), data=st.data())
def test_out_of_range_column_rejected(arrays, data):
    nrows, ncols, starts, cols, vals = arrays
    cols = cols.copy()
    cols[data.draw(st.integers(0, len(cols) - 1))] = data.draw(
        st.sampled_from([-1, ncols, ncols + 5]))
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMatrix(nrows, ncols, starts, cols, vals)


@given(arrays=valid_csr_arrays(), data=st.data())
def test_unsorted_or_repeated_columns_rejected(arrays, data):
    nrows, ncols, starts, cols, vals = arrays
    rows = [r for r in range(nrows) if starts[r + 1] - starts[r] >= 2]
    r = data.draw(st.sampled_from(rows))
    k = data.draw(st.integers(int(starts[r]), int(starts[r + 1]) - 2))
    cols = cols.copy()
    if data.draw(st.booleans()):
        cols[k], cols[k + 1] = cols[k + 1], cols[k]   # swapped pair
    else:
        cols[k + 1] = cols[k]                          # repeated column
    with pytest.raises(ValueError, match="not strictly increasing"):
        SparseMatrix(nrows, ncols, starts, cols, vals)
