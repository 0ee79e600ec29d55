import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from richlab.sparse import (DimensionMismatch, SparseMatrix, _Operator,
                            _product, read_matrix_market,
                            write_matrix_market)

from conftest import random_sparse


def tridiag(n, lo=-1.0, di=2.0, up=-1.0):
    return SparseMatrix.from_scipy(
        scipy.sparse.diags([lo, di, up], [-1, 0, 1], shape=(n, n)))


def test_identity_spmv():
    A = SparseMatrix.identity(3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(A.matvec(x), x)


def test_tridiag_hand_sum():
    A = tridiag(3)
    y = A.matvec(np.ones(3))
    assert np.array_equal(y, [1.0, 0.0, 1.0])


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = random_sparse(6, rng, density=0.4)
        x = rng.standard_normal(6)
        y = A.matvec(x)
        y_ref = A.to_dense() @ x
        assert np.linalg.norm(y - y_ref) <= 1e-14 * max(np.linalg.norm(y_ref), 1.0)


def test_dimension_mismatch_names_sizes():
    A = SparseMatrix.identity(3)
    with pytest.raises(DimensionMismatch, match="3"):
        A.matvec(np.ones(4))


def _solver_call(entry, A, good, bad):
    """Run the solver ``entry`` on A with the vector ``bad`` in the slot
    the entry's name ends in and ``good`` in the other."""
    from richlab.fgmres import fgmres
    from richlab.fns import (SpectralCorrection, fns_lite_step,
                             sine_basis_eigenvalues, solve_fns)
    from richlab.precond import Preconditioner
    from richlab.richardson import gershgorin_radius, solve_stationary
    from richlab.schedules import WeightSchedule

    s = WeightSchedule(omega=np.full(3, 1.0 / gershgorin_radius(A)))
    corr = SpectralCorrection(lambda_tilde=1.0 / sine_basis_eigenvalues(A, 16),
                              n=16)
    calls = {
        "solve_stationary-f": lambda: solve_stationary(A, bad, s),
        "solve_stationary-u0": lambda: solve_stationary(A, good, s, u0=bad),
        "solve_stationary_ssor-f": lambda: solve_stationary(
            A, bad, s, P=Preconditioner.ssor(A)),
        "fns_lite_step-f": lambda: fns_lite_step(A, bad, good, s, 2, corr),
        "fns_lite_step-u": lambda: fns_lite_step(A, good, bad, s, 2, corr),
        "solve_fns-f": lambda: solve_fns(A, bad, s, corr, M=2),
        "fgmres-f": lambda: fgmres(A, bad),
    }
    return calls[entry]()


@pytest.mark.parametrize("shape", ["one", "column", "short"])
@pytest.mark.parametrize("entry", [
    "solve_stationary-f", "solve_stationary-u0", "solve_stationary_ssor-f",
    "fns_lite_step-f", "fns_lite_step-u", "solve_fns-f", "fgmres-f"])
def test_solver_entries_refuse_a_misshapen_vector(entry, shape):
    """A length-1 vector would broadcast as a constant, an (N, 1) one
    fail inside numpy, a short one reach an unchecked kernel: each is a
    DimensionMismatch naming both lengths."""
    from richlab.problems import AnisotropicProblem, assemble_anisotropic

    A = assemble_anisotropic(AnisotropicProblem(1.0, 0.0, 16))
    N = A.ncols
    bad = np.ones({"one": (1,), "column": (N, 1), "short": (N - 3,)}[shape])
    name = entry.split("-")[1]
    with pytest.raises(DimensionMismatch,
                       match=rf"length {N}, but {name} has shape "
                             rf"\({bad.shape[0]},"):
        _solver_call(entry, A, np.ones(N), bad)


def test_duplicate_triplets_summed():
    A = SparseMatrix.from_scipy(scipy.sparse.coo_matrix(
        ([1.0, 2.0, 5.0], ([0, 0, 1], [0, 0, 1])), shape=(2, 2)))
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


def test_matrix_market_writes_exactly_the_path_given(tmp_path):
    # a name without the .mtx extension stays as it is, and reads back
    A = random_sparse(6, np.random.default_rng(4))
    path = tmp_path / "op"
    write_matrix_market(path, A)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op"]
    assert np.array_equal(read_matrix_market(path).to_dense(), A.to_dense())


@pytest.mark.parametrize("complex_values", [False, True])
def test_rmatvec_equals_scipy_transpose_product(complex_values):
    rng = np.random.default_rng(5)
    M = scipy.sparse.random(9, 7, density=0.4, random_state=6, format="csr")
    if complex_values:
        M = M + 1j * scipy.sparse.random(9, 7, density=0.4, random_state=7,
                                         format="csr")
    A = SparseMatrix.from_scipy(M)
    for _ in range(3):
        x = rng.standard_normal(9) + (1j * rng.standard_normal(9)
                                      if complex_values else 0.0)
        assert np.array_equal(A.rmatvec(x), A.to_scipy().T @ x)
    with pytest.raises(DimensionMismatch):
        A.rmatvec(np.ones(7))


def test_scipy_view_shares_the_index_arrays():
    # the stored index dtype is the one scipy keeps, so wrapping the
    # arrays in a csr_matrix copies none of them
    A = _aniso_blocks()[0]
    csr = A.to_scipy()
    assert np.shares_memory(csr.indices, A.col_indices)
    assert np.shares_memory(csr.indptr, A.row_starts)
    assert np.shares_memory(csr.data, A.values)


@given(nrows=st.integers(0, 9), ncols=st.integers(0, 9),
       density=st.floats(0.0, 1.0), is_complex=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diagonal_equals_scipys(nrows, ncols, density, is_complex, seed):
    # rectangular, complex, and with empty rows and missing diagonal
    # entries; the arrays are read without building the scipy view
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((nrows, ncols))
    if is_complex:
        M = M + 1j * rng.standard_normal((nrows, ncols))
    A = SparseMatrix.from_scipy(
        scipy.sparse.csr_matrix(M * (rng.random(M.shape) < density)))
    diag = A.diagonal()
    assert "_csr" not in A.__dict__
    want = A.to_scipy().diagonal()
    assert diag.shape == (min(nrows, ncols),)
    assert diag.dtype == want.dtype == A.dtype
    assert diag.tobytes() == want.tobytes()


# -- product kernels ------------------------------------------------------

def _kernel_format(A):
    """"dia" or "csr": the compiled kernel that binding A picks."""
    return _Operator(A).accumulate.func.__name__.split("_")[0]


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
        assert _kernel_format(A) == "dia"
    bound = _Operator(A)
    for _ in range(2):
        x, xt = _vector(rng, A.ncols, complex_x), _vector(rng, A.nrows, complex_x)
        for y in (A.matvec(x), bound.matvec(x)):
            assert np.array_equal(y, csr @ x) and y.dtype == (csr @ x).dtype
            # signed zeros too: DIA padding adds only +0 to a running sum
            assert np.array_equal(np.signbit(y.view(float)),
                                  np.signbit((csr @ x).view(float)))
        assert np.array_equal(A.rmatvec(xt), csr.T @ xt)


@given(data=st.data(), banded=st.booleans(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_input_matches_csr(data, banded, bad):
    A = data.draw(patterned_matrices(banded))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    csr = A.to_scipy()
    for n, product, ref in ((A.ncols, A.matvec, csr.dot),
                            (A.ncols, _Operator(A).matvec, csr.dot),
                            (A.nrows, A.rmatvec, csr.T.dot)):
        x = _vector(rng, n, A.is_complex)
        x[data.draw(st.integers(0, n - 1))] = bad
        y, expect = product(x), ref(x)
        finite = np.isfinite(expect)
        assert np.array_equal(np.isfinite(y), finite)
        assert np.array_equal(y[finite], expect[finite])
        # NaN and infinity positions and signs too: DIA keeps its result
        # only where no padding met the non-finite entry
        assert y.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_compiled_kernels_give_scipys_bytes(dtype):
    # the direct calls into scipy.sparse._sparsetools must run the
    # products that scipy's own dot runs: a bound operator's DIA kernel
    # (of a banded matrix) against scipy's DIA matrix, and its CSR kernel
    # (of a scattered one) and the CSR and CSC products against the CSR
    # matrix and its transpose; a change to those private signatures
    # fails here
    rng = np.random.default_rng(6)
    full = scipy.sparse.random(30, 20, density=1.0, random_state=3,
                               format="csr")
    scattered = scipy.sparse.random(30, 20, density=0.3, random_state=3,
                                    format="csr")
    banded = scipy.sparse.triu(scipy.sparse.tril(full, 2), -2)
    for M, kind in ((banded, "dia"), (scattered, "csr")):
        A = SparseMatrix.from_scipy(M.astype(dtype) * (
            1 + (0.5j if dtype is complex else 0)))
        assert _kernel_format(A) == kind
        csr = A.to_scipy()
        fast = csr.todia() if kind == "dia" else csr
        for x_dtype in (float, complex):
            for product, mat in ((_Operator(A).accumulate, fast),
                                 (_product(A), csr),
                                 (_product(A, transpose=True), csr.T)):
                x = rng.standard_normal(mat.shape[1]).astype(x_dtype)
                want = mat.dot(x)
                y = np.zeros(len(want), dtype=want.dtype)
                product(x, y)
                assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_each_non_finite_position_gives_csr_bytes(bad):
    # a grid stencil has padding only where a row meets a grid line, so
    # interior positions keep the DIA product and edge ones recompute it
    A = _aniso_blocks()[1]
    csr = A.to_scipy()
    op = _Operator(A)
    rng = np.random.default_rng(7)
    kept = 0
    for j in range(A.ncols):
        x = rng.standard_normal(A.ncols)
        x[j] = bad
        for product, ref in ((op.matvec, csr.dot), (A.matvec, csr.dot),
                             (A.rmatvec, csr.T.dot)):
            y = product(x)
            assert y.tobytes() == ref(x).tobytes()
        y = np.zeros(A.nrows)
        op.accumulate(x, y)
        kept += not np.isnan(y[op._padded]).any()
    assert 0 < kept < A.ncols   # both the DIA result and the CSR recompute


def test_kernel_choice_follows_the_pattern():
    from richlab.multigrid import build_hierarchy
    from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                                  assemble_anisotropic, assemble_helmholtz)
    from richlab.schedules import WeightSchedule

    aniso = assemble_anisotropic(AnisotropicProblem(1e-2, np.pi / 3, 16))
    assert _kernel_format(aniso) == "dia"
    h = build_hierarchy(assemble_helmholtz(HelmholtzProblem(
        angular_frequency=2 * np.pi * 1.5, n=32)), 32, coarsest=8,
        schedules=WeightSchedule(omega=[1e-4]))
    for level in h.levels:   # fine and Galerkin coarse operators
        assert _kernel_format(level.A) == "dia"
    for level in h.levels[:-1]:
        assert _kernel_format(level.R) == "csr"
    assert _kernel_format(random_sparse(30, np.random.default_rng(2),
                                        density=0.1)) == "csr"


def test_solves_leave_nothing_but_arrays_on_their_matrices():
    # each solver binds its operator for the call, so every matrix it
    # read keeps its CSR arrays and nothing else, but scipy's view where
    # that was asked for: no product kernel outlives a solve
    from richlab.data import sample_dataset
    from richlab.fgmres import FgmresConfig, fgmres
    from richlab.fns import (SpectralCorrection, sine_basis_eigenvalues,
                             solve_fns)
    from richlab.multigrid import helmholtz_hierarchy, v_cycle
    from richlab.problems import HelmholtzProblem, assemble_helmholtz
    from richlab.richardson import gershgorin_radius, solve_stationary
    from richlab.schedules import WeightSchedule
    from richlab.training import TrainConfig, train_ns

    A = _aniso_blocks()[1]
    f = np.random.default_rng(8).standard_normal(A.ncols)
    omega = np.full(3, 1.0 / gershgorin_radius(A))
    plain = WeightSchedule(omega=omega)
    nag = WeightSchedule(omega=omega, alpha=np.full(3, 0.3), variant="nag")
    forms = [solve_stationary(A, f, s, max_outer=3)[1].sweep_form
             for s in (plain, nag)]
    assert forms == ["horner", "recurrence"]
    corr = SpectralCorrection(lambda_tilde=1.0 / sine_basis_eigenvalues(A, 8),
                              n=8)
    assert solve_fns(A, f, plain, corr, M=2, tol=1e-2)[1].converged
    A.matvec(f), A.rmatvec(f)
    H = assemble_helmholtz(HelmholtzProblem(angular_frequency=2 * np.pi * 1.5,
                                            n=32))
    h = helmholtz_hierarchy(H, 32)
    fgmres(H, np.ones(H.ncols, dtype=complex), lambda r: v_cycle(h, r),
           FgmresConfig(restart=3, max_outer=1))
    ds = sample_dataset("anisotropic", 8, seed=17, n=8)
    train_ns(TrainConfig(m=2, unroll=6, n_epochs=1, batch_size=4, seed=0,
                         precond="ssor", hidden=(4, 4)), ds)
    matrices = [A, H, *(M for lvl in h.levels for M in (lvl.A, lvl.R)
                        if M is not None), *(s.A for s in ds)]
    arrays = {"nrows", "ncols", "row_starts", "col_indices", "values"}
    for M in matrices:
        assert set(vars(M)) - {"_csr"} == arrays


def _aniso_blocks():
    from richlab.problems import AnisotropicProblem, assemble_anisotropic

    return [assemble_anisotropic(AnisotropicProblem(eps, theta, 8))
            for eps, theta in ((1.0, 0.0), (1e-2, 0.5), (1e-4, 2.0))]


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
