"""Compressed sparse row matrices over a real or complex scalar field.

CSR is the storage, and a matrix keeps nothing but its arrays (and
their scipy view, once asked for). ``matvec`` and ``rmatvec`` bind the
CSR product on each call; a solver binds one ``_Operator``, whose
kernel the sparsity pattern picks: diagonal storage (DIA) when the
occupied diagonals are at least half full, else CSR. With its offsets
ascending, DIA adds each row's products in CSR's column order, so for
finite operands both give the same bits. Every product calls scipy's
compiled kernel (``scipy.sparse._sparsetools``, the routine behind
``dot``). ``_Operator.matvec`` recomputes by CSR where a row that holds
DIA padding reads NaN; ``_Operator.accumulate`` leaves that to its caller.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.io
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse import _sparsetools


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class SparseMatrix:
    """Immutable CSR matrix.

    Rows are stored with strictly increasing column indices and no
    explicit zeros. The constructor and :meth:`from_scipy` validate
    matrices from outside the library (:meth:`from_scipy` first sums
    duplicate entries and drops zeros); matrices the library builds
    itself are wrapped as built (:func:`_wrap_built`).
    """

    def __init__(self, nrows, ncols, row_starts, col_indices, values):
        row_starts = np.asarray(row_starts, dtype=np.int64)
        col_indices = np.asarray(col_indices, dtype=np.int64)
        values = np.asarray(values)
        if values.dtype not in (np.float64, np.complex128):
            values = values.astype(np.float64)
        if row_starts.shape != (nrows + 1,):
            raise ValueError(f"row_starts must have length nrows+1={nrows + 1}, got {row_starts.shape}")
        if row_starts[0] != 0 or row_starts[-1] != len(values):
            raise ValueError("row_starts must start at 0 and end at len(values)")
        if np.any(np.diff(row_starts) < 0):
            raise ValueError("row_starts must be non-decreasing")
        if len(col_indices) != len(values):
            raise ValueError("col_indices and values must have equal length")
        if len(col_indices) and (col_indices.min() < 0 or col_indices.max() >= ncols):
            raise ValueError("column index out of range")
        if len(col_indices) > 1:
            # strictly increasing within each row; decreases allowed only
            # at row boundaries
            drops = np.nonzero(np.diff(col_indices) <= 0)[0] + 1
            if not np.all(np.isin(drops, row_starts)):
                raise ValueError("columns within a row are not strictly increasing")
        # checked as int64, so that no index wrapped on the way in
        index = _index_dtype(nrows, ncols, len(values))
        self._adopt(nrows, ncols, row_starts.astype(index, copy=False),
                    col_indices.astype(index, copy=False), values)

    def _adopt(self, nrows, ncols, row_starts, col_indices, values):
        self.nrows = nrows
        self.ncols = ncols
        self.row_starts = row_starts
        self.col_indices = col_indices
        self.values = values

    @functools.cached_property
    def _csr(self):
        """The scipy CSR view of A's arrays, built on first use."""
        return scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_starts), shape=self.shape)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def nnz(self):
        return len(self.values)

    @property
    def is_complex(self):
        return np.iscomplexobj(self.values)

    @classmethod
    def from_scipy(cls, mat):
        csr = scipy.sparse.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        csr.eliminate_zeros()
        return cls(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data)

    @classmethod
    def identity(cls, n, dtype=np.float64):
        return cls.from_scipy(scipy.sparse.identity(n, dtype=dtype, format="csr"))

    def to_scipy(self):
        return self._csr

    def to_dense(self):
        return self._csr.toarray()

    def matvec(self, x):
        """A x by :func:`_product`, bound afresh on each call."""
        x = _vector(x, self.ncols)
        return _run_kernel(_product(self), self.nrows,
                           np.promote_types(self.dtype, x.dtype), x)

    def rmatvec(self, x):
        """Transpose product A^T x (not conjugated), by :func:`_product`."""
        x = _vector(x, self.nrows)
        return _run_kernel(_product(self, transpose=True), self.ncols,
                           np.promote_types(self.dtype, x.dtype), x)

    def _diagonals(self):
        """(ascending offsets, DIA data) of A by one O(nnz) scatter of the
        CSR arrays; None unless the occupied diagonals are at least half
        full."""
        if self.nnz == 0:
            return None
        nrows, ncols = self.nrows, self.ncols
        # one index array, updated in place: fresh nnz-sized temporaries
        # cost more in page faults than the arithmetic does
        index = np.repeat(np.arange(nrows), np.diff(self.row_starts))
        np.subtract(self.col_indices, index, out=index)
        index += nrows - 1   # each entry's offset, moved to start at 0
        occupied = np.bincount(index, minlength=nrows + ncols - 1) > 0
        slot = np.cumsum(occupied) - 1
        n_offsets = int(slot[-1]) + 1
        if n_offsets * min(nrows, ncols) > 2 * self.nnz:
            return None
        np.take(slot, index, out=index)   # each entry's row of DIA data
        index *= ncols
        index += self.col_indices
        data = np.zeros((n_offsets, ncols), dtype=self.dtype)
        data.ravel()[index] = self.values
        return np.flatnonzero(occupied) - (nrows - 1), data

    def diagonal(self):
        """The main diagonal, of length min(nrows, ncols), read from the
        CSR arrays: 0 where A holds no entry, and each held entry added
        onto a zero as scipy's ``diagonal`` adds it."""
        rows = np.repeat(np.arange(self.nrows), np.diff(self.row_starts))
        on = self.col_indices == rows
        diag = np.zeros(min(self.nrows, self.ncols), dtype=self.dtype)
        diag[rows[on]] += self.values[on]
        return diag

    def __repr__(self):
        field = "complex" if self.is_complex else "real"
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, {field})"


class _Operator:
    """A x for one matrix by the kernel its pattern picks, built when a
    solver binds it and dropped with the solver's state: DIA over
    :meth:`SparseMatrix._diagonals` when the occupied diagonals are at
    least half full, otherwise the CSR product."""

    def __init__(self, A):
        self.shape, self.dtype = A.shape, A.dtype
        self._fast = self._exact = _product(A)
        self._padded = None   # the rows where DIA multiplies padding
        parts = A._diagonals()
        if parts is not None:
            offsets, data = parts
            self._fast = functools.partial(
                _sparsetools.dia_matvec, *A.shape, len(offsets), A.ncols,
                offsets, data)
            self._padded = _padded_rows(offsets, np.diff(A.row_starts),
                                        A.ncols)

    @property
    def accumulate(self):
        """The compiled y += A x as a function of contiguous vectors
        (x, y), y of the product's dtype, each row's products added onto
        y's entry in the kernel's order. No zero fill, shape check or
        padded-row probe: where a non-finite x_j meets DIA padding, a row
        may read NaN that :meth:`matvec` leaves finite."""
        return self._fast

    def matvec(self, x):
        nrows, ncols = self.shape
        if x.shape != (ncols,):
            raise DimensionMismatch(
                f"matrix has {ncols} columns but vector has length {x.shape}")
        dtype = np.promote_types(self.dtype, x.dtype)
        y = _run_kernel(self._fast, nrows, dtype, x)
        # DIA multiplies each padding zero by its x_j, so a non-finite x_j
        # puts NaN in a padded row that CSR leaves alone. A padded row
        # without NaN met only finite x_j there, and 0 x_j, a signed zero,
        # leaves a sum that starts at +0 as it is; so only NaN in the
        # padded rows calls for CSR. (count_nonzero is the cheap any.)
        if self._padded is None or \
                not np.count_nonzero(np.isnan(y.take(self._padded))):
            return y
        return _run_kernel(self._exact, nrows, dtype, x)


def _vector(x, size, name="vector"):
    """``x`` as an array, or a DimensionMismatch naming both lengths
    when it is not a vector of ``size`` entries: a length-1 or (size, 1)
    array would otherwise broadcast."""
    x = np.asarray(x)
    if x.shape != (size,):
        raise DimensionMismatch(f"the operator takes a vector of length "
                                f"{size}, but {name} has shape {x.shape}")
    return x


def _index_dtype(nrows, ncols, nnz):
    """The index dtype scipy's CSR constructor keeps for these sizes:
    int32 while every index and row start fits, else int64. Indices
    stored in it reach scipy without a copy."""
    fits = max(nrows, ncols, nnz) <= np.iinfo(np.int32).max
    return np.int32 if fits else np.int64


def _wrap_built(nrows, ncols, row_starts, col_indices, values):
    """The SparseMatrix of CSR arrays the library built itself, wrapped
    without the constructor's checks: every row's columns in range and
    strictly ascending, no explicit zeros, float64 or complex128 values.
    Only the index dtype is settled here (that of :func:`_index_dtype`,
    without a copy when it already is)."""
    index = _index_dtype(nrows, ncols, len(values))
    A = SparseMatrix.__new__(SparseMatrix)
    A._adopt(nrows, ncols, row_starts.astype(index, copy=False),
             col_indices.astype(index, copy=False), values)
    return A


def _wrap_product(csr):
    """A scipy CSR product of library matrices as a SparseMatrix. Its
    compiled product sums each row's duplicates as it goes, but may
    leave the columns unsorted and keep exact zeros: both are settled in
    place before the arrays are wrapped as built."""
    csr.sort_indices()
    csr.eliminate_zeros()
    return _wrap_built(*csr.shape, csr.indptr, csr.indices, csr.data)


def _run_kernel(kernel, size, dtype, x):
    """y = mat x by a compiled y += mat x (``_product``'s, or an
    ``_Operator``'s) on a zeroed ``size`` output of ``dtype``."""
    # the kernels add into their output, which starts at +0
    y = np.zeros(size, dtype=dtype)
    kernel(x, y)
    return y


def _product(A, transpose=False):
    """scipy's compiled y += A x (A^T x, not conjugated, if ``transpose``)
    as an unchecked function of (x, y): the CSR routine over A's own
    arrays (the CSC one over them as A^T's). Nothing is kept on A."""
    shape = (A.ncols, A.nrows) if transpose else A.shape
    kernel = _sparsetools.csc_matvec if transpose else _sparsetools.csr_matvec
    return functools.partial(kernel, *shape, A.row_starts, A.col_indices,
                             A.values)


def _padded_rows(offsets, entries, ncols):
    """The rows of a DIA matrix with ascending ``offsets`` and ``ncols``
    columns that hold padding: more in-range diagonal slots than the
    row's ``entries``. None when there are none."""
    i = np.arange(len(entries))
    slots = np.searchsorted(offsets, ncols - i) - np.searchsorted(offsets, -i)
    rows = np.flatnonzero(slots > entries)
    return rows if len(rows) else None


def lu_solver(mat, **options):
    """``solve(r, trans="N")``, mat^{-1} r (mat^{-T} r for "T"), by
    ``scipy.sparse.linalg.splu(mat, **options)``, whose RuntimeError on a
    singular matrix propagates. SuperLU will not solve real factors for a
    complex r, so such an r is solved as its real and imaginary parts."""
    lu = scipy.sparse.linalg.splu(mat.tocsc(), **options)
    if np.iscomplexobj(mat.data):
        return lu.solve

    def solve(r, trans="N"):
        if not np.iscomplexobj(r):
            return lu.solve(r, trans)
        x = np.empty_like(r)
        x.real = lu.solve(r.real, trans)
        x.imag = lu.solve(r.imag, trans)
        return x

    return solve


def write_matrix_market(path, A):
    """Export in Matrix Market coordinate format (1-based, general
    symmetry) to exactly ``path``, with no ``.mtx`` added."""
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, A.to_scipy(), symmetry="general")


def read_matrix_market(path):
    return SparseMatrix.from_scipy(scipy.io.mmread(str(path)))
