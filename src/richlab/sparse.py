"""Compressed sparse row matrices over a real or complex scalar field.

CSR is the storage. Products run through a kernel chosen from the
sparsity pattern on first use: diagonal storage (DIA) when the occupied
diagonals are at least half full, otherwise the CSR matrix itself. With
its offsets ascending, DIA adds each row's products in CSR's column
order, so for finite operands both kernels give the same bits.
"""
from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class SparseMatrix:
    """Immutable CSR matrix.

    Rows are stored with strictly increasing column indices and no
    explicit zeros; duplicate (row, col) triplet contributions are summed
    at build time.
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
        self.nrows = nrows
        self.ncols = ncols
        self.row_starts = row_starts
        self.col_indices = col_indices
        self.values = values
        self._csr = scipy.sparse.csr_matrix(
            (values, col_indices, row_starts), shape=(nrows, ncols))
        # (fast, exact) product kernels of A and A^T, built on first use
        self._kernels = [None, None]

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
    def from_triplets(cls, nrows, ncols, rows, cols, vals, drop_tol=0.0):
        """Build from COO triplets, summing duplicates and dropping zeros."""
        coo = scipy.sparse.coo_matrix(
            (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
            shape=(nrows, ncols))
        csr = coo.tocsr()
        csr.sum_duplicates()
        if drop_tol == 0.0:
            csr.eliminate_zeros()
        else:
            csr.data[np.abs(csr.data) <= drop_tol] = 0.0
            csr.eliminate_zeros()
        csr.sort_indices()
        return cls(nrows, ncols, csr.indptr, csr.indices, csr.data)

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
        x = np.asarray(x)
        if x.shape != (self.ncols,):
            raise DimensionMismatch(
                f"matrix has {self.ncols} columns but vector has length {x.shape}")
        return self._product(x, transpose=False)

    def rmatvec(self, x):
        """Transpose product A^T x (not conjugated)."""
        x = np.asarray(x)
        if x.shape != (self.nrows,):
            raise DimensionMismatch(
                f"matrix has {self.nrows} rows but vector has length {x.shape}")
        return self._product(x, transpose=True)

    def _product(self, x, transpose):
        fast, exact = self._kernel(transpose)
        y = fast.dot(x)
        if fast is exact:
            return y
        # DIA padding multiplies every entry of x, so a non-finite x_j
        # also reaches rows that A does not couple to j; CSR touches only
        # the nonzeros. (A BLAS dot would be a cheaper probe on short
        # vectors, but on long ones it wakes BLAS threads and can take
        # milliseconds.)
        return y if np.isfinite(y).all() else exact.dot(x)

    def _kernel(self, transpose):
        """(fast, exact) scipy kernels for A x, or A^T x when ``transpose``:
        DIA and CSR, or CSR twice when the pattern is too scattered."""
        if self._kernels[transpose] is None:
            exact = self._csr.T if transpose else self._csr
            if transpose:
                # A^T's diagonals are A's, so it takes DIA exactly when A does
                forward = self._kernel(False)[0]
                parts = (_transposed_diagonals(forward.offsets, forward.data,
                                               self.nrows)
                         if forward.format == "dia" else None)
            else:
                parts = self._diagonals()
            fast = exact if parts is None else scipy.sparse.dia_matrix(
                (parts[1], parts[0]), shape=exact.shape)
            self._kernels[transpose] = (fast, exact)
        return self._kernels[transpose]

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
        return self._csr.diagonal()

    def transpose(self):
        return SparseMatrix.from_scipy(self._csr.T)

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return SparseMatrix.from_scipy(self._csr @ other._csr)
        return self.matvec(other)

    def scaled(self, c):
        return SparseMatrix(self.nrows, self.ncols, self.row_starts,
                            self.col_indices, self.values * c)

    def __repr__(self):
        field = "complex" if self.is_complex else "real"
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, {field})"


def _transposed_diagonals(offsets, data, nrows):
    """DIA (offsets, data) of A^T from those of an nrows-row A. Entry
    (i, i+k) of A sits in A's diagonal k at column i+k and in A^T's
    diagonal -k at column i."""
    ncols = data.shape[1]
    data_t = np.zeros((len(offsets), nrows), dtype=data.dtype)
    for row, k in enumerate(offsets[::-1]):   # A^T's offsets -k ascend
        lo, hi = max(0, -k), min(nrows, ncols - k)
        data_t[row, lo:hi] = data[len(offsets) - 1 - row, lo + k:hi + k]
    return -offsets[::-1], data_t


def block_diagonal(blocks):
    """The block-diagonal matrix diag(blocks[0], blocks[1], ...), built by
    concatenating the blocks' CSR arrays. Row b of a row stack X then
    meets only block b in ``matvec(X.ravel())``, entry for entry in the
    order of ``blocks[b].matvec(X[b])``."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    nnz_offsets = np.cumsum([0] + [M.nnz for M in blocks])
    col_offsets = np.cumsum([0] + [M.ncols for M in blocks])
    row_starts = np.concatenate(
        [[0]] + [M.row_starts[1:] + off for M, off in zip(blocks, nnz_offsets)])
    col_indices = np.concatenate(
        [M.col_indices + off for M, off in zip(blocks, col_offsets)])
    values = np.concatenate([M.values for M in blocks])
    return SparseMatrix(sum(M.nrows for M in blocks), int(col_offsets[-1]),
                        row_starts, col_indices, values)


def spmv(A, x):
    """y = A x."""
    return A.matvec(x)


def write_matrix_market(path, A):
    """Export in Matrix Market coordinate format (1-based, general symmetry)."""
    scipy.io.mmwrite(str(path), A.to_scipy(), symmetry="general")


def read_matrix_market(path):
    mat = scipy.io.mmread(str(path))
    return SparseMatrix.from_scipy(mat)
