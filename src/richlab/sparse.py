"""Compressed sparse row matrices over a real or complex scalar field.

CSR is the storage. Products run through a kernel chosen from the
sparsity pattern on first use: diagonal storage (DIA) when the occupied
diagonals are at least half full, otherwise the CSR matrix itself. With
its offsets ascending, DIA adds each row's products in CSR's column
order, so for finite operands both kernels give the same bits. Each
product calls scipy's compiled kernel (``scipy.sparse._sparsetools``,
the routine behind ``dot``), which adds A x into its output: on a
zeroed output in one place (``_run_kernel``), or into the caller's
vector by the accumulating product. ``matvec`` then probes the rows
that hold DIA padding and recomputes by CSR where they read NaN; the
unprobed and accumulating products leave that check to a caller that
tests its result anyway.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.io
import scipy.sparse
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

    @classmethod
    def _from_valid_arrays(cls, nrows, ncols, row_starts, col_indices,
                           values):
        """Wrap CSR arrays that meet every invariant the constructor
        checks (indices of :func:`_index_dtype`, float64 or complex128
        values, in-range and strictly increasing columns per row) without
        checking them."""
        self = cls.__new__(cls)
        self._adopt(nrows, ncols, row_starts, col_indices, values)
        return self

    def _adopt(self, nrows, ncols, row_starts, col_indices, values):
        self.nrows = nrows
        self.ncols = ncols
        self.row_starts = row_starts
        self.col_indices = col_indices
        self.values = values
        self._csr = scipy.sparse.csr_matrix(
            (values, col_indices, row_starts), shape=(nrows, ncols))
        # product kernels of A and A^T (see _kernel), built on first use
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
        return self._probed_product(x, transpose=False)

    def rmatvec(self, x):
        """Transpose product A^T x (not conjugated)."""
        x = np.asarray(x)
        if x.shape != (self.nrows,):
            raise DimensionMismatch(
                f"matrix has {self.nrows} rows but vector has length {x.shape}")
        return self._probed_product(x, transpose=True)

    def _probed_product(self, x, transpose):
        _, _, fast, exact, padded = self._kernel(transpose)
        size = self.ncols if transpose else self.nrows
        dtype = np.promote_types(self.values.dtype, x.dtype)
        y = _run_kernel(fast, size, dtype, x)
        # DIA multiplies each padding zero by its x_j, so a non-finite x_j
        # puts NaN in a padded row that CSR leaves alone. A padded row
        # without NaN met only finite x_j there, and 0 x_j, a signed zero,
        # leaves a sum that starts at +0 as it is; so only NaN in the
        # padded rows calls for CSR. (count_nonzero is the cheap any.)
        if padded is None or not np.count_nonzero(np.isnan(y.take(padded))):
            return y
        return _run_kernel(exact, size, dtype, x)

    def _unprobed_product(self, dtype, transpose=False):
        """The product x -> A x (A^T x when ``transpose``) of contiguous
        vectors x of ``dtype``, its kernel resolved once: no shape check
        and no padded-row probe. Its bytes are those of :meth:`matvec`
        whenever the result holds no NaN; where a non-finite x_j meets
        DIA padding, a row may read NaN that CSR leaves finite, so a
        caller that sees a non-finite result recomputes it by
        :meth:`matvec`."""
        fast = self._kernel(transpose)[2]
        return functools.partial(
            _run_kernel, fast, self.ncols if transpose else self.nrows,
            np.promote_types(self.values.dtype, dtype))

    def _accumulating_product(self):
        """The compiled y += A x as a function of contiguous vectors
        (x, y), y of the product's dtype, which it updates in place: no
        zero fill, no shape check and no padded-row probe. Each row's
        products are added onto y's entry in the kernel's order; see
        :meth:`_unprobed_product` for the NaN that DIA padding can add
        where x is not finite."""
        return self._kernel(False)[2]

    def _kernel(self, transpose):
        """(fast, exact) scipy matrices for A x, or A^T x when
        ``transpose`` (DIA and CSR, or CSR twice when the pattern is too
        scattered), then their compiled products and the rows where the
        DIA kernel multiplies padding (None when there are none)."""
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
            run_exact = _compiled(exact)
            if parts is None:
                kernel = (exact, exact, run_exact, run_exact, None)
            else:
                offsets, data = parts
                fast = scipy.sparse.dia_matrix((data, offsets),
                                               shape=exact.shape)
                entries = (np.bincount(self.col_indices, minlength=self.ncols)
                           if transpose else np.diff(self.row_starts))
                kernel = (fast, exact, _compiled(fast), run_exact,
                          _padded_rows(offsets, entries, exact.shape[1]))
            self._kernels[transpose] = kernel
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

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return _wrap_product(self._csr @ other._csr)
        return self.matvec(other)

    def __repr__(self):
        field = "complex" if self.is_complex else "real"
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, {field})"


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
    return SparseMatrix._from_valid_arrays(
        nrows, ncols, row_starts.astype(index, copy=False),
        col_indices.astype(index, copy=False), values)


def _wrap_product(csr):
    """A scipy CSR product of library matrices as a SparseMatrix. Its
    compiled product sums each row's duplicates as it goes, but may
    leave the columns unsorted and keep exact zeros: both are settled in
    place before the arrays are wrapped as built."""
    csr.sort_indices()
    csr.eliminate_zeros()
    return _wrap_built(*csr.shape, csr.indptr, csr.indices, csr.data)


def _scaled_transpose(A, scale):
    """scale * A^T from A's arrays, by scipy's compiled CSR-to-CSC
    conversion: it visits A's rows in order, so each row of A^T lists
    its columns in ascending order. ``scale`` must leave every entry
    nonzero."""
    row_starts = np.empty(A.ncols + 1, dtype=A.row_starts.dtype)
    col_indices = np.empty(A.nnz, dtype=A.col_indices.dtype)
    values = np.empty(A.nnz, dtype=A.dtype)
    _sparsetools.csr_tocsc(A.nrows, A.ncols, A.row_starts, A.col_indices,
                           A.values, row_starts, col_indices, values)
    values *= scale
    return _wrap_built(A.ncols, A.nrows, row_starts, col_indices, values)


def _run_kernel(kernel, size, dtype, x):
    """y = mat x by a compiled product of :func:`_compiled` on a zeroed
    ``size`` output of ``dtype``: the one place a product runs."""
    # the kernels add into their output, which starts at +0
    y = np.zeros(size, dtype=dtype)
    kernel(x, y)
    return y


def _compiled(mat):
    """scipy's compiled y += mat x for a DIA, CSR or CSC matrix, as a
    function of (x, y): the kernel and arguments that ``mat.dot(x)``
    runs on its zeroed output."""
    if mat.format == "dia":
        head = (*mat.shape, len(mat.offsets), mat.data.shape[1],
                mat.offsets, mat.data)
    else:
        head = (*mat.shape, mat.indptr, mat.indices, mat.data)
    return functools.partial(getattr(_sparsetools, mat.format + "_matvec"),
                             *head)


def _padded_rows(offsets, entries, ncols):
    """The rows of a DIA matrix with ascending ``offsets`` and ``ncols``
    columns that hold padding: more in-range diagonal slots than the
    row's ``entries``. None when there are none."""
    i = np.arange(len(entries))
    slots = np.searchsorted(offsets, ncols - i) - np.searchsorted(offsets, -i)
    rows = np.flatnonzero(slots > entries)
    return rows if len(rows) else None


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
    filling one set of CSR arrays with the blocks' arrays, each shifted
    past the previous blocks. Row b of a row stack X then meets only
    block b in ``matvec(X.ravel())``, entry for entry in the order of
    ``blocks[b].matvec(X[b])``."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    nrows = sum(M.nrows for M in blocks)
    ncols = sum(M.ncols for M in blocks)
    nnz = sum(M.nnz for M in blocks)
    index = _index_dtype(nrows, ncols, nnz)
    row_starts = np.empty(nrows + 1, dtype=index)
    col_indices = np.empty(nnz, dtype=index)
    values = np.empty(nnz, dtype=np.result_type(*(M.values for M in blocks)))
    row_starts[0] = 0
    row = col = k = 0
    for M in blocks:
        np.add(M.row_starts[1:], index(k),
               out=row_starts[row + 1:row + 1 + M.nrows])
        np.add(M.col_indices, index(col), out=col_indices[k:k + M.nnz])
        values[k:k + M.nnz] = M.values
        row, col, k = row + M.nrows, col + M.ncols, k + M.nnz
    # the blocks were validated when they were built, and shifting their
    # rows and columns past the previous blocks keeps every invariant
    return SparseMatrix._from_valid_arrays(nrows, ncols, row_starts,
                                           col_indices, values)


def write_matrix_market(path, A):
    """Export in Matrix Market coordinate format (1-based, general symmetry)."""
    scipy.io.mmwrite(str(path), A.to_scipy(), symmetry="general")


def read_matrix_market(path):
    mat = scipy.io.mmread(str(path))
    return SparseMatrix.from_scipy(mat)
