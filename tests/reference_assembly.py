"""Reference assembly, kept as a test oracle.

These are the model-problem assemblies as they were written before the
operators were built from their stencils: the anisotropic stiffness
scatters every element's 4x4 matrix as COO triplets, the Helmholtz
operator lists its diagonal and its four neighbour couplings, and
scipy's COO to CSR conversion sorts each row and sums its duplicates.
The library's CSR arrays must equal theirs bit for bit.

``reference_restriction`` and ``reference_prolongation`` are the grid
transfers as they were built before their CSR arrays were written by
index arithmetic: Kronecker products of the 1D full-weighting matrix,
built entry by entry, canonicalised by ``SparseMatrix.from_scipy``.
``reference_galerkin`` is the coarse operator R A P as scipy's product,
canonicalised the same way.
"""
import numpy as np
import scipy.sparse

from richlab.problems import (bilinear_element_stiffness, coefficient_matrix,
                              damping_mask)
from richlab.sparse import SparseMatrix


def _from_triplets(nrows, ncols, rows, cols, vals, drop_tol=0.0):
    """CSR from COO triplets, summing duplicates and dropping entries of
    magnitude at most ``drop_tol`` (exact zeros when it is 0)."""
    csr = scipy.sparse.coo_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
        shape=(nrows, ncols)).tocsr()
    csr.sum_duplicates()
    if drop_tol != 0.0:
        csr.data[np.abs(csr.data) <= drop_tol] = 0.0
    csr.eliminate_zeros()
    csr.sort_indices()
    return SparseMatrix(nrows, ncols, csr.indptr, csr.indices, csr.data)


def reference_anisotropic(p):
    """The bilinear FEM stiffness by the element loop."""
    n = p.n
    Ke = bilinear_element_stiffness(coefficient_matrix(p.epsilon, p.theta))

    # interior index of grid node (ix, iy), -1 on the boundary
    interior = -np.ones((n + 1, n + 1), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    interior[1:n, 1:n] = (ii - 1) * (n - 1) + (jj - 1)

    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ex, ey = ex.reshape(-1), ey.reshape(-1)
    # element corner nodes in local order (0,0),(1,0),(1,1),(0,1)
    nodes = np.stack([
        interior[ex, ey], interior[ex + 1, ey],
        interior[ex + 1, ey + 1], interior[ex, ey + 1],
    ], axis=1)  # (nelem, 4)

    rows, cols, vals = [], [], []
    for a in range(4):
        for b in range(4):
            mask = (nodes[:, a] >= 0) & (nodes[:, b] >= 0)
            rows.append(nodes[mask, a])
            cols.append(nodes[mask, b])
            vals.append(np.full(mask.sum(), Ke[a, b]))
    return _from_triplets(
        p.ndof, p.ndof,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        drop_tol=1e-14 * np.abs(Ke).max())


def reference_helmholtz(p):
    """The 5-point damped Helmholtz operator from its triplet lists (no
    Shannon check)."""
    n = p.n
    h = 1.0 / n
    m = n - 1
    k = p.angular_frequency
    gamma = damping_mask(p)

    diag = (4.0 - k ** 2 * h ** 2) / h ** 2 + 1j * gamma * k
    off = -1.0 / h ** 2

    idx = np.arange(m * m).reshape(m, m)
    rows = [idx.reshape(-1)]
    cols = [idx.reshape(-1)]
    vals = [diag]
    for ra, ca in [(idx[:-1, :], idx[1:, :]), (idx[1:, :], idx[:-1, :]),
                   (idx[:, :-1], idx[:, 1:]), (idx[:, 1:], idx[:, :-1])]:
        rows.append(ra.reshape(-1))
        cols.append(ca.reshape(-1))
        vals.append(np.full(ra.size, off, dtype=np.complex128))
    return _from_triplets(
        m * m, m * m, np.concatenate(rows), np.concatenate(cols),
        np.concatenate(vals))


def _reference_restriction_1d(n):
    """1D full-weighting (1/4)[1,2,1] from the n-1 interior to n/2-1."""
    nc = n // 2
    rows, cols, vals = [], [], []
    for i in range(nc - 1):
        for off, w in ((0, 0.25), (1, 0.5), (2, 0.25)):
            rows.append(i)
            cols.append(2 * i + off)
            vals.append(w)
    return scipy.sparse.csr_matrix((vals, (rows, cols)),
                                   shape=(nc - 1, n - 1))


def reference_restriction(n):
    """Full weighting from the n grid to the n/2 grid, r (x) r."""
    r1 = _reference_restriction_1d(n)
    return SparseMatrix.from_scipy(scipy.sparse.kron(r1, r1, format="csr"))


def reference_prolongation(n):
    """Bilinear interpolation from the n/2 grid to the n grid, p (x) p
    with p = 2 r^T."""
    p1 = (2.0 * _reference_restriction_1d(n).T).tocsr()
    return SparseMatrix.from_scipy(scipy.sparse.kron(p1, p1, format="csr"))


def reference_galerkin(A, R, P):
    """The Galerkin product R A P."""
    return SparseMatrix.from_scipy(
        (R.to_scipy() @ A.to_scipy() @ P.to_scipy()).tocsr())
