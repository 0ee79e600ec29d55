import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from richlab.problems import (AnisotropicProblem, HelmholtzProblem,
                              ShannonViolation, _stencil_matrix,
                              _stencil_pattern,
                              assemble_anisotropic,
                              assemble_anisotropic_batch, assemble_helmholtz,
                              bilinear_element_stiffness, coefficient_matrix,
                              damping_mask)

from reference_assembly import reference_anisotropic, reference_helmholtz


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("row_starts", "col_indices", "values"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype, name
        # equal bits, signed zeros included
        assert a.tobytes() == b.tobytes(), name


class TestCoefficientMatrix:
    def test_isotropic_is_identity(self):
        for theta in [0.0, 0.7, np.pi / 2, np.pi]:
            assert np.allclose(coefficient_matrix(1.0, theta), np.eye(2))

    def test_theta_zero(self):
        assert np.allclose(coefficient_matrix(0.3, 0.0), np.diag([1.0, 0.3]))

    def test_theta_half_pi_swaps_axes(self):
        assert np.allclose(coefficient_matrix(0.3, np.pi / 2), np.diag([0.3, 1.0]))

    def test_spd(self):
        C = coefficient_matrix(1e-4, 1.1)
        assert np.allclose(C, C.T)
        assert np.all(np.linalg.eigvalsh(C) > 0)


class TestAnisotropicAssembly:
    def test_isotropic_stencil(self):
        # interior row of the eps=1 matrix is the 9-point stencil
        # (1/3) [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]]
        n = 8
        A = assemble_anisotropic(AnisotropicProblem(1.0, 0.0, n)).to_dense()
        m = n - 1
        center = (m // 2) * m + m // 2
        row = A[center].reshape(m, m)
        i, j = m // 2, m // 2
        patch = row[i - 1:i + 2, j - 1:j + 2]
        expect = np.array([[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]]) / 3.0
        assert np.allclose(patch, expect, atol=1e-13)
        row[i - 1:i + 2, j - 1:j + 2] = 0.0
        assert np.abs(row).max() <= 1e-13

    def test_element_stiffness_matches_quadrature_oracle(self):
        # dense quadrature oracle with a 5x5 Gauss-Legendre rule
        rng = np.random.default_rng(0)
        C = coefficient_matrix(0.2, 0.9)
        pts, wts = np.polynomial.legendre.leggauss(5)
        pts = 0.5 * (pts + 1.0)
        wts = 0.5 * wts
        Ke_ref = np.zeros((4, 4))
        shapes_grad = lambda xi, eta: np.array([
            [-(1 - eta), (1 - eta), eta, -eta],
            [-(1 - xi), -xi, xi, (1 - xi)]])
        for xi, wx in zip(pts, wts):
            for eta, wy in zip(pts, wts):
                G = shapes_grad(xi, eta)
                Ke_ref += wx * wy * G.T @ C @ G
        assert np.allclose(bilinear_element_stiffness(C), Ke_ref, atol=1e-14)

    def test_symmetry_exact(self):
        A = assemble_anisotropic(AnisotropicProblem(1e-3, 1.0, 8)).to_dense()
        assert np.array_equal(A, A.T)

    def test_spd_small_eps(self):
        A = assemble_anisotropic(AnisotropicProblem(1e-2, np.pi / 3, 8)).to_dense()
        assert np.linalg.eigvalsh(A)[0] > 0

    def test_positive_definite_random_probes(self):
        rng = np.random.default_rng(2)
        for n in (4, 8, 16):
            A = assemble_anisotropic(AnisotropicProblem(1e-4, 0.4, n))
            for _ in range(100 // 3 + 1):
                x = rng.standard_normal(A.ncols)
                assert x @ A.matvec(x) > 0

    def test_theta_irrelevant_when_isotropic(self):
        base = assemble_anisotropic(AnisotropicProblem(1.0, 0.0, 8)).to_dense()
        for theta in (0.3, np.pi / 2, 2.5):
            other = assemble_anisotropic(AnisotropicProblem(1.0, theta, 8)).to_dense()
            assert np.abs(base - other).max() <= 1e-14 * np.abs(base).max()

    def test_interior_row_sums_vanish(self):
        # rows of nodes with no boundary neighbors annihilate constants
        n = 8
        m = n - 1
        A = assemble_anisotropic(AnisotropicProblem(0.1, 0.8, n)).to_dense()
        for i in range(1, m - 1):
            for j in range(1, m - 1):
                k = i * m + j
                assert abs(A[k].sum()) <= 1e-12 * np.abs(A[k]).sum()


class TestStencilAssemblyMatchesElementLoop:
    @given(lg_eps=st.floats(-6.0, 0.0), theta=st.floats(0.0, np.pi),
           n=st.integers(2, 64))
    def test_anisotropic(self, lg_eps, theta, n):
        p = AnisotropicProblem(10.0 ** lg_eps, theta, n)
        assert_same_csr(assemble_anisotropic(p), reference_anisotropic(p))

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2, np.pi])
    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
    def test_anisotropic_axis_and_diagonal_angles(self, eps, theta):
        p = AnisotropicProblem(eps, theta, 16)
        assert_same_csr(assemble_anisotropic(p), reference_anisotropic(p))

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_anisotropic_drops_cancelled_corners(self, theta):
        # at eps=1/2 on the axes the corner couplings cancel to rounding
        p = AnisotropicProblem(0.5, theta, 8)
        A = assemble_anisotropic(p)
        assert_same_csr(A, reference_anisotropic(p))
        assert A.nnz == 277   # 361 with the corners kept

    @given(params=st.lists(st.tuples(st.floats(-6.0, 0.0),
                                     st.floats(0.0, np.pi),
                                     st.sampled_from([2, 3, 8])),
                           min_size=1, max_size=8),
           at=st.integers(0, 8))
    def test_anisotropic_batch(self, params, at):
        # eps=1/2 on an axis drops the corner offsets, so the batch forms
        # at least two pattern groups
        specs = [AnisotropicProblem(10.0 ** lg_eps, theta, n)
                 for lg_eps, theta, n in params]
        specs.insert(min(at, len(specs)), AnisotropicProblem(0.5, 0.0, 8))
        batch = assemble_anisotropic_batch(specs)
        assert len(batch) == len(specs)
        for p, A in zip(specs, batch):
            assert_same_csr(A, reference_anisotropic(p))

    @settings(max_examples=30)
    @given(n=st.sampled_from([16, 64, 128]),
           points_per_wavelength=st.floats(10.0, 40.0))
    def test_helmholtz(self, n, points_per_wavelength):
        p = HelmholtzProblem(
            angular_frequency=2 * np.pi * n / points_per_wavelength, n=n)
        assert_same_csr(assemble_helmholtz(p), reference_helmholtz(p))


NINE_POINT = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
FIVE_POINT = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
ANTI_DIAGONAL = [(-1, 1), (0, 0), (1, -1)]


@pytest.mark.parametrize("offsets", [NINE_POINT, FIVE_POINT, ANTI_DIAGONAL],
                         ids=["nine", "five", "anti-diagonal"])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 16])
def test_stencil_pattern_matches_a_row_by_row_walk(m, offsets):
    # each unknown (i, j) in turn, its in-grid neighbours in offset order
    starts, cols, slots = [0], [], []
    for i in range(m):
        for j in range(m):
            for k, (di, dj) in enumerate(offsets):
                if 0 <= i + di < m and 0 <= j + dj < m:
                    cols.append((i + di) * m + j + dj)
                    slots.append(k)
            starts.append(len(cols))
    row_starts, col_indices, got_slots = _stencil_pattern(m, offsets)
    assert row_starts.dtype == col_indices.dtype == np.int32
    assert got_slots.dtype == np.int8
    assert row_starts.tolist() == starts
    assert col_indices.tolist() == cols
    assert got_slots.tolist() == slots
    for array in (row_starts, col_indices, got_slots):
        assert not array.flags.writeable


class TestHelmholtzAssembly:
    def test_interior_stencil_values(self):
        n = 32
        omega = 6.0 * np.pi  # a sponge of 11 cells leaves the center free
        p = HelmholtzProblem(angular_frequency=omega, n=n)
        A = assemble_helmholtz(p)
        h = 1.0 / n
        m = n - 1
        center = (m // 2) * m + m // 2
        dense_row = A.to_dense()[center]
        assert np.isclose(dense_row[center], (4.0 - omega ** 2 * h ** 2) / h ** 2)
        assert np.isclose(dense_row[center + 1], -1.0 / h ** 2)
        assert np.isclose(dense_row[center - m], -1.0 / h ** 2)
        assert dense_row[center].imag == 0.0  # gamma = 0 at the center

    def test_sponge_diagonal_has_positive_imag(self):
        p = HelmholtzProblem(angular_frequency=4 * np.pi, n=32)
        A = assemble_helmholtz(p)
        gamma = damping_mask(p)
        diag = A.diagonal()
        assert np.all(diag.imag[gamma > 0] > 0)
        assert np.allclose(diag.imag, gamma * p.angular_frequency)

    def test_complex_symmetric_not_hermitian(self):
        p = HelmholtzProblem(angular_frequency=4 * np.pi, n=32)
        A = assemble_helmholtz(p).to_dense()
        assert np.array_equal(A, A.T)
        assert not np.array_equal(A, A.conj().T)

    def test_stencil_drops_exact_zeros(self):
        # one unknown's diagonal value is an exact zero: it is left out,
        # and so are the neighbours that fall outside the 3 x 3 grid
        offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
        values = np.full((5, 9), -1.0 + 0j)
        values[2] = 4.0
        values[2, 4] = 0.0
        A = _stencil_matrix(3, offsets, values)
        dense = np.zeros((9, 9), dtype=complex)
        for (di, dj), row in zip(offsets, values):
            for i in range(3):
                for j in range(3):
                    if 0 <= i + di < 3 and 0 <= j + dj < 3:
                        dense[3 * i + j, 3 * (i + di) + j + dj] = row[3 * i + j]
        assert A.nnz == 32   # 33 couplings inside the grid, one zero
        assert np.all(A.values != 0)
        assert np.array_equal(A.to_dense(), dense)

    def test_shannon_violation_reports_ppw(self):
        with pytest.raises(ShannonViolation, match="per wavelength"):
            assemble_helmholtz(HelmholtzProblem(angular_frequency=100.0, n=16))


def test_problem_invariants():
    with pytest.raises(ValueError):
        AnisotropicProblem(epsilon=0.0, theta=0.0, n=8)
    with pytest.raises(ValueError):
        AnisotropicProblem(epsilon=0.5, theta=4.0, n=8)
    with pytest.raises(ValueError):
        HelmholtzProblem(angular_frequency=-1.0, n=8)


@pytest.mark.parametrize("kw,field", [
    ({"angular_frequency": np.nan}, "angular_frequency"),
    ({"angular_frequency": np.inf}, "angular_frequency"),
    ({"angular_frequency": 0.0}, "angular_frequency"),
])
def test_helmholtz_parameters_rejected(kw, field):
    args = {"angular_frequency": 2 * np.pi, "n": 16, **kw}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        HelmholtzProblem(**args)


def test_mu_extraction():
    p = AnisotropicProblem(epsilon=1e-3, theta=0.5, n=8)
    assert np.allclose(p.mu, [-3.0, 0.5])
    q = HelmholtzProblem(angular_frequency=3.0, n=64)
    assert np.allclose(q.mu, [3.0])


@pytest.mark.parametrize("cls,kw", [
    (AnisotropicProblem, {"epsilon": 0.5, "theta": 0.0}),
    (HelmholtzProblem, {"angular_frequency": 2 * np.pi}),
])
@pytest.mark.parametrize("n", [True, np.True_, 32.5, 32.0, "32", None])
def test_non_integer_grid_size_rejected(cls, kw, n):
    with pytest.raises(ValueError, match="^n must be an integer"):
        cls(n=n, **kw)


@pytest.mark.parametrize("n", [np.int64(8), np.int32(8), np.uint8(8)])
def test_numpy_grid_size_stored_as_int(n):
    p = AnisotropicProblem(0.5, 0.0, n)
    assert type(p.n) is int and p == AnisotropicProblem(0.5, 0.0, 8)
    shape = assemble_anisotropic(p).shape
    assert shape == (49, 49) and all(type(k) is int for k in shape)
    assert type(HelmholtzProblem(2 * np.pi, n).n) is int
