import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from richlab.problems import AnisotropicProblem, assemble_anisotropic
from richlab.transforms import dst2, dst2_inv

from conftest import sine_mode


def test_single_mode_unit_coefficient():
    n = 8
    for (p, q) in [(1, 1), (2, 5), (7, 7)]:
        x = sine_mode(n, p, q)
        c = dst2(x / np.linalg.norm(x))
        coeffs = c.reshape(n - 1, n - 1)
        assert abs(abs(coeffs[p - 1, q - 1]) - 1.0) <= 1e-12
        coeffs[p - 1, q - 1] = 0.0
        assert np.abs(coeffs).max() <= 1e-12


def test_round_trip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(15 * 15)
    back = dst2_inv(dst2(x))
    assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


def test_isometry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal(7 * 7)
        assert abs(np.linalg.norm(dst2(x)) - np.linalg.norm(x)) \
            <= 1e-12 * np.linalg.norm(x)


@given(side=st.integers(1, 24), rows=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(side=7, rows=4, seed=0)   # 4 x 49 entries: 196 is a square too
def test_row_stack_transforms_each_row_bit_for_bit(side, rows, seed):
    X = np.random.default_rng(seed).standard_normal((rows, side * side))
    Y = dst2(X)
    assert Y.shape == X.shape
    for x, y in zip(X, Y):
        assert np.array_equal(y, dst2(x))
    assert np.array_equal(dst2_inv(X), Y)


def test_non_square_length_rejected():
    with pytest.raises(ValueError, match="perfect square"):
        dst2(np.ones(10))


def test_diagonalizes_isotropic_fem_matrix():
    n = 8
    A = assemble_anisotropic(AnisotropicProblem(epsilon=1.0, theta=0.0, n=n))
    for (p, q) in [(1, 1), (3, 2), (6, 6)]:
        s = sine_mode(n, p, q)
        c = dst2(A.matvec(s)).reshape(n - 1, n - 1)
        ref = dst2(s).reshape(n - 1, n - 1)
        lam = c[p - 1, q - 1] / ref[p - 1, q - 1]
        c[p - 1, q - 1] = 0.0
        assert np.abs(c).max() <= 1e-12 * abs(lam)
        # closed-form eigenvalue of the 9-point stencil
        cp, cq = np.cos(p * np.pi / n), np.cos(q * np.pi / n)
        expect = (8.0 - 2.0 * cp - 2.0 * cq - 4.0 * cp * cq) / 3.0
        assert abs(lam - expect) <= 1e-12 * expect
