import numpy as np
import pytest

from richlab.data import EPS_RANGE, sample_dataset


def test_seeded_determinism_bit_identical():
    a = sample_dataset("anisotropic", 5, seed=7, n=8)
    b = sample_dataset("anisotropic", 5, seed=7, n=8)
    for sa, sb in zip(a, b):
        assert sa.spec == sb.spec
        assert np.array_equal(sa.f, sb.f)
        assert np.array_equal(sa.A.values, sb.A.values)


def test_parameter_ranges():
    ds = sample_dataset("anisotropic", 50, seed=1, n=8)
    eps = np.array([s.spec.epsilon for s in ds])
    theta = np.array([s.spec.theta for s in ds])
    assert np.all((eps >= EPS_RANGE[0]) & (eps <= EPS_RANGE[1]))
    assert np.all((theta >= 0.0) & (theta <= np.pi))


def test_mu_stores_log_epsilon():
    ds = sample_dataset("anisotropic", 3, seed=2, n=8)
    for s in ds:
        assert np.isclose(s.mu[0], np.log10(s.spec.epsilon))


def test_rhs_moments_standard_normal():
    # 3 sigma bands for mean and variance over 10^4 draws
    ds = sample_dataset("anisotropic", 3, seed=11, n=64)
    draws = np.concatenate([s.f for s in ds])[:10_000]
    n = len(draws)
    assert abs(draws.mean()) <= 3.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)


def test_unsupported_kind():
    for kind in ("poisson", "helmholtz"):
        with pytest.raises(ValueError, match="unsupported"):
            sample_dataset(kind, 1, seed=0, n=8)

