import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from richlab.schedules import (VARIANTS, WeightSchedule,
                               chebyshev_semi_weights, chebyshev_weights)

EPS = np.finfo(float).eps


@st.composite
def spectra(draw):
    """0 < lambda_min < lambda_max, over sixteen decades."""
    lmin = draw(st.floats(1e-8, 1e8))
    lmax = lmin * draw(st.floats(1.0, 1e8, exclude_min=True))
    assume(lmax > lmin)
    return lmax, lmin


def mapped_chebyshev_points(lmax, lmin, m):
    x = np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))
    return 0.5 * (lmax + lmin) + 0.5 * (lmax - lmin) * x


def weight_rows(m):
    return st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)


class TestChebyshevWeights:
    def test_m1_midpoint(self):
        w = chebyshev_weights(3.0, 1.0, 1)
        assert np.isclose(w[0], 2.0 / 4.0)

    def test_m2_closed_form(self):
        w = chebyshev_weights(1.0, 1e-30, 2)
        r = np.sqrt(2.0) / 2.0
        assert np.allclose(sorted(w), sorted([2.0 / (1 + r), 2.0 / (1 - r)]),
                           rtol=1e-12)

    def test_roots_at_mapped_chebyshev_points(self):
        lmax, lmin, m = 5.0, 0.3, 4
        w = chebyshev_weights(lmax, lmin, m)
        x = np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))
        roots = 0.5 * (lmax + lmin) + 0.5 * (lmax - lmin) * x
        assert np.allclose(1.0 - w * roots, 0.0, atol=1e-13)

    def test_semi_iteration_replaces_lambda_min(self):
        w = chebyshev_semi_weights(6.0, 3, alpha=1.0 / 30.0)
        assert np.allclose(w, chebyshev_weights(6.0, 6.0 / 30.0, 3))

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_weights(1.0, 2.0, 3)
        with pytest.raises(ValueError):
            chebyshev_weights(1.0, -0.5, 3)

    @pytest.mark.parametrize("lmax,lmin", [(np.inf, 1.0), (np.nan, 1.0),
                                           (2.0, np.nan), (np.inf, np.inf)])
    def test_non_finite_spectrum_rejected(self, lmax, lmin):
        with pytest.raises(ValueError, match="need finite lambda_max"):
            chebyshev_weights(lmax, lmin, 3)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3", None, True])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            chebyshev_weights(2.0, 1.0, m)

    def test_numpy_integer_m_accepted(self):
        assert np.array_equal(chebyshev_weights(2.0, 1.0, np.int64(3)),
                              chebyshev_weights(2.0, 1.0, 3))

    @given(spectrum=spectra(), m=st.integers(1, 12))
    def test_weights_are_finite_and_bracketed(self, spectrum, m):
        lmax, lmin = spectrum
        w = chebyshev_weights(lmax, lmin, m)
        assert w.shape == (m,) and np.all(np.isfinite(w))
        # a few roundings of slack at each end
        assert np.all(w >= (1.0 - 4 * EPS) / lmax)
        assert np.all(w <= (1.0 + 4 * EPS) / lmin)

    @given(spectrum=spectra(), m=st.integers(1, 12))
    def test_residual_polynomial_vanishes_at_mapped_points(self, spectrum, m):
        lmax, lmin = spectrum
        w = chebyshev_weights(lmax, lmin, m)
        roots = mapped_chebyshev_points(lmax, lmin, m)
        assert np.all(np.abs(1.0 - w * roots) <= 8 * EPS)

    @given(lmax=st.floats(1e-8, 1e8), m=st.integers(1, 12),
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_semi_iteration_is_chebyshev_at_alpha_lmax(self, lmax, m, alpha):
        assume(alpha * lmax > 0)
        assert np.array_equal(chebyshev_semi_weights(lmax, m, alpha),
                              chebyshev_weights(lmax, alpha * lmax, m))


class TestWeightSchedule:
    def test_plain_requires_zero_momentum(self):
        with pytest.raises(ValueError):
            WeightSchedule(omega=[0.5], alpha=[0.1], variant="plain")

    def test_nag_couples_alpha_tilde(self):
        s = WeightSchedule(omega=[0.5, 0.5], alpha=[0.1, 0.2], variant="nag")
        assert np.array_equal(s.alpha_tilde, s.alpha)
        with pytest.raises(ValueError):
            WeightSchedule(omega=[0.5], alpha=[0.1], alpha_tilde=[0.9],
                           variant="nag")

    def test_m_property(self):
        assert WeightSchedule(omega=[1.0, 2.0, 3.0]).m == 3

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            WeightSchedule(omega=[1.0], variant="adam")

    @pytest.mark.parametrize("field", ["omega", "alpha", "alpha_tilde"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, field, bad):
        kw = dict(omega=[0.1, 0.2], alpha=[0.3, 0.4],
                  alpha_tilde=[0.5, 0.6], variant="nagex")
        kw[field] = [0.1, bad]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            WeightSchedule(**kw)

    @pytest.mark.parametrize("field", ["omega", "alpha", "alpha_tilde"])
    def test_non_1d_weights_rejected(self, field):
        kw = dict(omega=[0.1, 0.2], alpha=[0.3, 0.4],
                  alpha_tilde=[0.5, 0.6], variant="nagex")
        kw[field] = [[0.1, 0.2], [0.3, 0.4]]
        with pytest.raises(ValueError, match=f"^{field} must be 1-D"):
            WeightSchedule(**kw)

    def test_scalar_omega_is_one_weight(self):
        assert np.array_equal(WeightSchedule(omega=0.5).omega, [0.5])

    @given(m=st.integers(1, 12), data=st.data())
    def test_plain_keeps_zero_momentum(self, m, data):
        s = WeightSchedule(omega=data.draw(weight_rows(m)))
        assert s.m == m
        assert np.array_equal(s.alpha, np.zeros(m))
        assert np.array_equal(s.alpha_tilde, np.zeros(m))

    @given(m=st.integers(1, 12), data=st.data())
    def test_nag_alpha_tilde_is_alpha(self, m, data):
        alpha = data.draw(weight_rows(m))
        s = WeightSchedule(omega=data.draw(weight_rows(m)), alpha=alpha,
                           variant="nag")
        assert np.array_equal(s.alpha_tilde, s.alpha)
        assert np.array_equal(s.alpha, alpha)

    @given(m=st.integers(1, 12), other=st.integers(0, 12),
           field=st.sampled_from(["alpha", "alpha_tilde"]),
           variant=st.sampled_from([v for v in VARIANTS if v != "plain"]))
    def test_mismatched_lengths_refused(self, m, other, field, variant):
        assume(other != m)
        kw = dict(omega=np.full(m, 0.1), alpha=np.full(m, 0.2))
        kw[field] = np.full(other, 0.2)
        with pytest.raises(ValueError):
            WeightSchedule(variant=variant, **kw)
