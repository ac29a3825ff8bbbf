import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqdslln.borel_cantelli import EventSystem, event_prob
from pqdslln.errors import DomainError, ParameterError
from pqdslln.marginals import ParetoMarginal

ALPHAS = st.floats(min_value=0.3, max_value=8.0)


class TestCdfQuantile:
    def test_cdf_values(self):
        m = ParetoMarginal(2.0)
        assert m.cdf(1.0) == 0.0
        assert m.cdf(0.5) == 0.0
        assert m.cdf(2.0) == 0.75
        assert m.cdf(1e12) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_values(self):
        assert ParetoMarginal(2.0).quantile(0.0) == 1.0
        assert ParetoMarginal(2.0).quantile(0.75) == pytest.approx(2.0, rel=1e-14)
        assert ParetoMarginal(1.0).quantile(0.9) == pytest.approx(10.0, rel=1e-12)

    def test_quantile_domain(self):
        m = ParetoMarginal(2.0)
        for u in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                m.quantile(u)

    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan], [math.nan, 0.5], [[0.5], [math.nan]]])
    def test_quantile_refuses_nan(self, u):
        with pytest.raises(DomainError):
            ParetoMarginal(2.0).quantile(u)

    def test_quantile_of_empty_is_empty(self):
        assert ParetoMarginal(2.0).quantile(np.array([])).shape == (0,)

    def test_quantile_into_out_matches_bit_for_bit(self):
        m = ParetoMarginal(1.7)
        u = np.random.default_rng(4).random((3, 50))
        before = u.copy()
        buf = np.empty((3, 60))
        out = m.quantile(u, out=buf[:, :50])  # a strided view, as a partial sampler block
        assert np.shares_memory(out, buf)
        assert out.tobytes() == m.quantile(u).tobytes()
        assert out.tobytes() == np.power(1.0 - u, -1.0 / 1.7).tobytes()  # the same float operations
        assert u.tobytes() == before.tobytes()

    def test_quantile_in_place_matches_bit_for_bit(self):
        m = ParetoMarginal(1.7)
        buf = np.random.default_rng(4).random((3, 60))
        u = buf[:, :50]  # a strided view, as a partial sampler block
        expected = m.quantile(u.copy())
        assert m.quantile(u, out=u) is u
        assert u.tobytes() == expected.tobytes()

    @given(ALPHAS, st.floats(min_value=0.0, max_value=0.999999))
    def test_roundtrip_u(self, alpha, u):
        m = ParetoMarginal(alpha)
        assert m.cdf(m.quantile(u)) == pytest.approx(u, abs=1e-10)

    @given(ALPHAS, st.floats(min_value=1e-5, max_value=1.0))
    def test_roundtrip_x(self, alpha, tail):
        # parametrized by survival level: below ~1e-6 the CDF saturates at 1.0
        # in float64 and no inverse can recover x
        m = ParetoMarginal(alpha)
        x = tail ** (-1.0 / alpha)
        assert m.quantile(m.cdf(x)) == pytest.approx(x, rel=1e-10)

    def test_array_api(self):
        m = ParetoMarginal(2.0)
        xs = np.array([0.0, 1.0, 2.0, 4.0])
        np.testing.assert_allclose(m.cdf(xs), [0.0, 0.0, 0.75, 0.9375])
        np.testing.assert_allclose(m.survival(xs), [1.0, 1.0, 0.25, 0.0625])

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            ParetoMarginal(0.0)


class TestTailProb:
    """P{X > k^(1/p)} of a Pareto marginal, read as the event probability P(A_k)."""

    def test_values(self):
        assert event_prob(EventSystem(1.0, ParetoMarginal(2.0)), 4) == pytest.approx(1.0 / 16.0)
        assert event_prob(EventSystem(1.8, ParetoMarginal(2.0)), 9) == pytest.approx(9.0 ** (-2.0 / 1.8))
        assert event_prob(EventSystem(1.3, ParetoMarginal(3.5)), 1) == 1.0

    @given(ALPHAS, st.floats(min_value=1.0, max_value=1.99))
    def test_nonincreasing(self, alpha, p):
        es = EventSystem(p, ParetoMarginal(alpha))
        probs = [event_prob(es, k) for k in range(1, 40)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.9])
    def test_partial_sums_vs_integral_test(self, alpha, p):
        # Sum_{k<=N} k^(-alpha/p) stays within the integral-test envelope of
        # N^(1-alpha/p)/(alpha/p - 1) exactly when alpha/p > 1
        assert event_prob(EventSystem(p, ParetoMarginal(alpha)), 17) == pytest.approx(17.0 ** (-alpha / p), rel=1e-14)
        n_grid = (10**2, 10**3, 10**4)
        sums = []
        for n in n_grid:
            ks = np.arange(1, n + 1, dtype=float)
            sums.append(math.fsum(ks ** (-alpha / p)))
        if alpha / p > 1.0:
            bound = sums[0] + n_grid[0] ** (1.0 - alpha / p) / (alpha / p - 1.0)
            assert all(s <= bound + 1e-12 for s in sums)
        else:
            assert sums[-1] > sums[0] + 0.5  # keeps growing without a finite cap

    def test_domain(self):
        with pytest.raises(DomainError):
            event_prob(EventSystem(1.0, ParetoMarginal(2.0)), 0)
        with pytest.raises(ParameterError):
            EventSystem(2.5, ParetoMarginal(2.0))


class TestMoments:
    @pytest.mark.parametrize("p,expected", [(1.0, 2.0), (1.2, 2.5), (1.5, 4.0), (1.9, 20.0)])
    def test_alpha2_values(self, p, expected):
        assert ParetoMarginal(2.0).abs_moment(p) == pytest.approx(expected, rel=1e-14)

    def test_infinite_moment(self):
        assert ParetoMarginal(2.0).abs_moment(2.0) == math.inf
        assert ParetoMarginal(1.0).abs_moment(1.0) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            ParetoMarginal(2.0).abs_moment(0.0)

    def test_monte_carlo_mean(self, rng):
        # valid whenever p < alpha/2 so |X|^p has finite variance
        m = ParetoMarginal(2.0)
        p = 0.9
        x = m.quantile(rng.random(10**6))
        xp = x**p
        se = float(np.std(xp, ddof=1)) / math.sqrt(xp.size)
        assert abs(float(np.mean(xp)) - m.abs_moment(p)) <= 4.0 * se

    def test_monte_carlo_mean_alpha3(self, rng):
        m = ParetoMarginal(3.0)
        x = m.quantile(rng.random(10**6))
        se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
        assert abs(float(np.mean(x)) - m.abs_moment(1.0)) <= 4.0 * se
