import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pqdslln.copulas import (
    FunctionDescriptor,
    GfmCopula,
    PerturbationCopula,
    ThetaSchedule,
    pqd_grid_check,
    sample_pairs,
    theta_admissible_bound,
)
from pqdslln.errors import DomainError, ParameterError
from pqdslln.marginals import ParetoMarginal

THETAS = st.floats(min_value=0.0, max_value=1.0)
EXPONENTS = st.floats(min_value=1.0, max_value=5.0)
UNIT = st.floats(min_value=0.0, max_value=1.0)


class TestGfmCdf:
    def test_independence(self):
        c = GfmCopula(theta=0.0, r=2.0, s=3.0)
        assert c.cdf(0.3, 0.7) == pytest.approx(0.21)

    @given(THETAS, EXPONENTS, EXPONENTS, UNIT)
    def test_boundaries(self, theta, r, s, u):
        c = GfmCopula(theta=theta, r=r, s=s)
        assert c.cdf(u, 1.0) == pytest.approx(u, abs=1e-14)
        assert c.cdf(1.0, u) == pytest.approx(u, abs=1e-14)
        assert c.cdf(u, 0.0) == 0.0
        assert c.cdf(0.0, u) == 0.0

    def test_central_value(self):
        assert GfmCopula(theta=1.0, r=1.0, s=1.0).cdf(0.5, 0.5) == pytest.approx(0.3125)

    @given(THETAS, EXPONENTS, EXPONENTS, UNIT, UNIT)
    def test_range(self, theta, r, s, u, v):
        value = GfmCopula(theta=theta, r=r, s=s).cdf(u, v)
        assert 0.0 <= value <= 1.0

    def test_cdf_is_product_plus_gap_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta, r, s = rng.uniform(0.0, 1.0), rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)
            u, v = rng.random((2, 9, 13))
            c = GfmCopula(theta=theta, r=r, s=s)
            gap = theta * (u**s * (1.0 - u) ** r) * (v**s * (1.0 - v) ** r)
            expected = u * v + gap
            assert np.array_equal(c.cdf(u, v).view(np.int64), expected.view(np.int64))
            assert np.array_equal(c.gap(u, v).view(np.int64), gap.view(np.int64))
            assert c.cdf(float(u[0, 0]), float(v[0, 0])) == expected[0, 0]

    def test_perturbation_cdf_is_product_plus_gap_bit_for_bit(self):
        phi = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        c = PerturbationCopula(theta=0.75, phi=phi, psi=phi)
        u, v = np.random.default_rng(8).random((2, 50))
        expected = u * v + 0.75 * (u * (1.0 - u)) * (v * (1.0 - v))
        assert np.array_equal(c.cdf(u, v).view(np.int64), expected.view(np.int64))
        assert np.array_equal(c.gap(u, v), 0.75 * (u * (1.0 - u)) * (v * (1.0 - v)))

    def test_gap_keeps_relative_accuracy_near_one(self):
        # 1 - 1e-12 is where C(u, v) - u v loses every digit of the gap
        c = GfmCopula(theta=1.0, r=1.0, s=1.0)
        u = 1.0 - 1e-12
        assert c.gap(u, u) == pytest.approx((u * (1.0 - u)) ** 2, rel=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            GfmCopula(theta=1.5, r=1.0, s=1.0)
        with pytest.raises(ParameterError):
            GfmCopula(theta=0.5, r=0.5, s=1.0)


class TestPqdGridCheck:
    def test_power_family_is_pqd(self):
        assert pqd_grid_check(GfmCopula(theta=0.5, r=1.0, s=1.0).cdf, 100)

    def test_negative_perturbation_fails(self):
        cdf = lambda u, v: u * v - 0.5 * u * (1.0 - u) * v * (1.0 - v)
        assert not pqd_grid_check(cdf, 100)

    def test_independence(self):
        assert pqd_grid_check(lambda u, v: u * v, 37)

    @given(THETAS, EXPONENTS, EXPONENTS)
    @settings(max_examples=15)
    def test_every_admissible_copula(self, theta, r, s):
        assert pqd_grid_check(GfmCopula(theta=theta, r=r, s=s).cdf, 200)

    def test_scalar_only_callable(self):
        def cdf(u, v):
            if isinstance(u, np.ndarray):
                raise TypeError("scalars only")
            return u * v

        assert pqd_grid_check(cdf, 10)


class TestAdmissibleBound:
    def test_symmetric_quadratic(self):
        phi = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        assert theta_admissible_bound(phi, phi) == pytest.approx(1.0)

    def test_scaled_quadratic(self):
        phi = FunctionDescriptor(lambda t: 2.0 * t * (1.0 - t), -2.0, 2.0)
        assert theta_admissible_bound(phi, phi) == pytest.approx(0.25)

    def test_mixed(self):
        phi = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        psi = FunctionDescriptor(lambda t: 2.0 * t * (1.0 - t), -2.0, 2.0)
        assert theta_admissible_bound(phi, psi) == pytest.approx(0.5)

    def test_bad_signs(self):
        good = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        bad = FunctionDescriptor(lambda t: t * (1.0 - t), 0.5, 1.0)
        with pytest.raises(DomainError):
            theta_admissible_bound(bad, good)

    def test_perturbation_copula_validation(self):
        phi = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        copula = PerturbationCopula(theta=1.0, phi=phi, psi=phi)
        assert copula.cdf(0.5, 0.5) == pytest.approx(0.25 + 0.0625)
        assert pqd_grid_check(copula.cdf, 50)
        with pytest.raises(ParameterError):
            PerturbationCopula(theta=1.5, phi=phi, psi=phi)
        bad = FunctionDescriptor(lambda t: t, -1.0, 1.0)  # does not vanish at 1
        with pytest.raises(ParameterError):
            PerturbationCopula(theta=0.5, phi=bad, psi=phi)


class TestConditional:
    @given(THETAS, EXPONENTS, EXPONENTS, st.floats(min_value=0.01, max_value=0.99), UNIT)
    def test_theta_zero_and_boundary(self, theta, r, s, u, v):
        c0 = GfmCopula(theta=0.0, r=r, s=s)
        assert c0.conditional(u, v) == pytest.approx(v, abs=1e-14)
        c = GfmCopula(theta=theta, r=r, s=s)
        assert c.conditional(u, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert c.conditional(u, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_point(self):
        c = GfmCopula(theta=1.0, r=1.0, s=1.0)
        for v in (0.1, 0.4, 0.9):
            assert c.conditional(0.5, v) == pytest.approx(v, abs=1e-14)

    @pytest.mark.parametrize("theta,r,s", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (1.0, 1.5, 2.0), (0.25, 3.0, 3.0)])
    def test_matches_central_difference(self, theta, r, s):
        c = GfmCopula(theta=theta, r=r, s=s)
        h = 1e-6
        grid = np.linspace(0.05, 0.95, 20)
        for u in grid:
            for v in grid:
                numeric = (c.cdf(u + h, v) - c.cdf(u - h, v)) / (2.0 * h)
                assert c.conditional(u, v) == pytest.approx(numeric, abs=1e-6)


class TestSamplePair:
    def test_independence_path_is_plain_inverse_transform(self):
        m = ParetoMarginal(2.0)
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        x, y = sample_pairs(GfmCopula(theta=0.0), m, rng1, 1000)
        w1 = rng2.random(1000)
        w2 = rng2.random(1000)
        np.testing.assert_array_equal(x, m.quantile(w1))
        np.testing.assert_array_equal(y, m.quantile(w2))

    def test_empirical_copula_matches_cdf(self, rng):
        m = ParetoMarginal(2.0)
        c = GfmCopula(theta=1.0, r=1.0, s=1.0)
        n = 10**5
        x, y = sample_pairs(c, m, rng, n)
        target = c.cdf(0.5, 0.5)  # 0.3125
        hit = np.mean((m.cdf(x) <= 0.5) & (m.cdf(y) <= 0.5))
        se = np.sqrt(target * (1.0 - target) / n)
        assert abs(hit - target) <= 3.0 * se

    def test_pqd_sign_of_indicator_covariance(self, rng):
        m = ParetoMarginal(2.0)
        c = GfmCopula(theta=1.0, r=1.0, s=1.0)
        n = 10**5
        x, y = sample_pairs(c, m, rng, n)
        a = (x <= 2.0).astype(float)
        b = (y <= 2.0).astype(float)
        cov = np.mean(a * b) - np.mean(a) * np.mean(b)
        se = np.std(a * b, ddof=1) / np.sqrt(n)
        assert cov >= -3.0 * se

    def test_marginal_fidelity_ks(self, rng):
        m = ParetoMarginal(2.0)
        x, y = sample_pairs(GfmCopula(theta=0.0), m, rng, 10**5)
        for coord in (x, y):
            stat = scipy.stats.kstest(coord, m.cdf).statistic
            threshold = np.sqrt(-np.log(0.001 / 2.0) / 2.0) / np.sqrt(coord.size)
            assert stat < threshold

    def test_single_pair(self, rng):
        x, y = sample_pairs(GfmCopula(theta=0.5), ParetoMarginal(2.0), rng, 1)
        assert x.shape == y.shape == (1,)
        assert x[0] >= 1.0 and y[0] >= 1.0

    @given(THETAS, EXPONENTS, EXPONENTS)
    @settings(max_examples=10)
    def test_conditional_inversion_residual(self, theta, r, s):
        c = GfmCopula(theta=theta, r=r, s=s)
        rng = np.random.default_rng(11)
        x, y = sample_pairs(c, ParetoMarginal(2.0), rng, 256)
        assert np.all(x >= 1.0) and np.all(y >= 1.0)


class TestThetaSchedule:
    def test_window_rejects_zero_exponents(self):
        with pytest.raises(ParameterError, match="1/p - 1 < mu"):
            ThetaSchedule(mu=0.0, nu=0.0, p=1.0)

    def test_window_rejects_right_violation(self):
        with pytest.raises(ParameterError, match="2/p - 2 - nu"):
            ThetaSchedule(mu=1.6, nu=-1.5, p=1.0)

    def test_values(self):
        sched = ThetaSchedule(mu=0.2, nu=-1.5, p=1.0)
        # direct power evaluation
        assert sched.theta(2, 3) == pytest.approx(0.22106710149173953, rel=1e-12)
        assert sched.theta(1, 1000) == pytest.approx(3.1622776601683795e-05, rel=1e-12)

    def test_index_validation(self):
        sched = ThetaSchedule(mu=0.2, nu=-1.5, p=1.0)
        with pytest.raises(ParameterError):
            sched.theta(3, 3)
        with pytest.raises(ParameterError):
            sched.theta(0, 2)

    @given(st.floats(min_value=1.0, max_value=1.99), st.data())
    @settings(max_examples=60)
    def test_theta_in_unit_interval(self, p, data):
        nu = data.draw(st.floats(min_value=-3.0, max_value=1.0 / p - 1.001))
        lo, hi = 1.0 / p - 1.0, 2.0 / p - 2.0 - nu
        mu = data.draw(st.floats(min_value=lo + 1e-6, max_value=hi - 1e-6))
        sched = ThetaSchedule(mu=mu, nu=nu, p=p)
        for k, j in ((1, 2), (2, 3), (1, 10**6), (999, 1000), (3, 50)):
            assert 0.0 <= sched.theta(k, j) <= 1.0

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=2, max_value=501))
    def test_bounded_by_diagonal_power(self, k, j):
        if k >= j:
            k, j = j - 1, k + 1
        sched = ThetaSchedule(mu=0.2, nu=-1.5, p=1.0)
        assert sched.theta(k, j) <= float(j) ** (sched.mu + sched.nu) + 1e-15
