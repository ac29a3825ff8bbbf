import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pqdslln import simulate
from pqdslln.borel_cantelli import EventSystem
from pqdslln.conditions import majorant_sum, tail_condition
from pqdslln.copulas import GfmCopula, PowerSchedule
from pqdslln.errors import ParameterError
from pqdslln.gfun import bracket_limit, factor_differences, g_closed_bracket, g_factor
from pqdslln.marginals import ParetoMarginal
from pqdslln.simulate import MultivariateFgmModel, SlnnRun, _uniform_blocks

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
        # the bilinear perturbation theta u(1-u) v(1-v) is the r = s = 1 power family
        c = GfmCopula(theta=0.75)
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


def _grid(m: int):
    grid = np.linspace(0.0, 1.0, m + 1)
    return np.meshgrid(grid, grid, indexing="ij")


def _pair_draws(theta: float, rng, n_pairs: int):
    """n_pairs draws of the joint model at n = 2 with theta_12 = theta: its margin is the r = s = 1 copula."""
    model = MultivariateFgmModel.from_power_schedule(2, PowerSchedule(0.0, 0.0, theta))
    u = next(_uniform_blocks(model, [rng] * n_pairs, 2, np.empty((n_pairs, 2))))[1]
    return u[:, 0].copy(), u[:, 1].copy()


class TestPqdGridCheck:
    def test_power_family_is_pqd(self):
        uu, vv = _grid(100)
        assert np.all(GfmCopula(theta=0.5, r=1.0, s=1.0).cdf(uu, vv) - uu * vv >= -1e-12)

    def test_negative_perturbation_fails(self):
        # the family's only negatively dependent members, theta < 0, are refused
        with pytest.raises(ParameterError):
            GfmCopula(theta=-0.5, r=1.0, s=1.0)

    def test_independence(self):
        uu, vv = _grid(37)
        assert np.array_equal(GfmCopula(theta=0.0).cdf(uu, vv), uu * vv)

    @given(THETAS, EXPONENTS, EXPONENTS)
    @settings(max_examples=15)
    def test_every_admissible_copula(self, theta, r, s):
        uu, vv = _grid(200)
        assert np.all(GfmCopula(theta=theta, r=r, s=s).cdf(uu, vv) - uu * vv >= -1e-12)

    def test_scalar_only_callable(self):
        # scalar arguments give Python floats equal to the array route, element for element
        uu, vv = _grid(10)
        c = GfmCopula(theta=0.5, r=2.0, s=1.5)
        values = [[c.cdf(float(a), float(b)) for a, b in zip(ur, vr)] for ur, vr in zip(uu, vv)]
        assert all(type(value) is float for row in values for value in row)
        assert np.array_equal(np.array(values), c.cdf(uu, vv))


class TestAdmissibleBound:
    def test_symmetric_quadratic(self):
        # the bilinear perturbation u(1-u) v(1-v) is admissible up to theta = 1 exactly
        assert GfmCopula(theta=1.0).cdf(0.5, 0.5) == pytest.approx(0.25 + 0.0625)
        with pytest.raises(ParameterError):
            GfmCopula(theta=math.nextafter(1.0, 2.0))


def _invert_second(theta: float, u: float, w: float) -> float:
    """The joint model's second coordinate (n = 2, theta_12 = theta) given the first is u.

    The sampler inverts the conditional CDF v + theta (1 - 2u) v (1 - v) of the r = s = 1 copula at
    the coordinate's own uniform w; a broken sampler invariant raises NumericError.
    """
    block = np.array([[u, w]])
    simulate._invert_rows(PowerSchedule(0.0, 0.0, theta), block, 0, [[1.0, 0.0, None]])
    assert block[0, 0] == u
    return float(block[0, 1])


class TestConditional:
    @given(THETAS, st.floats(min_value=0.01, max_value=0.99), UNIT)
    def test_theta_zero_and_boundary(self, theta, u, w):
        assert _invert_second(0.0, u, w) == w
        assert _invert_second(theta, u, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert _invert_second(theta, u, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_point(self):
        for w in (0.1, 0.4, 0.9):
            assert _invert_second(1.0, 0.5, w) == pytest.approx(w, abs=1e-14)


class TestSamplePair:
    def test_independence_path_is_plain_inverse_transform(self):
        u, v = _pair_draws(0.0, np.random.default_rng(7), 1000)
        w = np.random.default_rng(7).random((1000, 2))
        np.testing.assert_array_equal(u, w[:, 0])
        np.testing.assert_array_equal(v, w[:, 1])

    def test_empirical_copula_matches_cdf(self, rng):
        c = GfmCopula(theta=1.0, r=1.0, s=1.0)
        n = 10**5
        u, v = _pair_draws(1.0, rng, n)
        target = c.cdf(0.5, 0.5)  # 0.3125
        hit = np.mean((u <= 0.5) & (v <= 0.5))
        se = np.sqrt(target * (1.0 - target) / n)
        assert abs(hit - target) <= 3.0 * se

    def test_pqd_sign_of_indicator_covariance(self, rng):
        m = ParetoMarginal(2.0)
        n = 10**5
        u, v = _pair_draws(1.0, rng, n)
        x, y = m.quantile(u), m.quantile(v)
        a = (x <= 2.0).astype(float)
        b = (y <= 2.0).astype(float)
        cov = np.mean(a * b) - np.mean(a) * np.mean(b)
        se = np.std(a * b, ddof=1) / np.sqrt(n)
        assert cov >= -3.0 * se

    def test_marginal_fidelity_ks(self, rng):
        m = ParetoMarginal(2.0)
        for coord in _pair_draws(1.0, rng, 10**5):
            x = m.quantile(coord)
            stat = scipy.stats.kstest(x, m.cdf).statistic
            threshold = np.sqrt(-np.log(0.001 / 2.0) / 2.0) / np.sqrt(x.size)
            assert stat < threshold

    def test_single_pair(self, rng):
        u, v = _pair_draws(0.5, rng, 1)
        x, y = ParetoMarginal(2.0).quantile(u), ParetoMarginal(2.0).quantile(v)
        assert x.shape == y.shape == (1,)
        assert x[0] >= 1.0 and y[0] >= 1.0

    @given(THETAS)
    @settings(max_examples=10)
    def test_conditional_inversion_residual(self, theta):
        # the second coordinate solves C_1(u, v) = v + theta (1 - 2u) v (1 - v) = w, its own uniform
        u, v = _pair_draws(theta, np.random.default_rng(11), 256)
        w = np.random.default_rng(11).random((256, 2))[:, 1]
        assert np.max(np.abs(v + theta * (1.0 - 2.0 * u) * v * (1.0 - v) - w)) <= 1e-12
        assert np.all((0.0 <= v) & (v <= 1.0))


class TestThetaSchedule:
    def test_window_rejects_zero_exponents(self):
        with pytest.raises(ParameterError, match="1/p - 1 < mu"):
            PowerSchedule(mu=0.0, nu=0.0).check_window(1.0)

    def test_window_rejects_right_violation(self):
        with pytest.raises(ParameterError, match="2/p - 2 - nu"):
            PowerSchedule(mu=1.6, nu=-1.5).check_window(1.0)

    def test_values(self):
        sched = PowerSchedule(mu=0.2, nu=-1.5)
        # direct power evaluation
        assert sched.theta(2, 3) == pytest.approx(0.22106710149173953, rel=1e-12)
        assert sched.theta(1, 1000) == pytest.approx(3.1622776601683795e-05, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(mu=math.nan, nu=-1.5), "finite mu, nu and scale >= 0"),
            (dict(mu=0.2, nu=math.inf), "finite mu, nu and scale >= 0"),
            (dict(mu=0.2, nu=-1.5, scale=-0.5), "finite mu, nu and scale >= 0"),
            (dict(mu=0.2, nu=-1.5, window=0), "dependence window must be positive"),
        ],
    )
    def test_construction_refusals(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            PowerSchedule(**kwargs)

    def test_analytic_use_takes_the_schedule_as_is(self):
        for sched in (PowerSchedule(0.2, -1.5, scale=0.5), PowerSchedule(0.2, -1.5, window=8)):
            with pytest.raises(ParameterError, match="scale is only for 'simulate'"):
                sched.check_window(1.0)

    def test_unit_scale_keeps_the_bits_of_the_bare_powers(self):
        sched = PowerSchedule(mu=0.2, nu=-1.5)
        for k, j in ((1, 2), (2, 3), (17, 1000)):
            assert sched.theta(k, j) == float(k) ** 0.2 * float(j) ** -1.5
        assert PowerSchedule(0.2, -1.5, scale=0.25).theta(2, 3) == 0.25 * 2.0**0.2 * 3.0**-1.5

    @pytest.mark.parametrize("mu, nu, k, j", [(999999.9999999999, -1e6, 2, 1000), (1100.0, -1100.5, 2, 3)])
    def test_overflowing_power_of_k_gives_theta(self, mu, nu, k, j):
        # k^mu alone passes the largest double; theta = k^mu j^nu lies in [0, 1]
        sched = PowerSchedule(mu=mu, nu=nu)
        sched.check_window(1.0)
        with mpmath.workdps(40):
            expected = float(mpmath.mpf(k) ** mu * mpmath.mpf(j) ** nu)  # 0.0 at the first, 1.2e-194 at the second
        assert sched.theta(k, j) == pytest.approx(expected, rel=1e-12)

    def test_index_validation(self):
        sched = PowerSchedule(mu=0.2, nu=-1.5)
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
        sched = PowerSchedule(mu=mu, nu=nu)
        sched.check_window(p)
        for k, j in ((1, 2), (2, 3), (1, 10**6), (999, 1000), (3, 50)):
            assert 0.0 <= sched.theta(k, j) <= 1.0

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=2, max_value=501))
    def test_bounded_by_diagonal_power(self, k, j):
        if k >= j:
            k, j = j - 1, k + 1
        sched = PowerSchedule(mu=0.2, nu=-1.5)
        assert sched.theta(k, j) <= float(j) ** (sched.mu + sched.nu) + 1e-15


P_RULE = "normalising exponent requires 1 <= p < 2, got p=2.0"
RS_RULE = "power-family copula requires r >= 1 and s >= 1, got r=0.5, s=1.0"
ALPHA_RULE = "Pareto tail index must be finite and positive, with 1/alpha finite, got 0.0"
PARETO_2 = ParetoMarginal(2.0)
WINDOWED = PowerSchedule(mu=0.2, nu=-1.5)

# every public entry taking p, (r, s) or a marginal, refused at p = 2, r = 0.5 or alpha = 0
RULE_REFUSALS = {
    "check_window-p": (lambda: WINDOWED.check_window(2.0), P_RULE),
    "EventSystem-p": (lambda: EventSystem(2.0, PARETO_2, WINDOWED), P_RULE),
    "EventSystem-rs": (lambda: EventSystem(1.0, PARETO_2, WINDOWED, r=0.5), RS_RULE),
    "EventSystem-alpha": (lambda: EventSystem(1.0, ParetoMarginal(0.0), WINDOWED), ALPHA_RULE),
    "SlnnRun-p": (lambda: SlnnRun(2.0, PARETO_2, None, n_max=128, replicates=1, seed=0), P_RULE),
    "SlnnRun-alpha": (lambda: SlnnRun(1.0, ParetoMarginal(0.0), None, n_max=128, replicates=1, seed=0), ALPHA_RULE),
    "majorant_sum-p": (lambda: majorant_sum(2.0, 0.2, -1.5, 1.0, 1.0, PARETO_2, 10), P_RULE),
    "majorant_sum-rs": (lambda: majorant_sum(1.0, 0.2, -1.5, 0.5, 1.0, PARETO_2, 10), RS_RULE),
    "majorant_sum-alpha": (lambda: majorant_sum(1.0, 0.2, -1.5, 1.0, 1.0, ParetoMarginal(0.0), 10), ALPHA_RULE),
    "tail_condition-p": (lambda: tail_condition(2.0, PARETO_2, 10), P_RULE),
    "tail_condition-alpha": (lambda: tail_condition(1.0, ParetoMarginal(0.0), 10), ALPHA_RULE),
    "GfmCopula-rs": (lambda: GfmCopula(theta=0.5, r=0.5), RS_RULE),
    "bracket_limit-rs": (lambda: bracket_limit(0.5, 1.0, PARETO_2), RS_RULE),
    "bracket_limit-alpha": (lambda: bracket_limit(1.0, 1.0, ParetoMarginal(0.0)), ALPHA_RULE),
    "g_closed_bracket-rs": (lambda: g_closed_bracket(0.5, 1.0, PARETO_2, 2.0), RS_RULE),
    "g_closed_bracket-alpha": (lambda: g_closed_bracket(1.0, 1.0, ParetoMarginal(0.0), 2.0), ALPHA_RULE),
    "g_factor-rs": (lambda: g_factor(0.5, 1.0, PARETO_2, [2.0]), RS_RULE),
    "g_factor-alpha": (lambda: g_factor(1.0, 1.0, ParetoMarginal(0.0), [2.0]), ALPHA_RULE),
    "factor_differences-rs": (lambda: factor_differences(0.5, 1.0, PARETO_2, [2.0], [1.0]), RS_RULE),
    "factor_differences-alpha": (lambda: factor_differences(1.0, 1.0, ParetoMarginal(0.0), [2.0], [1.0]), ALPHA_RULE),
    "ParetoMarginal-alpha": (lambda: ParetoMarginal(0.0), ALPHA_RULE),
}


@pytest.mark.parametrize("entry", RULE_REFUSALS)
def test_input_rule_has_one_error_and_one_message(entry):
    call, message = RULE_REFUSALS[entry]
    with pytest.raises(ParameterError) as refusal:
        call()
    assert str(refusal.value) == message
