import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqdslln.borel_cantelli
from pqdslln.borel_cantelli import (
    _CHUNK,
    EventSystem,
    epsilon_bracket_check,
    event_prob,
    pair_event_prob,
    renyi_lamperti_ratios,
)
from pqdslln.copulas import GfmCopula, PowerSchedule, power_factor
from pqdslln.errors import ParameterError
from pqdslln.marginals import ParetoMarginal
from pqdslln.simulate import MultivariateFgmModel, _uniform_blocks


def independent(alpha: float, p: float) -> EventSystem:
    return EventSystem(p=p, marginal=ParetoMarginal(alpha))


def gfm_system(alpha: float, p: float, mu: float = 0.2, nu: float = -1.5, r: float = 1.0, s: float = 1.0) -> EventSystem:
    return EventSystem(p=p, marginal=ParetoMarginal(alpha), schedule=PowerSchedule(mu=mu, nu=nu), r=r, s=s)


class TestGfmDependence:
    @pytest.mark.parametrize("r, s", [(0.5, 1.0), (1.0, 0.5), (0.5, 0.5)])
    def test_rejects_exponents_below_one(self, r, s):
        with pytest.raises(ParameterError, match="r >= 1 and s >= 1"):
            gfm_system(2.0, 1.0, r=r, s=s)
        independent_system = EventSystem(p=1.0, marginal=ParetoMarginal(2.0), r=r, s=s)  # no dependence: r, s unused
        assert independent_system.r == r

    def test_schedule_checks_come_first(self):
        # p first (the event system and its schedule share one rule), then the window, the scale and the r, s rule
        with pytest.raises(ParameterError, match="normalising exponent requires 1 <= p < 2"):
            gfm_system(2.0, 2.5, r=0.5)
        with pytest.raises(ParameterError, match="1/p - 1 < mu"):
            EventSystem(1.0, ParetoMarginal(2.0), PowerSchedule(0.0, -1.5, scale=0.5))
        with pytest.raises(ParameterError, match="scale is only for 'simulate'"):
            EventSystem(1.0, ParetoMarginal(2.0), PowerSchedule(0.2, -1.5, scale=0.5), r=0.5)
        with pytest.raises(ParameterError, match="scale is only for 'simulate'"):
            EventSystem(1.0, ParetoMarginal(2.0), PowerSchedule(0.2, -1.5, window=4))
        with pytest.raises(ParameterError, match="normalising exponent requires 1 <= p < 2"):
            EventSystem(2.5, ParetoMarginal(2.0), r=0.5)


class TestEventProb:
    def test_upper_values(self):
        assert event_prob(independent(2.0, 1.0), 10) == pytest.approx(0.01)
        assert event_prob(independent(1.0, 1.0), 7) == pytest.approx(1.0 / 7.0)
        assert event_prob(independent(2.0, 1.0), 1) == 1.0

    def test_vector_matches_scalar(self):
        # the pair-sum ratio's vector of P(A_k), the survival at the thresholds k^(1/p)
        es = independent(1.5, 1.3)
        vec = es.marginal.survival(np.arange(1, 21, dtype=float) ** (1.0 / es.p))
        for k in range(1, 21):
            assert vec[k - 1] == pytest.approx(event_prob(es, k), rel=1e-14)

    def test_validation(self):
        es = independent(2.0, 1.2)
        for k, j in ((0, 3), (-1, 3), (3, -1)):
            with pytest.raises(ParameterError, match="event index"):
                event_prob(es, min(k, j))
            with pytest.raises(ParameterError, match="event index"):
                pair_event_prob(es, k, j)
        with pytest.raises(ParameterError):
            EventSystem(p=2.5, marginal=ParetoMarginal(2.0))


class TestPairEventProb:
    def test_independent_product(self):
        es = independent(2.0, 1.0)
        assert pair_event_prob(es, 2, 3) == pytest.approx((1.0 / 4.0) * (1.0 / 9.0), rel=1e-14)

    def test_direct_substitution(self):
        # theta_{2,3} = 1 via mu = nu = 0 is outside the schedule window, so
        # use a schedule-free check against the explicit formula instead
        es = gfm_system(2.0, 1.0)
        theta = es.schedule.theta(2, 3)
        expected = (1.0 / 36.0) + theta * (0.75 * 0.25) * ((8.0 / 9.0) * (1.0 / 9.0))
        assert pair_event_prob(es, 2, 3) == pytest.approx(expected, rel=1e-13)

    def test_unit_theta_reference_value(self):
        # frozen reference: theta = 1, r = s = 1, alpha = 2, p = 1, (k, j) = (2, 3)
        m = ParetoMarginal(2.0)
        copula = GfmCopula(theta=1.0, r=1.0, s=1.0)
        pk, pj = 0.25, 1.0 / 9.0
        delta = copula.perturbation_factor(m.cdf(2.0)) * copula.perturbation_factor(m.cdf(3.0))
        assert pk * pj + delta == pytest.approx(0.046296296296296294, rel=1e-13)

    def test_unit_theta_monte_carlo(self, rng):
        # sample the joint model at n = 2 with theta = 1, whose bivariate margin is the r = s = 1
        # copula, and count joint exceedances
        m = ParetoMarginal(2.0)
        model = MultivariateFgmModel.from_power_schedule(2, PowerSchedule(0.0, 0.0, 1.0))
        n = 2 * 10**5
        x, y = m.quantile(next(_uniform_blocks(model, [rng] * n, 2, np.empty((n, 2))))[1]).T
        target = 0.046296296296296294
        hit = float(np.mean((x > 2.0) & (y > 3.0)))
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(hit - target) <= 3.0 * se

    def test_linear_in_theta(self):
        es_full = gfm_system(2.0, 1.0)
        m = ParetoMarginal(2.0)
        theta = es_full.schedule.theta(4, 9)
        base = event_prob(es_full, 4) * event_prob(es_full, 9)
        increment = pair_event_prob(es_full, 4, 9) - base
        h4 = m.cdf(4.0) * (1.0 - m.cdf(4.0))
        h9 = m.cdf(9.0) * (1.0 - m.cdf(9.0))
        assert increment == pytest.approx(theta * h4 * h9, rel=1e-12)

    def test_symmetric_in_arguments(self):
        es = gfm_system(2.0, 1.0)
        assert pair_event_prob(es, 5, 2) == pytest.approx(pair_event_prob(es, 2, 5), rel=1e-14)

    def test_rejects_diagonal(self):
        with pytest.raises(ParameterError):
            pair_event_prob(independent(2.0, 1.0), 3, 3)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    @settings(max_examples=40)
    def test_pqd_lower_bound(self, k, j):
        if k == j:
            j = k + 1
        es = gfm_system(2.0, 1.0)
        assert pair_event_prob(es, k, j) >= event_prob(es, k) * event_prob(es, j) - 1e-15


def _whole_array_ratios(es: EventSystem, ns) -> np.ndarray:
    """The pair-sum ratio from running sums over the whole range 1..max(ns), the oracle of the chunked pass."""
    at = np.asarray(ns, dtype=int) - 1
    idx = np.arange(1, int(at.max()) + 2, dtype=float)
    thresholds = idx ** (1.0 / es.p)
    probs = np.asarray(es.marginal.survival(thresholds), dtype=float)
    s1 = np.cumsum(probs)[at]
    s2 = np.cumsum(probs * probs)[at]
    dep = 0.0
    if es.schedule is not None:
        h = power_factor(np.asarray(es.marginal.cdf(thresholds), dtype=float), es.r, es.s)
        k_part = idx**es.schedule.mu * h
        j_part = idx**es.schedule.nu * h
        dep = 2.0 * np.cumsum(j_part * (np.cumsum(k_part) - k_part))[at]
    return (s1 + s1**2 - s2 + dep) / s1**2


@st.composite
def _event_systems(draw):
    """A Pareto event system, independent (zero schedule) or with a power schedule inside its window."""
    alpha = draw(st.floats(min_value=0.5, max_value=4.0))
    p = draw(st.floats(min_value=1.0, max_value=1.99))
    if not draw(st.booleans()):
        return independent(alpha, p)
    lo = 1.0 / p - 1.0
    nu = lo - draw(st.floats(min_value=0.01, max_value=2.0))
    mu = lo + draw(st.floats(min_value=0.01, max_value=0.99)) * (2.0 / p - 2.0 - nu - lo)
    r, s = draw(st.floats(min_value=1.0, max_value=3.0)), draw(st.floats(min_value=1.0, max_value=3.0))
    return gfm_system(alpha, p, mu=mu, nu=nu, r=r, s=s)


# largest n from one to four chunks, at chunk edges and off them
_CHUNK_EDGES = [k * _CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1)] + [4 * _CHUNK - 1, 4 * _CHUNK]
_N_MAX = st.one_of(st.sampled_from(_CHUNK_EDGES), st.integers(min_value=1, max_value=4 * _CHUNK))


class TestRenyiLampertiRatio:
    @given(_event_systems(), _N_MAX, st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunks_keep_the_bits_of_the_whole_array(self, es, n_max, data):
        grid = data.draw(st.lists(st.integers(min_value=1, max_value=n_max), max_size=8)) + [n_max]
        grid = data.draw(st.permutations(grid))
        assert renyi_lamperti_ratios(es, grid).tobytes() == _whole_array_ratios(es, grid).tobytes()

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=1.0, max_value=1.99),
        st.lists(st.floats(min_value=-2.0, max_value=1.0), max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_minus_survival_is_the_cdf(self, alpha, p, low):
        # the chunked pass takes F = 1 - P(A_k) in place of a second power pass through cdf
        marginal = ParetoMarginal(alpha)
        t = np.concatenate([np.arange(1, 5001, dtype=float) ** (1.0 / p), low, [1.0]])
        assert np.asarray(marginal.cdf(t)).tobytes() == (1.0 - np.asarray(marginal.survival(t))).tobytes()

    def test_memory_does_not_grow_with_n(self):
        # running sums over the whole range 1..2^20 would hold 40 MB; the chunks hold about 2.5 MB
        es = gfm_system(2.0, 1.0)
        renyi_lamperti_ratios(es, [100])  # what the first call imports stays out of the measure
        tracemalloc.start()
        try:
            renyi_lamperti_ratios(es, [2**20])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_n_one(self):
        assert renyi_lamperti_ratios(independent(2.0, 1.0), [1])[0] == pytest.approx(1.0)

    def test_harmonic_exact_formula(self):
        # alpha = 1, p = 1: ratio = 1 + (H_n - H_n^(2)) / H_n^2 exactly
        grid = (10, 10**3, 10**4)
        for n, ratio in zip(grid, renyi_lamperti_ratios(independent(1.0, 1.0), grid)):
            k = np.arange(1, n + 1, dtype=float)
            h1 = math.fsum(1.0 / k)
            h2 = math.fsum(1.0 / k**2)
            expected = 1.0 + (h1 - h2) / h1**2
            assert ratio == pytest.approx(expected, abs=1e-10)

    def test_harmonic_value_at_1e4(self):
        assert renyi_lamperti_ratios(independent(1.0, 1.0), [10**4])[0] == pytest.approx(1.0850000756939122, abs=1e-10)

    def test_divergent_systems_approach_one_from_above(self):
        # strictly divergent tail index: ratio - 1 decays like 1/S_n
        for alpha, p in ((0.8, 1.0), (1.0, 1.5)):
            r4, r6 = renyi_lamperti_ratios(independent(alpha, p), [10**4, 10**6])
            assert 1.0 < r6 < r4
            assert r4 - 1.0 <= 0.2
            assert r6 - 1.0 <= 0.05

    def test_convergent_case_stays_away_from_one(self):
        # alpha = 2, p = 1: limit 1 + (zeta(2) - zeta(4)) / zeta(2)^2 = 1.2079
        ratios = renyi_lamperti_ratios(independent(2.0, 1.0), [2, 10, 100, 10**4])
        assert ratios[-1] == pytest.approx(1.207915423617771, abs=1e-9)
        assert np.all(ratios >= 1.1)

    def test_grid_version_matches_scalar(self):
        # each ratio of a grid is the ratio of its n alone
        es = gfm_system(2.0, 1.0)
        grid = np.array([1, 2, 10, 50, 200])
        ratios = renyi_lamperti_ratios(es, grid)
        for n, r in zip(grid, ratios):
            assert r == pytest.approx(renyi_lamperti_ratios(es, [int(n)])[0], rel=1e-14)

    def test_dependence_increases_pair_sum(self):
        (dep,) = renyi_lamperti_ratios(gfm_system(2.0, 1.0), [500])
        (ind,) = renyi_lamperti_ratios(independent(2.0, 1.0), [500])
        assert dep >= ind


class TestEpsilonBracket:
    def test_independent_reference(self):
        # alpha = 2, p = 1, (k, j) = (2, 3), eps = 2: lhs = 1/6, rhs = 1/24
        check = epsilon_bracket_check(independent(2.0, 1.0), 2, 3, 2.0)
        assert check.lhs == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert check.rhs == pytest.approx(1.0 / 24.0, rel=1e-12)
        assert check.holds

    def test_dependent_case_holds(self):
        check = epsilon_bracket_check(gfm_system(2.0, 1.0), 4, 9, 1.5)
        assert check.holds
        assert check.lhs >= check.rhs

    @pytest.mark.parametrize("k", [2, 4, 9, 16])
    @pytest.mark.parametrize("j", [3, 8, 27])
    @pytest.mark.parametrize("eps", [1.25, 1.5, 2.0, 4.0])
    def test_full_grid_gfm(self, k, j, eps):
        es = gfm_system(2.0, 1.0)
        check = epsilon_bracket_check(es, k, j, eps)
        assert check.holds

    @pytest.mark.parametrize(
        "es",
        [
            independent(2.0, 1.0),
            gfm_system(2.0, 1.0),
            gfm_system(3.7, 1.3, mu=-0.2, nu=-0.9, r=2.0, s=1.5),
            gfm_system(0.8, 1.2, r=1.0, s=2.5),
        ],
        ids=["independent", "gfm", "gfm-r2-s1.5", "gfm-alpha0.8"],
    )
    def test_integrand_is_cdf_form(self, es):
        # lhs is the box integral of P{X_k > x, X_j > y} = 1 - F(x) - F(y) + C(F(x), F(y)),
        # across the support edge x = 1; the last system has r alpha <= 1, where B(inf) diverges
        for k, j, eps in ((4, 9, 1.5), (1, 3, 2.0), (9, 2, 3.0), (1, 2, 1.05)):
            lhs = epsilon_bracket_check(es, k, j, eps).lhs
            assert lhs == pytest.approx(float(mpmath_bracket_lhs(es, k, j, eps)), rel=1e-13, abs=0.0)
            assert lhs == pytest.approx(cdf_form_box_integral(es, k, j, eps), rel=1e-10, abs=0.0)

    @given(
        alpha=st.floats(0.5, 4.0),
        p=st.floats(1.0, 1.9),
        nu_drop=st.floats(0.01, 2.0),
        mu_at=st.floats(0.01, 0.99),
        r=st.floats(1.0, 3.0),
        s=st.floats(1.0, 3.0),
        k=st.integers(1, 40),
        j=st.integers(1, 40),
        eps=st.floats(1.05, 10.0),
    )
    @example(alpha=0.5, p=1.0, nu_drop=0.5, mu_at=0.5, r=1.5, s=1.0, k=1, j=5, eps=2.0)  # r alpha < 1
    @example(alpha=1.0, p=1.5, nu_drop=0.3, mu_at=0.2, r=1.0, s=2.5, k=7, j=1, eps=1.3)  # r alpha = 1
    # both j-edges above x*: B(30) - B(27.43) is 1.09e-4 from two values of B near 0.2996
    @example(alpha=2.998856678703731, p=1.0, nu_drop=0.25, mu_at=0.5, r=1.0, s=1.0, k=2, j=30, eps=1.09375)
    @settings(max_examples=30, deadline=None)
    def test_matches_mpmath_product_of_integrals(self, alpha, p, nu_drop, mu_at, r, s, k, j, eps):
        if j == k:
            j = k + 1
        nu = 1.0 / p - 1.0 - nu_drop  # the window needs nu < 1/p - 1 < mu < 2/p - 2 - nu
        mu = (1.0 / p - 1.0) + mu_at * (1.0 / p - 1.0 - nu)
        es = gfm_system(alpha, p, mu=mu, nu=nu, r=r, s=s)
        lhs = epsilon_bracket_check(es, k, j, eps).lhs
        assert lhs == pytest.approx(float(mpmath_bracket_lhs(es, k, j, eps)), rel=1e-13, abs=0.0)

    def test_validation(self):
        es = independent(2.0, 1.0)
        with pytest.raises(ParameterError):
            epsilon_bracket_check(es, 2, 2, 1.5)
        with pytest.raises(ParameterError):
            epsilon_bracket_check(es, 2, 3, 1.0)

    @pytest.mark.parametrize("k, j", [(0, 3), (-1, 3), (3, -1)])
    def test_event_index_is_refused_before_any_quadrature(self, k, j, monkeypatch):
        def no_factor(*args, **kwargs):
            raise AssertionError("the covariance factor was evaluated")

        monkeypatch.setattr(pqdslln.borel_cantelli, "factor_differences", no_factor)
        es = gfm_system(0.8, 1.2)  # r alpha <= 1, where B(inf) diverges
        with pytest.raises(AssertionError, match="factor was evaluated"):
            epsilon_bracket_check(es, 2, 3, 2.0)
        with pytest.raises(ParameterError, match="event index"):
            epsilon_bracket_check(es, k, j, 2.0)


def cdf_form_box_integral(es: EventSystem, k: int, j: int, eps: float) -> float:
    """The bracket's box integral of 1 - F(x) - F(y) + C(F(x), F(y)), by 2-D quadrature split at the support edge."""
    copula = GfmCopula(es.schedule.theta(min(k, j), max(k, j)), es.r, es.s) if es.schedule else GfmCopula(theta=0.0)

    def joint_survival(y, x):
        fx, fy = es.marginal.cdf(x), es.marginal.cdf(y)
        return 1.0 - fx - fy + copula.cdf(fx, fy)

    def pieces(hi):
        lo = hi / eps
        return [(lo, 1.0), (1.0, hi)] if lo < 1.0 < hi else [(lo, hi)]

    total = 0.0
    for x0, x1 in pieces(es.threshold(k)):
        for y0, y1 in pieces(es.threshold(j)):
            total += scipy.integrate.dblquad(joint_survival, x0, x1, y0, y1, epsabs=0.0, epsrel=1e-12)[0]
    return total


def mpmath_bracket_lhs(es: EventSystem, k: int, j: int, eps: float):
    """The bracket's box integral as a product of 1-D integrals in mpmath.

    The joint survival is S(x) S(y) + theta f(x) f(y), f = F^s (1 - F)^r, so
    the box integral is the survival's integral on each axis times the other,
    plus theta times the factor's integrals, each split at the support edge.
    """
    with mpmath.workdps(30):
        alpha, r, s = (mpmath.mpf(v) for v in (es.marginal.alpha, es.r, es.s))

        def survival(x):
            return mpmath.mpf(1) if x <= 1 else x**-alpha

        def factor(x):
            return mpmath.mpf(0) if x <= 1 else (1 - x**-alpha) ** s * x ** (-alpha * r)

        def integral(fn, hi):
            lo = hi / eps
            return mpmath.quad(fn, [lo, 1, hi] if lo < 1 < hi else [lo, hi])

        xk, xj = (mpmath.mpf(i) ** (1 / mpmath.mpf(es.p)) for i in (k, j))
        lhs = integral(survival, xk) * integral(survival, xj)
        if es.schedule is not None:
            lo, hi = sorted((k, j))
            theta = mpmath.mpf(lo) ** es.schedule.mu * mpmath.mpf(hi) ** es.schedule.nu
            lhs += theta * integral(factor, xk) * integral(factor, xj)
        return +lhs


def tail_ratio_chain(es: EventSystem, eps: float, n: int) -> tuple[float, float]:
    """sum_{k<=n} P{eps X > k^(1/p)} / sum_{k<=n} P{X > k^(1/p)} and the chain's upper bound.

    The ceiling-scaled tail-ratio chain is 1 <= ratio <= eps^p + eps^p / sum_{k<=n} P{X > k^(1/p)}.
    """
    t = np.arange(1, n + 1, dtype=float) ** (1.0 / es.p)
    denom = math.fsum(es.marginal.survival(t))
    return math.fsum(es.marginal.survival(t / eps)) / denom, eps**es.p + eps**es.p / denom


class TestScaledTailRatio:
    def test_cap_regime(self):
        # n = 1, alpha = 2, p = 1, eps = 2: both sums are capped at 1
        ratio, upper = tail_ratio_chain(independent(2.0, 1.0), 2.0, 1)
        assert ratio == pytest.approx(1.0)
        assert ratio <= upper

    def test_harmonic_value(self):
        # frozen: numerator 2 H_n - 1, denominator H_n at alpha = p = 1
        ratio, upper = tail_ratio_chain(independent(1.0, 1.0), 2.0, 10**4)
        assert ratio == pytest.approx(1.8978299702381416, abs=1e-12)
        assert upper == pytest.approx(2.204340059523717, abs=1e-12)
        assert ratio <= upper

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("eps", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [10**2, 10**4])
    def test_chain_grid(self, alpha, p, eps, n):
        ratio, upper = tail_ratio_chain(independent(alpha, p), eps, n)
        assert 1.0 <= ratio <= upper
