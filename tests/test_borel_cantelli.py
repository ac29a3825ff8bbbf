import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqdslln.borel_cantelli
from pqdslln.borel_cantelli import (
    _CHUNK,
    EventSystem,
    GfmDependence,
    _joint_survival_fn,
    epsilon_bracket_check,
    event_prob,
    event_probs,
    pair_event_prob,
    renyi_lamperti_ratios,
    scaled_tail_ratio,
)
from pqdslln.copulas import GfmCopula, ThetaSchedule, power_factor
from pqdslln.errors import DomainError, ParameterError
from pqdslln.marginals import ParetoMarginal
from pqdslln.copulas import sample_pairs


def independent(alpha: float, p: float) -> EventSystem:
    return EventSystem(p=p, marginal=ParetoMarginal(alpha))


def gfm_system(alpha: float, p: float, mu: float = 0.2, nu: float = -1.5, r: float = 1.0, s: float = 1.0) -> EventSystem:
    dep = GfmDependence(r=r, s=s, schedule=ThetaSchedule(mu=mu, nu=nu, p=p))
    return EventSystem(p=p, marginal=ParetoMarginal(alpha), dependence=dep)


class TestGfmDependence:
    @pytest.mark.parametrize("r, s", [(0.5, 1.0), (1.0, 0.5), (0.5, 0.5)])
    def test_rejects_exponents_below_one(self, r, s):
        with pytest.raises(ParameterError, match="r >= 1 and s >= 1"):
            GfmDependence(r=r, s=s, schedule=ThetaSchedule(mu=0.2, nu=-1.5, p=1.0))


class TestEventProb:
    def test_upper_values(self):
        assert event_prob(independent(2.0, 1.0), 10) == pytest.approx(0.01)
        assert event_prob(independent(1.0, 1.0), 7) == pytest.approx(1.0 / 7.0)
        assert event_prob(independent(2.0, 1.0), 1) == 1.0

    def test_vector_matches_scalar(self):
        es = independent(1.5, 1.3)
        vec = event_probs(es, 20)
        for k in range(1, 21):
            assert vec[k - 1] == pytest.approx(event_prob(es, k), rel=1e-14)

    def test_validation(self):
        es = independent(2.0, 1.2)
        for k, j in ((0, 3), (-1, 3), (3, -1)):
            with pytest.raises(DomainError, match="event index"):
                event_prob(es, min(k, j))
            with pytest.raises(DomainError, match="event index"):
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
        theta = es.dependence.schedule.theta(2, 3)
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
        # sample the exact pair copula and count joint exceedances
        m = ParetoMarginal(2.0)
        copula = GfmCopula(theta=1.0, r=1.0, s=1.0)
        n = 2 * 10**5
        x, y = sample_pairs(copula, m, rng, n)
        target = 0.046296296296296294
        hit = float(np.mean((x > 2.0) & (y > 3.0)))
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(hit - target) <= 3.0 * se

    def test_linear_in_theta(self):
        es_full = gfm_system(2.0, 1.0)
        m = ParetoMarginal(2.0)
        theta = es_full.dependence.schedule.theta(4, 9)
        base = event_prob(es_full, 4) * event_prob(es_full, 9)
        increment = pair_event_prob(es_full, 4, 9) - base
        h4 = m.cdf(4.0) * (1.0 - m.cdf(4.0))
        h9 = m.cdf(9.0) * (1.0 - m.cdf(9.0))
        assert increment == pytest.approx(theta * h4 * h9, rel=1e-12)

    def test_symmetric_in_arguments(self):
        es = gfm_system(2.0, 1.0)
        assert pair_event_prob(es, 5, 2) == pytest.approx(pair_event_prob(es, 2, 5), rel=1e-14)

    def test_rejects_diagonal(self):
        with pytest.raises(DomainError):
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
    if es.dependence is not None:
        h = power_factor(np.asarray(es.marginal.cdf(thresholds), dtype=float), es.dependence.r, es.dependence.s)
        k_part = idx**es.dependence.schedule.mu * h
        j_part = idx**es.dependence.schedule.nu * h
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
        [independent(2.0, 1.0), gfm_system(2.0, 1.0), gfm_system(3.7, 1.3, mu=-0.2, nu=-0.9, r=2.0, s=1.5)],
        ids=["independent", "gfm", "gfm-r2-s1.5"],
    )
    def test_integrand_is_cdf_form(self, es):
        # P{X_k > x, X_j > y} = 1 - F(x) - F(y) + C(F(x), F(y)), across the support edge x = 1
        k, j = 4, 9
        copula = es.dependence.copula(k, j) if es.dependence else GfmCopula(theta=0.0)
        grid = np.concatenate([np.linspace(0.5, 3.0, 26), [10.0, 1e3, 1e6]])
        x, y = grid[:, None], grid[None, :]
        fx, fy = es.marginal.cdf(x), es.marginal.cdf(y)
        expected = 1.0 - fx - fy + copula.cdf(fx, fy)
        np.testing.assert_allclose(_joint_survival_fn(es, k, j)(x, y), expected, rtol=0.0, atol=1e-15)

    def test_validation(self):
        es = independent(2.0, 1.0)
        with pytest.raises(DomainError):
            epsilon_bracket_check(es, 2, 2, 1.5)
        with pytest.raises(DomainError):
            epsilon_bracket_check(es, 2, 3, 1.0)

    @pytest.mark.parametrize("k, j", [(0, 3), (-1, 3), (3, -1)])
    def test_event_index_is_refused_before_any_quadrature(self, k, j, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the bracket integral ran")

        monkeypatch.setattr(pqdslln.borel_cantelli, "adaptive_quad_2d_many", no_quadrature)
        with pytest.raises(DomainError, match="event index"):
            epsilon_bracket_check(independent(2.0, 1.2), k, j, 2.0)


class TestScaledTailRatio:
    def test_cap_regime(self):
        # n = 1, alpha = 2, p = 1, eps = 2: both sums are capped at 1
        out = scaled_tail_ratio(independent(2.0, 1.0), 2.0, 1)
        assert out.ratio == pytest.approx(1.0)
        assert out.lower == 1.0
        assert out.ratio <= out.upper

    def test_harmonic_value(self):
        # frozen: numerator 2 H_n - 1, denominator H_n at alpha = p = 1
        out = scaled_tail_ratio(independent(1.0, 1.0), 2.0, 10**4)
        assert out.ratio == pytest.approx(1.8978299702381416, abs=1e-12)
        assert out.upper == pytest.approx(2.204340059523717, abs=1e-12)
        assert out.ratio <= out.upper

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("eps", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [10**2, 10**4])
    def test_chain_grid(self, alpha, p, eps, n):
        out = scaled_tail_ratio(independent(alpha, p), eps, n)
        assert 1.0 <= out.ratio <= out.upper

    def test_validation(self):
        with pytest.raises(DomainError):
            scaled_tail_ratio(independent(2.0, 1.0), 1.0, 10)
        with pytest.raises(DomainError):
            scaled_tail_ratio(independent(2.0, 1.0), 2.0, 0)
