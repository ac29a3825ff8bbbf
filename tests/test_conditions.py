import math

import mpmath
import numpy as np
import pytest

import pqdslln.conditions
from pqdslln.conditions import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    SeriesVerdict,
    classify_series,
    condition_terms,
    majorant_sum,
    tail_condition,
    verdict_from_terms,
)
from pqdslln.copulas import GfmCopula, ThetaSchedule
from pqdslln.errors import ParameterError
from pqdslln.gfun import DeltaField, bracket_limit, g_numeric
from pqdslln.marginals import ParetoMarginal

EXAMPLE = dict(p=1.0, mu=0.2, nu=-1.5, r=1.0, s=1.0)


def example_schedule() -> ThetaSchedule:
    return ThetaSchedule(mu=EXAMPLE["mu"], nu=EXAMPLE["nu"], p=EXAMPLE["p"])


def beta_bracket(r: float, s: float, u: float) -> float:
    # independent route: substitution t = 1/x^2 turns the factor integral into
    # 0.5 * integral_{1/u^2}^{1} (1-t)^s t^(r-3/2) dt
    if u <= 1.0:
        return 0.0
    return 0.5 * float(mpmath.quad(lambda t: (1 - t) ** s * t ** (r - 1.5), [1.0 / (u * u), 1.0]))


def brute_force_partial(kind: str, p: float, mu: float, nu: float, r: float, s: float, n: int) -> float:
    # one quadrature per index, reused for every pair it enters
    b = [None] + [beta_bracket(r, s, float(i) ** (1.0 / p)) for i in range(1, n + 1)]
    terms = []
    for j in range(2, n + 1):
        for k in range(1, j):
            theta = float(k) ** mu * float(j) ** nu
            g = theta * b[k] * b[j]
            if kind == "cs11":
                w = float(j) ** (-2.0 / p)
            elif kind == "nec12":
                w = (float(k) * float(j)) ** (-1.0 / p)
            else:
                raise ValueError(kind)
            terms.append(w * g)
    return math.fsum(terms)


class TestConditionSum:
    def test_zero_schedule_limit(self):
        # scale-free check: a schedule cannot be identically zero, but the
        # k = 1 column of terms always vanishes because the factor at the
        # support edge is 0; N = 2 therefore gives an exactly zero sum
        verdict = verdict_from_terms(*condition_terms("nec12", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 2))
        assert verdict.partial_sum == 0.0
        assert verdict.verdict == CONVERGES
        assert verdict.tail_estimate == 0.0

    @pytest.mark.parametrize("kind", ["cs11", "nec12"])
    def test_brute_force_oracle_small_n(self, kind):
        sched = example_schedule()
        verdict = verdict_from_terms(*condition_terms(kind, 1.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 60))
        expected = brute_force_partial(kind, 1.0, sched.mu, sched.nu, 1.0, 1.0, 60)
        assert verdict.partial_sum == pytest.approx(expected, rel=1e-10)

    def test_l1_equals_nec12_at_p1(self):
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        a = verdict_from_terms(*condition_terms("l1", 1.0, sched, 1.0, 1.0, m, 200))
        b = verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, 200))
        assert a.partial_sum == pytest.approx(b.partial_sum, rel=1e-12)

    def test_small_n_quadrature_cross_route(self):
        # deep oracle: raw double sum of 2D quadratures of the gap field
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        n = 12
        total = []
        for j in range(2, n + 1):
            for k in range(1, j):
                theta = sched.theta(k, j)
                field = DeltaField(GfmCopula(theta=theta, r=1.0, s=1.0), m)
                g = g_numeric(field, [(float(k), float(j))])[0]
                total.append((k * j) ** -1.0 * g)
        expected = math.fsum(total)
        verdict = verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, n))
        assert verdict.partial_sum == pytest.approx(expected, abs=1e-7)

    def test_example_configuration_converges(self):
        terms = condition_terms("nec12", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 2000)
        verdict = verdict_from_terms(*terms)
        assert verdict.verdict == CONVERGES
        # frozen from the incomplete-beta brute-force oracle
        assert verdict.partial_sum == pytest.approx(0.0426566684892755, rel=1e-9)
        assert verdict.fitted_decay_exponent < -1.8
        assert math.isfinite(verdict.tail_estimate)

    def test_example_increments_bounded_by_termwise_majorant(self):
        # increment bound needs the inner-sum integral-test constant
        # 1/(mu - 1/p + 1) = 5 on top of C; C alone only bounds end to end
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        s1000 = verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, 1000)).partial_sum
        s2000 = verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, 2000)).partial_sum
        assert s2000 >= s1000
        c_term = (4.0 / 9.0) / (sched.mu - 1.0 + 1.0)
        tail = math.fsum(float(j) ** -2.3 for j in range(1001, 2001))
        assert s2000 - s1000 <= c_term * tail

    def test_inside_window_decays_quadratically(self):
        # mu = 0.4, nu = -1.4 sits inside the window, majorant exponent
        # mu + nu - 2/p + 1 = -2: clearly summable
        sched = ThetaSchedule(mu=0.4, nu=-1.4, p=1.0)
        verdict = verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 2000))
        assert verdict.verdict == CONVERGES
        assert verdict.fitted_decay_exponent == pytest.approx(-2.0, abs=0.2)

    def test_partial_sum_nondecreasing_in_n(self):
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        sums = [
            verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, n)).partial_sum
            for n in (10, 50, 200, 800)
        ]
        assert all(s >= 0.0 for s in sums)
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_terms_nonnegative(self):
        j_values, terms = condition_terms("cs11", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 500)
        assert j_values[0] == 2 and j_values[-1] == 500
        assert np.all(terms >= 0.0)

    def test_p_mismatch_rejected(self):
        sched = ThetaSchedule(mu=0.1, nu=-1.4, p=1.2)
        with pytest.raises(ParameterError):
            condition_terms("nec12", 1.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 100)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            condition_terms("bogus", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 100)

    def test_nonstandard_alpha_uses_quadrature_factors(self):
        sched = example_schedule()
        verdict = verdict_from_terms(*condition_terms("nec12", 1.0, sched, 1.0, 1.0, ParetoMarginal(3.0), 40))
        # brute force with quadrature brackets for alpha = 3
        m = ParetoMarginal(3.0)

        def factor(u):
            if u <= 1.0:
                return 0.0
            return float(mpmath.quad(lambda x: (1 - x**-3.0) * x**-3.0, [1.0, u]))

        factors = [None] + [factor(float(i)) for i in range(1, 41)]
        total = math.fsum(
            (k * j) ** -1.0 * sched.theta(k, j) * factors[k] * factors[j]
            for j in range(2, 41)
            for k in range(1, j)
        )
        assert verdict.partial_sum == pytest.approx(total, rel=1e-8)


class TestFactorRoute:
    @pytest.mark.parametrize(
        "alpha,r,quadratures", [(2.0, 1.0, 0), (2.5, 1.0, 0), (1.5, 1.0, 0), (1.0, 1.0, 30), (0.5, 1.5, 30)]
    )
    def test_quadrature_only_where_the_closed_form_diverges(self, alpha, r, quadratures, monkeypatch):
        integrals = []  # one threshold per factor integral handed to the batched route
        original = pqdslln.conditions.g_factor

        def counting(r, s, marginal, us):
            integrals.extend(us)
            return original(r, s, marginal, us)

        monkeypatch.setattr(pqdslln.conditions, "g_factor", counting)
        condition_terms("nec12", 1.0, example_schedule(), r, 1.0, ParetoMarginal(alpha), 30)
        assert len(integrals) == quadratures


class TestTermwiseWeightComparison:
    def test_cs11_termwise_below_nec12(self):
        # j^(-2/p) <= (kj)^(-1/p) for k <= j, so each weighted term compares
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        _, t_cs = condition_terms("cs11", 1.0, sched, 1.0, 1.0, m, 500)
        _, t_nec = condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, 500)
        assert np.all(t_cs <= t_nec + 1e-15)


class TestMajorant:
    def test_constant_r1s1(self):
        bound = majorant_sum(1.0, 0.2, -1.5, 1.0, 1.0, 1000)
        assert bound.c_const == pytest.approx(4.0 / 9.0, rel=1e-12)
        # Sum_{j=2}^{1000} j^-2.3, frozen from exact summation; consistent
        # with zeta(2.3) - 1 = 0.432417... minus the integral-test tail
        assert bound.partial_sum == pytest.approx(0.43232102182117316, rel=1e-12)
        assert bound.tail_bound == pytest.approx(1000.0**-1.3 / 1.3, rel=1e-12)
        assert bound.exponent == pytest.approx(-2.3)

    def test_tail_flag_infinite_at_harmonic(self):
        # mu = 2/p - 2 - nu is the excluded window edge; the majorant helper
        # still evaluates there and flags the harmonic tail as infinite
        bound = majorant_sum(1.0, 0.5, -0.5, 1.0, 1.0, 100)
        assert bound.exponent == pytest.approx(-1.0)
        assert bound.tail_bound == math.inf
        assert math.isfinite(bound.partial_sum)

    def test_majorant_dominates_partial_sums_at_every_n(self):
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        j_values, terms = condition_terms("nec12", 1.0, sched, 1.0, 1.0, m, 2000)
        bound = majorant_sum(1.0, sched.mu, sched.nu, 1.0, 1.0, 2000)
        partial_cum = np.cumsum(terms)
        majorant_cum = bound.c_const * np.cumsum(j_values.astype(float) ** bound.exponent)
        assert np.all(partial_cum <= majorant_cum + 1e-15)

    def test_out_of_window_exponent_still_evaluates(self):
        bound = majorant_sum(1.0, -0.5, -1.5, 1.0, 1.0, 100)
        assert bound.exponent == pytest.approx(-3.0)
        assert math.isfinite(bound.tail_bound)

    @pytest.mark.parametrize("mu", [-0.5, 0.0])
    def test_inner_sum_factor_infinite_without_a_power_bound(self, mu):
        # mu - 1/p + 1 <= 0: sum_{k<j} k^(mu-1/p) is not bounded by j^(mu-1/p+1)/(mu-1/p+1)
        assert majorant_sum(1.0, mu, -1.5, 1.0, 1.0, 100).inner_sum_factor == math.inf

    @pytest.mark.parametrize(
        "p, mu, nu, r, s, alpha",
        [
            (1.0, 0.2, -1.5, 1.0, 1.0, 2.0),
            (1.0, 0.01, -1.2, 1.0, 1.0, 1.2),  # B(inf)^2 = 18.4 at alpha = 1.2, not the alpha = 2 value 4/9
            (1.3, -0.221, -0.9615, 2.0, 1.0, 3.7),  # needs the inner-sum factor 1/(mu - 1/p + 1) = 102
        ],
    )
    def test_majorant_bounds_every_term_at_the_marginal_alpha(self, p, mu, nu, r, s, alpha):
        schedule = ThetaSchedule(mu=mu, nu=nu, p=p)
        j_values, terms = condition_terms("nec12", p, schedule, r, s, ParetoMarginal(alpha), 200)
        bound = majorant_sum(p, mu, nu, r, s, 200, alpha)
        assert bound.c_const == bracket_limit(r, s, alpha) ** 2
        assert bound.inner_sum_factor == pytest.approx(1.0 / (mu - 1.0 / p + 1.0), rel=1e-12)
        majorant_terms = bound.c_const * bound.inner_sum_factor * j_values.astype(float) ** bound.exponent
        assert np.all(terms <= majorant_terms)
        assert np.all(np.cumsum(terms) <= np.cumsum(majorant_terms))


class TestClassifier:
    @pytest.mark.parametrize("q", [-3.0, -2.0, -1.5, -1.2, -1.1])
    def test_synthetic_convergent(self, q):
        js = np.arange(2, 10**4 + 1)
        exponent, verdict, tail = classify_series(js, js.astype(float) ** q)
        assert verdict == CONVERGES
        assert exponent == pytest.approx(q, abs=1e-6)
        assert math.isfinite(tail)

    @pytest.mark.parametrize("q", [-1.0, -0.9, -0.5, 0.0])
    def test_synthetic_divergent(self, q):
        js = np.arange(2, 10**4 + 1)
        exponent, verdict, _ = classify_series(js, js.astype(float) ** q)
        assert verdict == DIVERGES
        assert exponent == pytest.approx(q, abs=1e-6)

    def test_synthetic_band_is_inconclusive(self):
        js = np.arange(2, 10**4 + 1)
        _, verdict, _ = classify_series(js, js.astype(float) ** -1.02)
        assert verdict == INCONCLUSIVE

    def test_all_zero(self):
        js = np.arange(2, 100)
        exponent, verdict, tail = classify_series(js, np.zeros(js.size))
        assert verdict == CONVERGES and tail == 0.0 and math.isnan(exponent)

    def test_verdict_invariant(self):
        with pytest.raises(ParameterError):
            SeriesVerdict(partial_sum=1.0, n_terms=10, fitted_decay_exponent=-2.0, tail_estimate=math.inf, verdict=CONVERGES)


class TestTailCondition:
    def test_basel_sum(self):
        verdict = tail_condition(1.0, ParetoMarginal(2.0), 10**6)
        assert verdict.verdict == CONVERGES
        # frozen exact partial sum; within the integral-test tail of zeta(2)
        assert verdict.partial_sum == pytest.approx(1.6449330668487265, rel=1e-12)
        assert abs(verdict.partial_sum + verdict.tail_estimate - math.pi**2 / 6.0) <= 1e-3

    def test_harmonic_diverges(self):
        verdict = tail_condition(1.0, ParetoMarginal(1.0), 10**4)
        assert verdict.verdict == DIVERGES
        assert verdict.tail_estimate == math.inf

    def test_p15_alpha2(self):
        verdict = tail_condition(1.5, ParetoMarginal(2.0), 10**4)
        assert verdict.verdict == CONVERGES
        assert ParetoMarginal(2.0).abs_moment(1.5) == pytest.approx(4.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.9])
    def test_equivalence_with_moment(self, alpha, p):
        m = ParetoMarginal(alpha)
        verdict = tail_condition(p, m, 2000)
        assert (verdict.verdict == CONVERGES) == math.isfinite(m.abs_moment(p))
