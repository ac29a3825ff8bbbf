import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.special import hyp2f1

from pqdslln.conditions import (
    CONVERGES,
    DIVERGES,
    SeriesVerdict,
    condition_terms,
    decay_exponent,
    majorant_sum,
    tail_condition,
    verdict_from_terms,
)
from pqdslln.copulas import GfmCopula, PowerSchedule
from pqdslln.errors import ParameterError
from pqdslln.gfun import DeltaField, bracket_limit, g_numeric
from pqdslln.marginals import ParetoMarginal

EXAMPLE = dict(p=1.0, mu=0.2, nu=-1.5, r=1.0, s=1.0)


def example_schedule() -> PowerSchedule:
    return PowerSchedule(mu=EXAMPLE["mu"], nu=EXAMPLE["nu"])


def series_verdict(kind, p, schedule, r, s, marginal, n_terms) -> SeriesVerdict:
    j_values, terms = condition_terms(kind, p, schedule, r, s, marginal, n_terms)
    return verdict_from_terms(j_values, terms, decay_exponent(kind, p, schedule, r, marginal))


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
        verdict = series_verdict("nec12", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 2)
        assert verdict.partial_sum == 0.0
        assert verdict.verdict == CONVERGES
        assert verdict.tail_estimate == 0.0

    @pytest.mark.parametrize("kind", ["cs11", "nec12"])
    def test_brute_force_oracle_small_n(self, kind):
        sched = example_schedule()
        verdict = series_verdict(kind, 1.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 60)
        expected = brute_force_partial(kind, 1.0, sched.mu, sched.nu, 1.0, 1.0, 60)
        assert verdict.partial_sum == pytest.approx(expected, rel=1e-10)

    def test_l1_equals_nec12_at_p1(self):
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        a = series_verdict("l1", 1.0, sched, 1.0, 1.0, m, 200)
        b = series_verdict("nec12", 1.0, sched, 1.0, 1.0, m, 200)
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
        verdict = series_verdict("nec12", 1.0, sched, 1.0, 1.0, m, n)
        assert verdict.partial_sum == pytest.approx(expected, abs=1e-7)

    def test_example_configuration_converges(self):
        verdict = series_verdict("nec12", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 2000)
        assert verdict.verdict == CONVERGES
        # frozen from the incomplete-beta brute-force oracle
        assert verdict.partial_sum == pytest.approx(0.0426566684892755, rel=1e-9)
        assert verdict.decay_exponent == pytest.approx(-2.3, abs=1e-15)
        assert math.isfinite(verdict.tail_estimate)

    def test_example_increments_bounded_by_termwise_majorant(self):
        # increment bound needs the inner-sum integral-test constant
        # 1/(mu - 1/p + 1) = 5 on top of C; C alone only bounds end to end
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        s1000 = series_verdict("nec12", 1.0, sched, 1.0, 1.0, m, 1000).partial_sum
        s2000 = series_verdict("nec12", 1.0, sched, 1.0, 1.0, m, 2000).partial_sum
        assert s2000 >= s1000
        c_term = (4.0 / 9.0) / (sched.mu - 1.0 + 1.0)
        tail = math.fsum(float(j) ** -2.3 for j in range(1001, 2001))
        assert s2000 - s1000 <= c_term * tail

    def test_inside_window_decays_quadratically(self):
        # mu = 0.4, nu = -1.4 sits inside the window, majorant exponent
        # mu + nu - 2/p + 1 = -2: clearly summable
        sched = PowerSchedule(mu=0.4, nu=-1.4)
        verdict = series_verdict("nec12", 1.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 2000)
        assert verdict.verdict == CONVERGES
        assert verdict.decay_exponent == pytest.approx(-2.0, abs=1e-15)

    def test_partial_sum_nondecreasing_in_n(self):
        sched = example_schedule()
        m = ParetoMarginal(2.0)
        sums = [
            series_verdict("nec12", 1.0, sched, 1.0, 1.0, m, n).partial_sum
            for n in (10, 50, 200, 800)
        ]
        assert all(s >= 0.0 for s in sums)
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_terms_nonnegative(self):
        j_values, terms = condition_terms("cs11", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 500)
        assert j_values[0] == 2 and j_values[-1] == 500
        assert np.all(terms >= 0.0)

    def test_p_mismatch_rejected(self):
        # inside the window at p = 1.2, outside it at the series' p = 1
        sched = PowerSchedule(mu=-0.1, nu=-0.9)
        sched.check_window(1.2)
        with pytest.raises(ParameterError, match="1/p - 1 < mu"):
            condition_terms("nec12", 1.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 100)
        with pytest.raises(ParameterError, match="scale is only for 'simulate'"):
            condition_terms("nec12", 1.2, PowerSchedule(mu=-0.1, nu=-0.9, scale=0.5), 1.0, 1.0, ParetoMarginal(2.0), 100)
        # the window is checked before any weight exponent divides by p
        with pytest.raises(ParameterError, match="1 <= p < 2"):
            condition_terms("nec12", 0.0, sched, 1.0, 1.0, ParetoMarginal(2.0), 100)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            condition_terms("bogus", 1.0, example_schedule(), 1.0, 1.0, ParetoMarginal(2.0), 100)

    def test_nonstandard_alpha_uses_quadrature_factors(self):
        sched = example_schedule()
        verdict = series_verdict("nec12", 1.0, sched, 1.0, 1.0, ParetoMarginal(3.0), 40)
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


def oracle_terms(kind: str, p: float, mu: float, nu: float, r: float, s: float, alpha: float, n: int) -> np.ndarray:
    # T_j for j = 2..n from scipy's 2F1: B(u) = B_F(s + 1, r - 1/alpha)/alpha with
    # B_F(a, b) = F^a/a 2F1(a, 1 - b; a + 1; F), which holds for b <= 0 too
    wk, wj, inv_p = {"cs11": (0.0, -2.0 / p, 1.0 / p), "nec12": (-1.0 / p, -1.0 / p, 1.0 / p), "l1": (-1.0, -1.0, 1.0)}[kind]
    idx = np.arange(1, n + 1, dtype=float)
    f = -np.expm1(-alpha * inv_p * np.log(idx))
    a = s + 1.0
    b = f**a / a * hyp2f1(a, 1.0 - (r - 1.0 / alpha), a + 1.0, f) / alpha
    inner = np.cumsum(idx ** (wk + mu) * b)
    return idx[1:] ** (wj + nu) * b[1:] * inner[:-1]


class TestDecayExponent:
    @given(
        kind=st.sampled_from(["cs11", "nec12", "l1"]),
        p=st.floats(1.0, 2.0, exclude_max=True),
        mu=st.floats(-0.5, 1.0),
        nu=st.floats(-3.0, 0.0),
        alpha=st.floats(0.5, 4.0),
        r=st.floats(1.0, 4.0),
        s=st.floats(1.0, 3.0),
    )
    # a double sum of the exponent rounds to exactly -1 here: p is 1 ulp below 2
    @example(kind="cs11", p=1.9999999999999998, mu=0.0, nu=-1.0, alpha=1.0, r=2.0, s=1.0)
    def test_every_in_window_series_converges(self, kind, p, mu, nu, alpha, r, s):
        schedule = PowerSchedule(mu=mu, nu=nu)
        try:
            schedule.check_window(p)
        except ParameterError:
            assume(False)
        assume(r * alpha > 1.0)
        marginal = ParetoMarginal(alpha)
        assert decay_exponent(kind, p, schedule, r, marginal) < -1.0
        verdict = series_verdict(kind, p, schedule, r, s, marginal, 50)
        assert verdict.verdict == CONVERGES
        assert math.isfinite(verdict.tail_estimate)

    @pytest.mark.parametrize("p, r", [(0.0, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_refuses_p_outside_the_window_and_a_non_finite_r(self, p, r):
        with pytest.raises(ParameterError):
            decay_exponent("nec12", p, example_schedule(), r, ParetoMarginal(2.0))

    @pytest.mark.parametrize(
        "kind, p, mu, nu, alpha",
        [
            ("nec12", 1.0, 0.2, -1.5, 0.3),  # r alpha < 1: B grows like u^0.7, e = -0.9
            ("nec12", 1.0, 0.2, -1.5, 0.5),
            ("nec12", 1.0, 0.2, -1.5, 1.0),  # r alpha = 1: B grows like log u
            ("l1", 1.3, -0.1, -0.9, 0.6),
            ("cs11", 1.9, -0.05, -0.9, 2.0),  # e = -1.0026, beside the harmonic boundary
        ],
    )
    def test_local_slope_approaches_the_exponent(self, kind, p, mu, nu, alpha):
        exponent = decay_exponent(kind, p, PowerSchedule(mu=mu, nu=nu), 1.0, ParetoMarginal(alpha))
        terms = oracle_terms(kind, p, mu, nu, 1.0, 1.0, alpha, 2**16)  # terms[j - 2] = T_j
        errors = [
            abs(math.log(terms[n - 2] / terms[n // 2 - 2]) / math.log(2.0) - exponent) for n in (2**10, 2**13, 2**16)
        ]
        assert errors[0] > errors[1] > errors[2]
        # a wrong exponent leaves an error that levels off near the distance to the right one
        assert errors[2] < errors[0] / 1.5


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
        schedule = PowerSchedule(mu=mu, nu=nu)
        j_values, terms = condition_terms("nec12", p, schedule, r, s, ParetoMarginal(alpha), 200)
        bound = majorant_sum(p, mu, nu, r, s, 200, alpha)
        assert bound.c_const == bracket_limit(r, s, alpha) ** 2
        assert bound.inner_sum_factor == pytest.approx(1.0 / (mu - 1.0 / p + 1.0), rel=1e-12)
        majorant_terms = bound.c_const * bound.inner_sum_factor * j_values.astype(float) ** bound.exponent
        assert np.all(terms <= majorant_terms)
        assert np.all(np.cumsum(terms) <= np.cumsum(majorant_terms))


class TestClassifier:
    """The verdict and integral-test tail of a pure power series j^q, q given."""

    @pytest.mark.parametrize("q", [-3.0, -2.0, -1.5, -1.2, -1.1, -1.02])
    def test_synthetic_convergent(self, q):
        n = 10**4
        js = np.arange(2, n + 1)
        verdict = verdict_from_terms(js, js.astype(float) ** q, q)
        assert verdict.verdict == CONVERGES
        assert verdict.decay_exponent == q
        # integral test: the Hurwitz tail sum_{j>N} j^q <= N^(q+1)/(-q-1) <= tail + N^q
        tail = float(mpmath.zeta(-q, n + 1))
        assert tail <= verdict.tail_estimate <= tail + float(n) ** q

    @pytest.mark.parametrize("q", [-1.0, -0.9, -0.5, 0.0])
    def test_synthetic_divergent(self, q):
        js = np.arange(2, 10**4 + 1)
        verdict = verdict_from_terms(js, js.astype(float) ** q, q)
        assert verdict.verdict == DIVERGES
        assert verdict.tail_estimate == math.inf

    def test_all_zero(self):
        js = np.arange(2, 3)
        verdict = verdict_from_terms(js, np.zeros(js.size), -2.3)
        assert verdict.verdict == CONVERGES and verdict.tail_estimate == 0.0 and verdict.partial_sum == 0.0

    def test_verdict_invariant(self):
        with pytest.raises(ParameterError):
            SeriesVerdict(partial_sum=1.0, n_terms=10, decay_exponent=-2.0, tail_estimate=math.inf, verdict=CONVERGES)


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
