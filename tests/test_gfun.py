import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import beta

import pqdslln.gfun
from pqdslln.copulas import GfmCopula
from pqdslln.errors import NumericError, ParameterError
from pqdslln.gfun import (
    _hyp_series,
    bracket_limit,
    factor_differences,
    g_closed_bracket,
    g_factor,
    g_numeric,
)
from pqdslln.marginals import ParetoMarginal

from bracket_oracles import incomplete_beta_bracket, mpmath_bracket

PARAM_GRID = [(1.0, 1.0), (2.0, 1.0), (1.5, 2.0), (3.0, 3.0)]
UV_GRID = [1.5, 2.0, 5.0, 20.0]
ALPHA_GRID = [1.1, 1.5, 2.0, 2.5, 3.7, 6.0]
PARETO_2 = ParetoMarginal(2.0)  # the reference law of the worked configuration


def closed_bracket_r1s1(u: float) -> float:
    # antiderivative of x^-2 - x^-4 over [1, u]
    return 2.0 / 3.0 - 1.0 / u + 1.0 / (3.0 * u**3)


def scalar_2f1(b: float, c: float, z: float) -> float:
    """The series 2F1(1, b; c; z) one z at a time, as a Python-float loop (test oracle)."""
    total = term = 1.0
    for n in range(1_000_000):
        term *= (b + n) / (c + n) * z
        total += term
        if abs(term) <= 1e-15 * abs(total):
            break
    return total


def scalar_closed_bracket(r: float, s: float, u: float, alpha: float = 2.0) -> float:
    """B(u) at one threshold: the side of x* chosen in Python, the scalar series (test oracle).

    The elementwise numpy kernels (log, exp, expm1, log1p, power) run on a
    one-element array, since numpy's SIMD kernels may differ from libm's in
    the last bit.
    """
    a, b = s + 1.0, r - 1.0 / alpha
    log_tail = -alpha * np.log(np.array([u]))
    g = np.exp(log_tail)
    if g[0] > (b + 1.0) / (a + b + 2.0):  # F < x* = (a + 1) / (a + b + 2)
        f = -np.expm1(log_tail)
        value = f**a * np.exp(b * log_tail) / (a * alpha) * scalar_2f1(a + b, a + 1.0, float(f[0]))
    else:
        lead = np.exp(a * np.log1p(-g) + b * log_tail)
        value = bracket_limit(r, s, ParetoMarginal(alpha)) - lead / (b * alpha) * scalar_2f1(a + b, b + 1.0, float(g[0]))
    return float(value[0])


def closed_g(theta: float, r: float, s: float, u: float, v: float, alpha: float = 2.0) -> float:
    """G(u, v) = theta * B(u) * B(v) from the closed-form factor, the product `g eval` forms."""
    return theta * g_closed_bracket(r, s, ParetoMarginal(alpha), u) * g_closed_bracket(r, s, ParetoMarginal(alpha), v)


def delta(copula, marginal, x, y):
    """The pointwise dependence gap gap(F(x), F(y)) that ``g_numeric`` integrates."""
    return copula.gap(marginal.cdf(x), marginal.cdf(y))


def counting_copula(theta: float, r: float = 1.0, s: float = 1.0):
    """A power-family copula that tallies the integrand nodes its gap is evaluated at, and the tally."""
    nodes = []

    class CountingCopula(GfmCopula):
        def gap(self, u, v):
            nodes.append(np.broadcast(u, v).size)
            return super().gap(u, v)

    return CountingCopula(theta, r, s), nodes


class ProfileCopula:
    """The perturbation copula u v + phi(u) phi(v), given by its gap alone.

    ``g_numeric`` integrates whatever gap its copula holds, never the power
    family's closed form, so this copula checks it from outside the family's code.
    """

    def __init__(self, profile):
        self.profile = profile

    def gap(self, u, v):
        return np.asarray(self.profile(np.asarray(u, dtype=float))) * np.asarray(self.profile(np.asarray(v, dtype=float)))


class TestDelta:
    def test_zero_for_independence(self):
        copula, m = GfmCopula(theta=0.0), ParetoMarginal(2.0)
        for x, y in ((1.5, 2.0), (3.0, 10.0)):
            assert delta(copula, m, x, y) == 0.0

    def test_zero_below_support(self):
        copula, m = GfmCopula(theta=1.0), ParetoMarginal(2.0)
        assert delta(copula, m, 0.5, 3.0) == 0.0
        assert delta(copula, m, 3.0, 0.99) == 0.0

    def test_direct_substitution(self):
        copula = GfmCopula(theta=0.5, r=1.0, s=1.0)
        x = math.sqrt(2.0)  # F(x) = 0.5
        assert delta(copula, ParetoMarginal(2.0), x, x) == pytest.approx(0.5 * 0.25 * 0.25, rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_nonnegative_for_pqd(self, theta, r, s, x, y):
        assert delta(GfmCopula(theta=theta, r=r, s=s), ParetoMarginal(2.0), x, y) >= -1e-15

    def test_perturbation_copula_field(self):
        copula = ProfileCopula(lambda t: t * (1.0 - t))
        x = math.sqrt(2.0)
        assert delta(copula, ParetoMarginal(2.0), x, x) == pytest.approx(0.25 * 0.25, rel=1e-12)


class TestGFactor:
    def test_empty_range(self):
        m = ParetoMarginal(2.0)
        assert g_factor(1.0, 1.0, m, [1.0]).tolist() == [0.0]
        with pytest.raises(ParameterError, match="support edge"):  # below the support, as the closed form
            g_factor(1.0, 1.0, m, [1.0, 0.5])

    def test_closed_antiderivative_r1s1(self):
        m = ParetoMarginal(2.0)
        us = (1.1, 2.0, 10.0, 1e3)
        for u, factor in zip(us, g_factor(1.0, 1.0, m, us)):
            assert factor == pytest.approx(closed_bracket_r1s1(u), abs=1e-10)

    def test_limit_matches_bracket_limit(self):
        m = ParetoMarginal(2.0)
        assert bracket_limit(1.0, 1.0, PARETO_2) == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert g_factor(1.0, 1.0, m, [1e5])[0] == pytest.approx(2.0 / 3.0, abs=1e-4)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_threshold_is_parameter_error(self, u):
        with pytest.raises(ParameterError, match="finite"):
            g_factor(1.0, 1.0, ParetoMarginal(2.0), [2.0, u])


class TestClosedForm:
    def test_zero_theta(self):
        assert closed_g(0.0, 1.0, 1.0, 2.0, 2.0) == 0.0

    def test_r1s1_value(self):
        value = closed_g(0.5, 1.0, 1.0, 2.0, 2.0)
        assert value == pytest.approx(0.5 * (5.0 / 24.0) ** 2, rel=1e-12)

    def test_bracket_equals_antiderivative_r1s1(self):
        for u in (1.1, 2.0, 10.0, 1e3):
            assert g_closed_bracket(1.0, 1.0, PARETO_2, u) == pytest.approx(closed_bracket_r1s1(u), abs=1e-10)

    def test_bracket_at_support_edge(self):
        assert g_closed_bracket(1.5, 2.0, PARETO_2, 1.0) == 0.0

    @pytest.mark.parametrize("r", [1e17, 1e300])
    def test_support_edge_at_huge_r(self, r):
        # b = r - 1/alpha past about 3e16 rounds the split point h to 1, so 1 - F = 1 at u = 1 meets it
        with mpmath.workdps(40):
            limit = float(1 / (2 * mpmath.mpf(r) - 1) - 1 / (2 * mpmath.mpf(r) + 1))  # B(inf) at s = 1, alpha = 2
        assert g_closed_bracket(r, 1.0, PARETO_2, 1.0) == 0.0
        values = g_closed_bracket(r, 1.0, PARETO_2, np.array([1.0, 2.0, 1e10]))
        assert values[0] == 0.0
        assert values[1:].tolist() == pytest.approx([limit, limit], rel=1e-12)  # x^-2r has all but vanished by u = 2
        assert factor_differences(r, 1.0, PARETO_2, [2.0], [1.0])[0] == pytest.approx(limit, rel=1e-12)

    @pytest.mark.parametrize("r", [1e305, 1e306, 1e307, 5e307, 9e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("s", [1e305, 1e306, 1e307, 5e307, 9e307, 1e308, 1.7e308])
    def test_both_exponents_near_the_largest_double(self, r, s):
        # B(inf) = Beta(s + 1, r - 1/alpha) / 2 lies far below the smallest subnormal double, so every
        # B(u) <= B(inf) rounds to 0; lgamma of the smaller argument overflows past about 2.5e305, and
        # a + b = s + 1 + r - 1/alpha past the largest double
        us = np.array([1.0, 2.0, 3.0, 1e300])
        assert bracket_limit(r, s, PARETO_2) == 0.0
        assert g_closed_bracket(r, s, PARETO_2, us).tolist() == [0.0] * 4
        assert g_closed_bracket(r, s, PARETO_2, 1.0) == 0.0
        assert factor_differences(r, s, PARETO_2, [3.0, 1e300], [1.0, 2.0]).tolist() == [0.0, 0.0]

    def test_domain(self):
        with pytest.raises(ParameterError):
            g_closed_bracket(1.0, 1.0, PARETO_2, 0.8)
        with pytest.raises(ParameterError):
            g_closed_bracket(0.5, 1.0, PARETO_2, 2.0)

    @pytest.mark.parametrize("r,s", [*PARAM_GRID, (1.0, 50.0)])
    def test_monotone_and_nonnegative(self, r, s):
        values = [g_closed_bracket(r, s, PARETO_2, u) for u in (1.0, 1.2, 1.5, 2.0, 5.0, 20.0, 1e3)]
        assert all(v >= 0.0 for v in values)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_thresholds_match_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for case in range(60):
            r = float(rng.uniform(1.0, 4.0))
            s = float(rng.integers(1, 5)) if case % 3 == 0 else float(rng.uniform(1.0, 4.0))
            p = float(rng.uniform(1.0, 2.0))
            n = 2 if case < 3 else int(np.exp(rng.uniform(math.log(2.0), math.log(3000.0))))
            u = np.arange(1, n + 1, dtype=float) ** (1.0 / p)  # u[0] == 1, the support edge
            expected = np.array([scalar_closed_bracket(r, s, float(x)) for x in u])
            got = g_closed_bracket(r, s, PARETO_2, u)
            assert got[0] == 0.0
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (r, s, p, n)

    def test_scalar_and_zero_dim_give_float(self):
        for u in (2.5, np.float64(2.5), np.array(2.5)):
            value = g_closed_bracket(1.5, 2.5, PARETO_2, u)
            assert type(value) is float
            assert value == scalar_closed_bracket(1.5, 2.5, 2.5)
        assert type(g_closed_bracket(1.5, 2.5, PARETO_2, np.array(1.0))) is float

    def test_array_shape_and_domain(self):
        u = np.array([[1.0, 2.0], [3.0, 40.0]])
        assert g_closed_bracket(2.0, 3.0, PARETO_2, u).shape == (2, 2)
        with pytest.raises(ParameterError):
            g_closed_bracket(1.0, 1.0, PARETO_2, np.array([2.0, 0.8]))

    @pytest.mark.parametrize("r,s", PARAM_GRID)
    def test_asymptote(self, r, s):
        # at r = 1 the correction is 1/u - 1/(3u^3), i.e. 1e-6 minus an
        # unrepresentable 3e-19 at u = 1e6; allow float-level headroom
        assert g_closed_bracket(r, s, PARETO_2, 1e6) == pytest.approx(bracket_limit(r, s, PARETO_2), abs=1.01e-6)


class TestClosedFormEveryAlpha:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_relative_accuracy_against_incomplete_beta(self, alpha):
        rng = np.random.default_rng(int(alpha * 10))
        half = 2.0 ** (1.0 / alpha)  # F = 1/2
        for _ in range(10):
            r, s = rng.uniform(1.0, 3.0, 2)
            a, b = s + 1.0, r - 1.0 / alpha
            edge = (1.0 - (a + 1.0) / (a + b + 2.0)) ** (-1.0 / alpha)  # F = x*, where the form switches
            u = np.exp(rng.uniform(math.log1p(1e-9), math.log(1e4), 300))
            u = np.concatenate([u, [half * (1.0 - 1e-12), half, half * (1.0 + 1e-12)]])
            u = np.concatenate([u, [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]])
            expected = incomplete_beta_bracket(r, s, u, alpha)
            got = g_closed_bracket(r, s, ParetoMarginal(alpha), u)
            assert np.max(np.abs(got - expected) / expected) <= 1e-10, (r, s)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_series_stays_short(self, alpha, monkeypatch):
        monkeypatch.setattr(pqdslln.gfun, "_MAX_TERMS", 100)
        for r, s in ((1.0, 1.0), (1.5, 1.5), (3.0, 3.0)):
            for u in (1.0 + 1e-12, 1e6):
                expected = incomplete_beta_bracket(r, s, u, alpha)
                assert g_closed_bracket(r, s, ParetoMarginal(alpha), u) == pytest.approx(expected, rel=1e-10)

    def test_limit_is_the_incomplete_beta_limit(self):
        for alpha in ALPHA_GRID:
            for r, s in PARAM_GRID:
                expected = beta(s + 1.0, r - 1.0 / alpha) / alpha
                assert bracket_limit(r, s, ParetoMarginal(alpha)) == pytest.approx(expected, rel=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=400.0),
        st.floats(min_value=-3.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    )
    # the poles of the mirror form's terms, and b just off them
    @example(s=2.5, b=-2.0, lift=1.0, t=0.9, near_switch=False)
    @example(s=1.0, b=-1.0, lift=0.5, t=0.7, near_switch=False)
    @example(s=7.3, b=0.0, lift=1.0, t=0.8, near_switch=False)
    @example(s=3.0, b=1e-9, lift=1.0, t=0.9, near_switch=False)
    @example(s=3.0, b=-1e-9, lift=1.0, t=0.9, near_switch=False)
    @example(s=40.5, b=1e-7, lift=1.0, t=0.6, near_switch=False)
    @example(s=40.5, b=-1e-7, lift=0.7, t=0.4, near_switch=True)
    @example(s=5.5, b=-1.0 + 1e-9, lift=1.0, t=1.0, near_switch=False)
    @example(s=5.5, b=-2.0 - 1e-7, lift=1.0, t=1.0, near_switch=False)
    # r alpha - 1 = 1e-7 and 1e-4 at r = 1, alpha = 1 / (1 - b)
    @example(s=2.0, b=1.0 - 1.0 / (1.0 + 1e-7), lift=1.0, t=0.95, near_switch=False)
    @example(s=2.0, b=1.0 - 1.0 / (1.0 + 1e-4), lift=1.0, t=0.95, near_switch=False)
    def test_relative_contract_against_mpmath(self, s, b, lift, t, near_switch):
        # 1e-11 relative wherever B(u) >= 1e-290, at every r alpha, up to the support edge and out to u = 1e8;
        # alpha runs over [1/4, 1] of its largest value with r = b + 1/alpha >= 1
        alpha = (4.0 if b >= 0.75 else 1.0 / (1.0 - b)) * (0.25 + 0.75 * lift)
        r = max(1.0, b + 1.0 / alpha)
        lo, hi = math.log1p(1e-12), math.log(1e8)
        if near_switch:  # within 10 % of the u where 1 - F = h = 1 - x*(max(b, 0)), the split
            a, lifted = s + 1.0, max(r - 1.0 / alpha, 0.0)
            log_u = math.log((lifted + 1.0) / (a + lifted + 2.0)) / -alpha + 0.2 * (t - 0.5)
        else:
            log_u = lo + t * (hi - lo)
        u = math.exp(min(max(log_u, lo), hi))
        expected = mpmath_bracket(r, s, u, alpha)
        if expected < 1e-290:
            return
        assert abs(g_closed_bracket(r, s, ParetoMarginal(alpha), u) - expected) <= 1e-11 * expected, (r, s, u, alpha)

    @given(
        st.floats(min_value=math.log(1e-12), max_value=math.log(1e-2)).map(math.exp),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=math.log(1e6), exclude_min=True).map(math.exp),
    )
    # g = u^-alpha rounds near 1 at small alpha, and g**b once carried |b| ~ 1/alpha times that rounding
    @example(alpha=1e-6, r=1.5, s=1.0, u=1.5)
    @example(alpha=1e-8, r=1.5, s=1.0, u=3.0)
    def test_small_alpha_relative_contract_against_mpmath(self, alpha, r, s, u):
        # the contract of test_relative_contract_against_mpmath at b = r - 1/alpha down to -1e12
        expected = mpmath_bracket(r, s, u, alpha)
        assert abs(g_closed_bracket(r, s, ParetoMarginal(alpha), u) - expected) <= 1e-11 * expected, (r, s, u, alpha)

    @pytest.mark.parametrize("alpha", [1e-60, 1e-300])
    def test_mpmath_oracle_keeps_r_at_tiny_alpha(self, alpha):
        # B(2) at r = s = 1 is the integral of x^-alpha - x^-2alpha over [1, 2], about alpha (2 log 2 - 1);
        # in 40 digits b = r - 1/alpha lost r once 1/alpha passed about 1e40
        with mpmath.workdps(360):
            a, log2 = mpmath.mpf(alpha), mpmath.log(2)
            expected = mpmath.expm1((1 - a) * log2) / (1 - a) - mpmath.expm1((1 - 2 * a) * log2) / (1 - 2 * a)
            assert abs(mpmath_bracket(1.0, 1.0, 2.0, alpha) - expected) <= 1e-12 * expected

    @given(
        st.floats(min_value=1.0, max_value=60.0),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=-2.0, max_value=2.0),
        st.booleans(),
    )
    def test_limit_against_mpmath(self, s, alpha, r, offset, at_overflow):
        # 1e-12 relative up to r = 1e4, with draws on both sides of a + b = 171.62, where Gamma(a + b) overflows
        if at_overflow:
            r = 171.62 + offset - (s + 1.0) + 1.0 / alpha
        assume(r * alpha > 1.0)
        with mpmath.workdps(40):
            expected = mpmath.beta(mpmath.mpf(s) + 1, mpmath.mpf(r) - 1 / mpmath.mpf(alpha)) / alpha
            assert abs(bracket_limit(r, s, ParetoMarginal(alpha)) - expected) <= 1e-12 * expected, (r, s, alpha)

    def test_overflowing_power_gives_limit(self):
        assert g_closed_bracket(50.0, 1.0, PARETO_2, 1e6) == bracket_limit(50.0, 1.0, PARETO_2)
        values = g_closed_bracket(50.0, 1.0, ParetoMarginal(1.5), np.array([2.0, 1e6, 1e300]))
        assert values[1] == values[2] == bracket_limit(50.0, 1.0, ParetoMarginal(1.5))
        assert values[0] == pytest.approx(incomplete_beta_bracket(50.0, 1.0, 2.0, 1.5), rel=1e-10)

    def test_huge_alpha_gives_zero_then_the_limit(self):
        # alpha log u overflows to inf beyond u = e, where g = u^-alpha is 0 and F is 1
        marginal = ParetoMarginal(1e308)
        limit = bracket_limit(1.0, 1.0, marginal)
        assert g_closed_bracket(1.0, 1.0, marginal, [1.0, 2.0, 10.0]).tolist() == [0.0, limit, limit]

    @pytest.mark.parametrize("r,alpha", [(1.0, 1.0), (1.0, 0.5), (2.0, 0.5), (1.0, math.nan)])
    def test_divergent_limit_is_domain_error(self, r, alpha):
        # only a NaN alpha is refused; at r alpha <= 1 the limit is infinite and B(u) finite
        if math.isnan(alpha):
            with pytest.raises(ParameterError):
                bracket_limit(r, 1.0, ParetoMarginal(alpha))
            with pytest.raises(ParameterError):
                g_closed_bracket(r, 1.0, ParetoMarginal(alpha), 2.0)
            return
        assert bracket_limit(r, 1.0, ParetoMarginal(alpha)) == math.inf
        expected = mpmath_bracket(r, 1.0, 2.0, alpha)
        assert g_closed_bracket(r, 1.0, ParetoMarginal(alpha), 2.0) == pytest.approx(expected, rel=1e-13)
        assert closed_g(1.0, r, 1.0, 2.0, 2.0, alpha) == pytest.approx(expected**2, rel=1e-13)


class TestOracleEquivalence:
    @pytest.mark.parametrize("r,s", PARAM_GRID)
    @pytest.mark.parametrize("theta", [0.25, 1.0])
    def test_closed_vs_numeric_spot(self, r, s, theta):
        m = ParetoMarginal(2.0)
        copula = GfmCopula(theta=theta, r=r, s=s)
        for u, v in ((1.5, 2.0), (5.0, 20.0)):
            closed = closed_g(theta, r, s, u, v)
            numeric = g_numeric(copula, m, [(u, v)])[0]
            assert abs(closed - numeric) <= 1e-6 * max(1.0, abs(numeric))

    @pytest.mark.parametrize("uv", [(2.0, math.inf), (math.inf, math.inf)])
    def test_infinite_threshold_is_parameter_error(self, uv):
        copula = GfmCopula(theta=1.0, r=1.0, s=1.0)
        with pytest.raises(ParameterError, match="finite"):
            g_numeric(copula, ParetoMarginal(2.0), [(2.0, 2.0), uv])

    def test_r2_s1_example(self):
        m = ParetoMarginal(2.0)
        copula = GfmCopula(theta=1.0, r=2.0, s=1.0)
        closed = closed_g(1.0, 2.0, 1.0, 3.0, 3.0)
        numeric = g_numeric(copula, m, [(3.0, 3.0)])[0]
        assert abs(closed - numeric) <= 1e-6

    @pytest.mark.parametrize("r,s", PARAM_GRID)
    def test_factorization(self, r, s):
        m = ParetoMarginal(2.0)
        factors = dict(zip(UV_GRID, g_factor(r, s, m, UV_GRID)))
        for theta in (0.25, 1.0):
            for u in UV_GRID:
                for v in (1.5, 20.0):
                    closed = closed_g(theta, r, s, u, v)
                    factored = theta * factors[u] * factors[v]
                    assert abs(closed - factored) <= 1e-8

    def test_numeric_trivial_cases(self):
        m = ParetoMarginal(2.0)
        copula = GfmCopula(theta=1.0, r=1.0, s=1.0)
        assert g_numeric(copula, m, [(1.0, 5.0)])[0] == 0.0  # x-range collapses at the support edge
        assert g_numeric(GfmCopula(theta=0.0), m, [(2.0, 2.0)])[0] == pytest.approx(0.0, abs=1e-12)

    def test_numeric_domain(self):
        copula = GfmCopula(theta=1.0)
        # every threshold below the support edge 1 is refused, as by the closed form, not integrated as empty
        for uv in ((-1.0, 2.0), (0.5, 3.0), (3.0, math.nextafter(1.0, 0.0))):
            with pytest.raises(ParameterError, match="support edge"):
                g_numeric(copula, ParetoMarginal(2.0), [(2.0, 2.0), uv])

    def test_numeric_handles_perturbation_family(self):
        # phi = psi = t(1-t) is the r = s = 1 power family, so the generic
        # oracle must agree with the closed form
        copula = ProfileCopula(lambda t: t * (1.0 - t))
        value = g_numeric(copula, ParetoMarginal(2.0), [(2.0, 3.0)])[0]
        assert value == pytest.approx(closed_g(1.0, 1.0, 1.0, 2.0, 3.0), abs=1e-8)

    @given(
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.05, max_value=8.0),
        st.floats(min_value=1.05, max_value=8.0),
    )
    @settings(max_examples=15)
    def test_closed_vs_numeric_property(self, r, s, u, v):
        theta = 1.0
        m = ParetoMarginal(2.0)
        copula = GfmCopula(theta=theta, r=r, s=s)
        closed = closed_g(theta, r, s, u, v)
        numeric = g_numeric(copula, m, [(u, v)])[0]
        assert abs(closed - numeric) <= 1e-6 * max(1.0, abs(numeric))

    @pytest.mark.parametrize("uv", [(1e155, 1e155), (3.2e72, 1.8e296)])
    def test_overflowing_jacobian_is_numeric_error(self, uv):
        # u v past the largest double: x1 x2 would be inf where the gap has underflowed to 0
        copula, nodes = counting_copula(theta=1.0)
        with pytest.raises(NumericError, match="overflows"):
            g_numeric(copula, ParetoMarginal(2.0), [(2.0, 2.0), uv])
        assert nodes == []  # refused before any evaluation

    def test_largest_pair_below_overflow_answers(self):
        value = g_numeric(GfmCopula(theta=1.0), ParetoMarginal(2.0), [(1e154, 1e154)])[0]
        # 0.444444435900116 here: 4/9 less the tail lost where F rounds to 1 (ROADMAP item 7)
        assert value == pytest.approx(4.0 / 9.0, rel=1e-7)


def _route_values(route: str, u: float):
    """The values one route to B or G gives with threshold ``u`` in its second place, or its error."""
    m = ParetoMarginal(2.0)
    if route == "g_closed_bracket":
        return g_closed_bracket(1.0, 1.0, PARETO_2, np.array([2.0, u]))
    if route == "factor_differences":
        return factor_differences(1.0, 1.0, m, [2.0, u], [1.0, u])
    if route == "g_factor":
        return g_factor(1.0, 1.0, m, [2.0, u])
    return g_numeric(GfmCopula(theta=1.0), m, [(2.0, 2.0), (u, 2.0)])


ROUTES = ["g_closed_bracket", "factor_differences", "g_factor", "g_numeric"]


class TestThresholdRule:
    """Every route to B and G takes exactly the finite thresholds >= 1, through one check."""

    @pytest.mark.parametrize("u", [math.nan, -math.inf, math.inf, 0.5, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("route", ROUTES)
    def test_refused_threshold_is_domain_error(self, route, u):
        with pytest.raises(ParameterError, match="finite.*support edge"):
            _route_values(route, u)

    @pytest.mark.parametrize("route", ROUTES)
    def test_support_edge_gives_zero(self, route):
        assert _route_values(route, 1.0)[1] == 0.0


class TestLogSpaceQuadrature:
    """g_numeric integrates in log x; checked against scipy's incomplete beta."""

    @given(
        st.sampled_from([1.5, 2.0, 2.5, 3.7]),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=math.log1p(1e-8), max_value=math.log(1e6)),
        st.floats(min_value=math.log1p(1e-8), max_value=math.log(1e6)),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_matches_incomplete_beta(self, alpha, r, s, log_u, log_v, perturbation_form):
        u, v = math.exp(log_u), math.exp(log_v)
        if perturbation_form:
            copula = ProfileCopula(lambda t: t**s * (1.0 - t) ** r)
        else:
            copula = GfmCopula(theta=1.0, r=r, s=s)
        numeric = g_numeric(copula, ParetoMarginal(alpha), [(u, v)])[0]
        expected = float(incomplete_beta_bracket(r, s, u, alpha) * incomplete_beta_bracket(r, s, v, alpha))
        # the quadrature is asked for _NUMERIC_ABS_TOL absolute; relative 1e-6 above that
        assert abs(numeric - expected) <= max(1e-6 * expected, pqdslln.gfun._NUMERIC_ABS_TOL), (u, v)

    def test_far_peak_is_found(self):
        # in x the peak near 1 sits in one of 3000 units of width and the first panel misses it
        expected = float(incomplete_beta_bracket(3.0, 3.0, 3000.0, 2.0) ** 2)
        numeric = g_numeric(GfmCopula(theta=1.0, r=3.0, s=3.0), ParetoMarginal(2.0), [(3000.0, 3000.0)])[0]
        assert numeric == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.7])
    def test_far_thresholds(self, alpha):
        copula = GfmCopula(theta=1.0)
        expected = float(incomplete_beta_bracket(1.0, 1.0, 1e6, alpha) ** 2)
        assert g_numeric(copula, ParetoMarginal(alpha), [(1e6, 1e6)])[0] == pytest.approx(expected, rel=1e-9)

    def test_node_count_stays_small(self):
        # a slowdown guard without timing: 16.6 M nodes when this row was integrated in x
        copula, nodes = counting_copula(theta=1.0)
        value = g_numeric(copula, ParetoMarginal(2.0), [(1e4, 1e4)])[0]
        assert value == pytest.approx(closed_g(1.0, 1.0, 1.0, 1e4, 1e4), abs=1e-9)
        assert sum(nodes) < 50_000


class TestHypSeries:
    """The series H = 2F1(1, b; c; z) that both forms of B sum."""

    @given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.3, max_value=6.0))
    def test_z_zero(self, b, c):
        assert _hyp_series(b, c, 0.0) == 1.0

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_two_term_polynomial(self, z):
        # (1, -1; 3): single correction term (-1)/3 z
        assert _hyp_series(-1.0, 3.0, z) == pytest.approx(1.0 - z / 3.0, abs=1e-14)

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z
        assert _hyp_series(1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-13)
        for z in (0.1, 0.9):
            assert _hyp_series(1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_terminating_is_polynomial(self, m):
        # b = -m: a degree-m polynomial, so interpolating m+2 samples reproduces it
        b, c = -float(m), 2.7
        xs = np.linspace(0.0, 0.9, m + 2)
        ys = [_hyp_series(b, c, float(x)) for x in xs]
        coeffs = np.polynomial.polynomial.polyfit(xs, ys, m)
        for z in np.linspace(0.0, 0.95, 7):
            interp = float(np.polynomial.polynomial.polyval(z, coeffs))
            assert _hyp_series(b, c, float(z)) == pytest.approx(interp, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("b,c", [(-3.0, 1.5), (1.3, 2.3), (1.0, 2.0)])
    def test_array_matches_scalar_calls(self, b, c):
        z = np.random.default_rng(3).uniform(0.0, 0.95, size=(7, 11))
        z[0, 0] = 0.0
        got = _hyp_series(b, c, z)
        expected = np.array([_hyp_series(b, c, float(v)) for v in z.ravel()]).reshape(z.shape)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_scalar_gives_float(self):
        assert type(_hyp_series(1.0, 2.0, 0.5)) is float
        assert type(_hyp_series(-2.0, 3.0, np.array(0.5))) is float

    @pytest.mark.parametrize("b", [-2.0, 1.5])
    def test_empty_array(self, b):
        assert _hyp_series(b, 2.0, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("z", [0.9999999999, 0.999999999999, np.array([0.5, 0.9999999999])])
    def test_hopeless_series_fails_fast(self, z):
        # the whole 1e6-term budget, summed in blocks of terms while at most 256 elements are live,
        # takes about 10 ms
        start = time.perf_counter()
        with pytest.raises(NumericError):
            _hyp_series(1.0, 2.0, z)
        assert time.perf_counter() - start < 0.5

    def test_integer_valued_order_past_the_budget_truncates(self):
        # every double of magnitude >= 2^53 is an integer, so b = -1e20 once read as a terminating
        # order of 1e20 terms; a child process lets a hang fail by its timeout
        code = "from pqdslln.gfun import _hyp_series; print(repr(_hyp_series(-1e20, 3.0, 1e-20)))"
        env = dict(os.environ)
        src = str(Path(pqdslln.gfun.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        with mpmath.workdps(40):
            expected = mpmath.hyp2f1(1, -mpmath.mpf(1e20), 3, mpmath.mpf(1e-20))
            assert abs(float(done.stdout) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize(
        "b,c,z",
        [
            (1.0, 2.0, 0.99),  # ~3,000 terms
            (0.5, 100.0, 0.9999999999),  # z near 1, but the terms fall like n^-99.5
            (-1.5, 1.2, 0.999),  # a sign change in the early terms
            (-3.0, 2.0, 0.9999999999),  # terminating: stops at its first zero term
        ],
    )
    def test_convergent_series_near_one_are_summed(self, b, c, z):
        expected = float(mpmath.hyp2f1(1.0, b, c, z))
        assert _hyp_series(b, c, z) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize(
        "b,z",
        [
            (2000.0, 0.9),  # a term overflows
            (2000.0, np.array([0.1, 0.9])),  # only one element overflows
            (-3000.0, 0.99),  # terminating and alternating: inf - inf
            (-3000.0, np.array([0.5, 0.99])),  # both elements overflow
        ],
    )
    def test_overflow_is_numeric_error(self, b, z):
        with pytest.raises(NumericError, match="overflows"):
            _hyp_series(b, 1.0, z)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(pqdslln.gfun, "_MAX_TERMS", 40)
        assert _hyp_series(1.0, 2.0, 0.1) == pytest.approx(-math.log1p(-0.1) / 0.1, rel=1e-14)
        for z in (0.99, np.array([0.1, 0.99, 0.2])):
            with pytest.raises(NumericError):
                _hyp_series(1.0, 2.0, z)

    @given(
        st.floats(min_value=0.3, max_value=6.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    )
    def test_against_mpmath_where_b_sums_it(self, alpha, r, s, t, above):
        # the (b, c, z) of the two forms of B: (a+b, a+1, F) with F < x* = 1 - h, and the mirror
        # form's (a+b, b+1, g) with g <= h at b >= 1/64
        a, b = s + 1.0, r - 1.0 / alpha
        lift = max(b, 0.0)
        h = (lift + 1.0) / (a + lift + 2.0)
        if above:
            assume(b >= 1.0 / 64.0)
            params, z = (a + b, b + 1.0), t * h
        else:
            params, z = (a + b, a + 1.0), t * (1.0 - h) * (1.0 - 2.0**-52)
        with mpmath.workdps(40):
            expected = mpmath.hyp2f1(1, mpmath.mpf(params[0]), mpmath.mpf(params[1]), mpmath.mpf(z))
            assert abs(_hyp_series(*params, z) - expected) <= 1e-13 * expected, (params, z)


def per_term_2f1(b: float, c: float, z):
    """The one-term-per-step sum that _hyp_series blocks: the reference for its bits and its refusals."""
    zs = np.asarray(z, dtype=float)
    live_z = zs.ravel()
    budget = pqdslln.gfun._MAX_TERMS
    out = np.empty(zs.size)
    live = np.arange(zs.size)
    term, total = np.ones(zs.size), np.ones(zs.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(budget):
            if not live.size:
                break
            term *= (b + n) / (c + n) * live_z
            total += term
            done = np.abs(term) <= 1e-15 * np.abs(total)
            if done.any():
                out[live[done]] = total[done]
                keep = ~done
                live, live_z, term, total = live[keep], live_z[keep], term[keep], total[keep]
    if live.size:
        raise NumericError(f"2F1 series did not converge within {budget} terms (z={float(live_z[0])!r})")
    finite = np.isfinite(out)
    if not finite.all():
        raise NumericError(f"2F1 series overflows double precision (z={float(zs.ravel()[np.argmin(finite)])!r})")
    out = out.reshape(zs.shape)
    return out if out.ndim else float(out)


def _outcome(fn, *args):
    """The value's bits, or the refusal's type and message."""
    try:
        value = fn(*args)
    except NumericError as exc:
        return "NumericError", str(exc)
    return np.asarray(value).tobytes(), type(value)


@st.composite
def _series(draw):
    """(b, c, z) of a terminating, a general or a covariance-factor series, z an array of 0 to 5,000 elements."""
    kind = draw(st.sampled_from(["terminating", "general", "below x*", "above x*"]))
    if kind in ("below x*", "above x*"):
        # the two series of g_closed_bracket: (a+b; a+1) at F < x* and (a+b; b+1) at 1 - F <= 1 - x*
        a = draw(st.floats(1.0, 6.0)) + 1.0
        b = draw(st.floats(0.01, 6.0))
        x_star = (a + 1.0) / (a + b + 2.0)
        params, z_max = ((a + b, a + 1.0), x_star) if kind == "below x*" else ((a + b, b + 1.0), 1.0 - x_star)
    else:
        first = -float(draw(st.integers(0, 8))) if kind == "terminating" else draw(st.floats(-5.0, 5.0))
        params = (first, draw(st.floats(0.2, 8.0)))
        z_max = draw(st.sampled_from([0.5, 0.9, 0.99]))
    size = draw(st.sampled_from([0, 1, 2, 5, 100, 255, 257, 4096, 5000]))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, z_max, size)
    return (*params, z)


class TestBlockedSum:
    @given(series=_series(), budget=st.sampled_from([40, pqdslln.gfun._MAX_TERMS]))
    def test_bits_and_refusals_are_the_per_term_loops(self, series, budget):
        # a budget of 40 terms makes slow series run out of it, in a block or at a one-term step
        b, c, z = series
        with mock.patch.object(pqdslln.gfun, "_MAX_TERMS", budget):
            assert _outcome(_hyp_series, b, c, z) == _outcome(per_term_2f1, b, c, z)
