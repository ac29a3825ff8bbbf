import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import beta, betainc

import pqdslln.specfun
from pqdslln.copulas import GfmCopula
from pqdslln.errors import DomainError
from pqdslln.gfun import (
    DeltaField,
    bracket_limit,
    g_closed_bracket,
    g_closed_form,
    g_factor,
    g_numeric,
)
from pqdslln.marginals import ParetoMarginal
from pqdslln.quadrature import QuadSpec

PARAM_GRID = [(1.0, 1.0), (2.0, 1.0), (1.5, 2.0), (3.0, 3.0)]
UV_GRID = [1.5, 2.0, 5.0, 20.0]
ALPHA_GRID = [1.1, 1.5, 2.0, 2.5, 3.7, 6.0]


def closed_bracket_r1s1(u: float) -> float:
    # antiderivative of x^-2 - x^-4 over [1, u]
    return 2.0 / 3.0 - 1.0 / u + 1.0 / (3.0 * u**3)


def scalar_2f1(a: float, b: float, c: float, z: float) -> float:
    """The 2F1 series one z at a time, as a Python-float loop (test oracle)."""
    m = int(-a) if a <= 0.0 and a == math.floor(a) else None
    total = term = 1.0
    for n in range(m if m is not None else 1_000_000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if m is None and abs(term) <= 1e-15 * abs(total):
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
        value = f**a * g**b / (a * alpha) * scalar_2f1(1.0, a + b, a + 1.0, float(f[0]))
    else:
        lead = np.exp(a * np.log1p(-g) + b * log_tail)
        value = bracket_limit(r, s, alpha) - lead / (b * alpha) * scalar_2f1(1.0, a + b, b + 1.0, float(g[0]))
    return float(value[0])


def incomplete_beta_bracket(r: float, s: float, u, alpha: float):
    """B(u) = (1/alpha) B_F(s+1, r-1/alpha) through scipy's regularized incomplete beta (test oracle)."""
    f = -np.expm1(-alpha * np.log(u))
    return betainc(s + 1.0, r - 1.0 / alpha, f) * beta(s + 1.0, r - 1.0 / alpha) / alpha


def mpmath_bracket(r: float, s: float, u: float, alpha: float):
    """B(u) = (1/alpha) B_F(s+1, r-1/alpha) in 40-digit arithmetic, its real part (test oracle)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(s) + 1, mpmath.mpf(r) - 1 / mpmath.mpf(alpha)
        f = -mpmath.expm1(-mpmath.mpf(alpha) * mpmath.log(mpmath.mpf(u)))
        return mpmath.re(mpmath.betainc(a, b, 0, f)) / alpha


def counting_field(copula, marginal):
    """A DeltaField that tallies the integrand nodes it is evaluated at, and the tally."""
    nodes = []

    class CountingField(DeltaField):
        def delta(self, x, y):
            nodes.append(np.broadcast(x, y).size)
            return super().delta(x, y)

    return CountingField(copula, marginal), nodes


class ProfileCopula:
    """The perturbation copula u v + phi(u) phi(v), given by its gap alone.

    ``g_numeric`` integrates whatever gap its field holds, never the power
    family's closed form, so this copula checks it from outside the family's code.
    """

    def __init__(self, profile):
        self.profile = profile

    def gap(self, u, v):
        return np.asarray(self.profile(np.asarray(u, dtype=float))) * np.asarray(self.profile(np.asarray(v, dtype=float)))


class TestDelta:
    def test_zero_for_independence(self):
        field = DeltaField(GfmCopula(theta=0.0), ParetoMarginal(2.0))
        for x, y in ((1.5, 2.0), (3.0, 10.0)):
            assert field.delta(x, y) == 0.0

    def test_zero_below_support(self):
        field = DeltaField(GfmCopula(theta=1.0), ParetoMarginal(2.0))
        assert field.delta(0.5, 3.0) == 0.0
        assert field.delta(3.0, 0.99) == 0.0

    def test_direct_substitution(self):
        field = DeltaField(GfmCopula(theta=0.5, r=1.0, s=1.0), ParetoMarginal(2.0))
        x = math.sqrt(2.0)  # F(x) = 0.5
        assert field.delta(x, x) == pytest.approx(0.5 * 0.25 * 0.25, rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_nonnegative_for_pqd(self, theta, r, s, x, y):
        field = DeltaField(GfmCopula(theta=theta, r=r, s=s), ParetoMarginal(2.0))
        assert field.delta(x, y) >= -1e-15

    def test_perturbation_copula_field(self):
        field = DeltaField(ProfileCopula(lambda t: t * (1.0 - t)), ParetoMarginal(2.0))
        x = math.sqrt(2.0)
        assert field.delta(x, x) == pytest.approx(0.25 * 0.25, rel=1e-12)


class TestGFactor:
    def test_empty_range(self):
        m = ParetoMarginal(2.0)
        assert g_factor(1.0, 1.0, m, [1.0, 0.5]).tolist() == [0.0, 0.0]

    def test_closed_antiderivative_r1s1(self):
        m = ParetoMarginal(2.0)
        us = (1.1, 2.0, 10.0, 1e3)
        for u, factor in zip(us, g_factor(1.0, 1.0, m, us)):
            assert factor == pytest.approx(closed_bracket_r1s1(u), abs=1e-10)

    def test_limit_matches_bracket_limit(self):
        m = ParetoMarginal(2.0)
        assert bracket_limit(1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert g_factor(1.0, 1.0, m, [1e5])[0] == pytest.approx(2.0 / 3.0, abs=1e-4)


class TestClosedForm:
    def test_zero_theta(self):
        assert g_closed_form(0.0, 1.0, 1.0, 2.0, 2.0) == 0.0

    def test_r1s1_value(self):
        value = g_closed_form(0.5, 1.0, 1.0, 2.0, 2.0)
        assert value == pytest.approx(0.5 * (5.0 / 24.0) ** 2, rel=1e-12)

    def test_bracket_equals_antiderivative_r1s1(self):
        for u in (1.1, 2.0, 10.0, 1e3):
            assert g_closed_bracket(1.0, 1.0, u) == pytest.approx(closed_bracket_r1s1(u), abs=1e-10)

    def test_bracket_at_support_edge(self):
        assert g_closed_bracket(1.5, 2.0, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            g_closed_bracket(1.0, 1.0, 0.8)
        with pytest.raises(DomainError):
            g_closed_form(1.5, 1.0, 1.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            g_closed_bracket(0.5, 1.0, 2.0)

    @pytest.mark.parametrize("r,s", [*PARAM_GRID, (1.0, 50.0)])
    def test_monotone_and_nonnegative(self, r, s):
        values = [g_closed_bracket(r, s, u) for u in (1.0, 1.2, 1.5, 2.0, 5.0, 20.0, 1e3)]
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
            got = g_closed_bracket(r, s, u)
            assert got[0] == 0.0
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (r, s, p, n)

    def test_scalar_and_zero_dim_give_float(self):
        for u in (2.5, np.float64(2.5), np.array(2.5)):
            value = g_closed_bracket(1.5, 2.5, u)
            assert type(value) is float
            assert value == scalar_closed_bracket(1.5, 2.5, 2.5)
        assert type(g_closed_bracket(1.5, 2.5, np.array(1.0))) is float

    def test_array_shape_and_domain(self):
        u = np.array([[1.0, 2.0], [3.0, 40.0]])
        assert g_closed_bracket(2.0, 3.0, u).shape == (2, 2)
        with pytest.raises(DomainError):
            g_closed_bracket(1.0, 1.0, np.array([2.0, 0.8]))

    @pytest.mark.parametrize("r,s", PARAM_GRID)
    def test_asymptote(self, r, s):
        # at r = 1 the correction is 1/u - 1/(3u^3), i.e. 1e-6 minus an
        # unrepresentable 3e-19 at u = 1e6; allow float-level headroom
        assert g_closed_bracket(r, s, 1e6) == pytest.approx(bracket_limit(r, s), abs=1.01e-6)


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
            got = g_closed_bracket(r, s, u, alpha)
            assert np.max(np.abs(got - expected) / expected) <= 1e-10, (r, s)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_series_stays_short(self, alpha, monkeypatch):
        monkeypatch.setattr(pqdslln.specfun, "_MAX_TERMS", 100)
        for r, s in ((1.0, 1.0), (1.5, 1.5), (3.0, 3.0)):
            for u in (1.0 + 1e-12, 1e6):
                expected = incomplete_beta_bracket(r, s, u, alpha)
                assert g_closed_bracket(r, s, u, alpha) == pytest.approx(expected, rel=1e-10)

    def test_limit_is_the_incomplete_beta_limit(self):
        for alpha in ALPHA_GRID:
            for r, s in PARAM_GRID:
                expected = beta(s + 1.0, r - 1.0 / alpha) / alpha
                assert bracket_limit(r, s, alpha) == pytest.approx(expected, rel=1e-12)

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
        assert abs(g_closed_bracket(r, s, u, alpha) - expected) <= 1e-11 * expected, (r, s, u, alpha)

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
            assert abs(bracket_limit(r, s, alpha) - expected) <= 1e-12 * expected, (r, s, alpha)

    def test_overflowing_power_gives_limit(self):
        assert g_closed_bracket(50.0, 1.0, 1e6) == bracket_limit(50.0, 1.0)
        values = g_closed_bracket(50.0, 1.0, np.array([2.0, 1e6, 1e300]), 1.5)
        assert values[1] == values[2] == bracket_limit(50.0, 1.0, 1.5)
        assert values[0] == pytest.approx(incomplete_beta_bracket(50.0, 1.0, 2.0, 1.5), rel=1e-10)

    @pytest.mark.parametrize("r,alpha", [(1.0, 1.0), (1.0, 0.5), (2.0, 0.5), (1.0, math.nan)])
    def test_divergent_limit_is_domain_error(self, r, alpha):
        # only a NaN alpha is refused; at r alpha <= 1 the limit is infinite and B(u) finite
        if math.isnan(alpha):
            with pytest.raises(DomainError):
                bracket_limit(r, 1.0, alpha)
            with pytest.raises(DomainError):
                g_closed_bracket(r, 1.0, 2.0, alpha)
            with pytest.raises(DomainError):
                g_closed_form(1.0, r, 1.0, 2.0, 2.0, alpha)
            return
        assert bracket_limit(r, 1.0, alpha) == math.inf
        expected = mpmath_bracket(r, 1.0, 2.0, alpha)
        assert g_closed_bracket(r, 1.0, 2.0, alpha) == pytest.approx(expected, rel=1e-13)
        assert g_closed_form(1.0, r, 1.0, 2.0, 2.0, alpha) == pytest.approx(expected**2, rel=1e-13)


class TestOracleEquivalence:
    @pytest.mark.parametrize("r,s", PARAM_GRID)
    @pytest.mark.parametrize("theta", [0.25, 1.0])
    def test_closed_vs_numeric_spot(self, r, s, theta):
        m = ParetoMarginal(2.0)
        field = DeltaField(GfmCopula(theta=theta, r=r, s=s), m)
        for u, v in ((1.5, 2.0), (5.0, 20.0)):
            closed = g_closed_form(theta, r, s, u, v)
            numeric = g_numeric(field, [(u, v)])[0]
            assert abs(closed - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_r2_s1_example(self):
        m = ParetoMarginal(2.0)
        field = DeltaField(GfmCopula(theta=1.0, r=2.0, s=1.0), m)
        closed = g_closed_form(1.0, 2.0, 1.0, 3.0, 3.0)
        numeric = g_numeric(field, [(3.0, 3.0)])[0]
        assert abs(closed - numeric) <= 1e-6

    @pytest.mark.parametrize("r,s", PARAM_GRID)
    def test_factorization(self, r, s):
        m = ParetoMarginal(2.0)
        factors = dict(zip(UV_GRID, g_factor(r, s, m, UV_GRID)))
        for theta in (0.25, 1.0):
            for u in UV_GRID:
                for v in (1.5, 20.0):
                    closed = g_closed_form(theta, r, s, u, v)
                    factored = theta * factors[u] * factors[v]
                    assert abs(closed - factored) <= 1e-8

    def test_numeric_trivial_cases(self):
        m = ParetoMarginal(2.0)
        field = DeltaField(GfmCopula(theta=1.0, r=1.0, s=1.0), m)
        assert g_numeric(field, [(1.0, 5.0)])[0] == 0.0  # x-range collapses at the support edge
        zero_field = DeltaField(GfmCopula(theta=0.0), m)
        assert g_numeric(zero_field, [(2.0, 2.0)])[0] == pytest.approx(0.0, abs=1e-12)

    def test_numeric_domain(self):
        field = DeltaField(GfmCopula(theta=1.0), ParetoMarginal(2.0))
        with pytest.raises(DomainError):
            g_numeric(field, [(-1.0, 2.0)])

    def test_numeric_handles_perturbation_family(self):
        # phi = psi = t(1-t) is the r = s = 1 power family, so the generic
        # oracle must agree with the closed form
        field = DeltaField(ProfileCopula(lambda t: t * (1.0 - t)), ParetoMarginal(2.0))
        value = g_numeric(field, [(2.0, 3.0)])[0]
        assert value == pytest.approx(g_closed_form(1.0, 1.0, 1.0, 2.0, 3.0), abs=1e-8)

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
        field = DeltaField(GfmCopula(theta=theta, r=r, s=s), m)
        closed = g_closed_form(theta, r, s, u, v)
        numeric = g_numeric(field, [(u, v)])[0]
        assert abs(closed - numeric) <= 1e-6 * max(1.0, abs(numeric))


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
        numeric = g_numeric(DeltaField(copula, ParetoMarginal(alpha)), [(u, v)])[0]
        expected = float(incomplete_beta_bracket(r, s, u, alpha) * incomplete_beta_bracket(r, s, v, alpha))
        # the quadrature is asked for QuadSpec().abs_tol absolute; relative 1e-6 above that
        assert abs(numeric - expected) <= max(1e-6 * expected, QuadSpec().abs_tol), (u, v)

    def test_far_peak_is_found(self):
        # in x the peak near 1 sits in one of 3000 units of width and the first panel misses it
        expected = float(incomplete_beta_bracket(3.0, 3.0, 3000.0, 2.0) ** 2)
        numeric = g_numeric(DeltaField(GfmCopula(theta=1.0, r=3.0, s=3.0), ParetoMarginal(2.0)), [(3000.0, 3000.0)])[0]
        assert numeric == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.7])
    def test_far_thresholds(self, alpha):
        field = DeltaField(GfmCopula(theta=1.0), ParetoMarginal(alpha))
        expected = float(incomplete_beta_bracket(1.0, 1.0, 1e6, alpha) ** 2)
        assert g_numeric(field, [(1e6, 1e6)])[0] == pytest.approx(expected, rel=1e-9)

    def test_node_count_stays_small(self):
        # a slowdown guard without timing: 16.6 M nodes when this row was integrated in x
        field, nodes = counting_field(GfmCopula(theta=1.0), ParetoMarginal(2.0))
        value = g_numeric(field, [(1e4, 1e4)])[0]
        assert value == pytest.approx(g_closed_form(1.0, 1.0, 1.0, 1e4, 1e4), abs=1e-9)
        assert sum(nodes) < 50_000
