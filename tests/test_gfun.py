import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta, betainc

import pqdslln.specfun
from pqdslln.copulas import FunctionDescriptor, GfmCopula, PerturbationCopula
from pqdslln.errors import DomainError
from pqdslln.gfun import (
    DeltaField,
    bracket_limit,
    g_closed_bracket,
    g_closed_form,
    g_factor,
    g_numeric,
)
from pqdslln.marginals import Marginal, ParetoMarginal
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


def scalar_closed_bracket(r: float, s: float, u: float) -> float:
    """B(u) one threshold at a time through the scalar series (test oracle)."""
    if u == 1.0:
        return 0.0
    correction = scalar_2f1(-s, r - 0.5, r + 0.5, 1.0 / (u * u)) / ((2.0 * r - 1.0) * u ** (2.0 * r - 1.0))
    return bracket_limit(r, s) - correction


def incomplete_beta_bracket(r: float, s: float, u, alpha: float):
    """B(u) = (1/alpha) B_F(s+1, r-1/alpha) through scipy's regularized incomplete beta (test oracle)."""
    f = -np.expm1(-alpha * np.log(u))
    return betainc(s + 1.0, r - 1.0 / alpha, f) * beta(s + 1.0, r - 1.0 / alpha) / alpha


def counting_field(copula, marginal):
    """A DeltaField that tallies the integrand nodes it is evaluated at, and the tally."""
    nodes = []

    class CountingField(DeltaField):
        def delta(self, x, y):
            nodes.append(np.broadcast(x, y).size)
            return super().delta(x, y)

    return CountingField(copula, marginal), nodes


class SymmetricMarginal(Marginal):
    """Uniform law on [-1, 1]: a support reaching below 0."""

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) + 1.0) / 2.0, 0.0, 1.0)

    def quantile(self, u):
        return 2.0 * np.asarray(u, dtype=float) - 1.0

    def abs_moment(self, p):
        return 1.0 / (p + 1.0)


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
        phi = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        copula = PerturbationCopula(theta=1.0, phi=phi, psi=phi)
        field = DeltaField(copula, ParetoMarginal(2.0))
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

    @pytest.mark.parametrize("r,s", PARAM_GRID)
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
        edge = 2.0 ** (1.0 / alpha)  # where the evaluation switches form
        for _ in range(10):
            r, s = rng.uniform(1.0, 3.0, 2)
            u = np.exp(rng.uniform(math.log1p(1e-9), math.log(1e4), 300))
            u = np.concatenate([u, [edge * (1.0 - 1e-12), edge, edge * (1.0 + 1e-12)]])
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

    def test_overflowing_power_gives_limit(self):
        assert g_closed_bracket(50.0, 1.0, 1e6) == bracket_limit(50.0, 1.0)
        values = g_closed_bracket(50.0, 1.0, np.array([2.0, 1e6, 1e300]), 1.5)
        assert values[1] == values[2] == bracket_limit(50.0, 1.0, 1.5)
        assert values[0] == pytest.approx(incomplete_beta_bracket(50.0, 1.0, 2.0, 1.5), rel=1e-10)

    @pytest.mark.parametrize("r,alpha", [(1.0, 1.0), (1.0, 0.5), (2.0, 0.5), (1.0, math.nan)])
    def test_divergent_limit_is_domain_error(self, r, alpha):
        with pytest.raises(DomainError):
            bracket_limit(r, 1.0, alpha)
        with pytest.raises(DomainError):
            g_closed_bracket(r, 1.0, 2.0, alpha)
        with pytest.raises(DomainError):
            g_closed_form(1.0, r, 1.0, 2.0, 2.0, alpha)


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

    @pytest.mark.parametrize("support_min", [-math.inf, -1.0, 0.0])
    def test_numeric_needs_positive_support(self, support_min):
        # the log-x substitution needs support_min > 0
        marginal = SymmetricMarginal()
        marginal.support_min = support_min
        with pytest.raises(DomainError):
            g_numeric(DeltaField(GfmCopula(theta=1.0), marginal), [(0.5, 0.5)])

    def test_numeric_handles_perturbation_family(self):
        # phi = psi = t(1-t) is the r = s = 1 power family, so the generic
        # oracle must agree with the closed form
        phi = FunctionDescriptor(lambda t: t * (1.0 - t), -1.0, 1.0)
        copula = PerturbationCopula(theta=1.0, phi=phi, psi=phi)
        field = DeltaField(copula, ParetoMarginal(2.0))
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
            # t^s (1-t)^r has its derivative in [-1, 1] for r, s >= 1
            profile = FunctionDescriptor(lambda t: t**s * (1.0 - t) ** r, -1.0, 1.0)
            copula = PerturbationCopula(theta=1.0, phi=profile, psi=profile)
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
