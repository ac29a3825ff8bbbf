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
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import pqdslln.specfun
from pqdslln.errors import NumericError, ParameterError
from pqdslln.specfun import _check_2f1_args, gamma, gauss_2f1


class TestGamma:
    def test_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(1.7724538509055159, rel=1e-13)

    def test_against_reference_grid(self):
        # contract: relative error <= 1e-12 on [0.5, 50]
        for x in np.linspace(0.5, 50.0, 997):
            assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
    def test_below_half_against_math_gamma(self, x):
        # contract: relative error <= 1e-12 below 0.5 too, where 1/x does not overflow
        try:
            expected = math.gamma(x)
        except OverflowError:
            with pytest.raises(NumericError):
                gamma(x)
            return
        assert gamma(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-6, 1e-10, 1e-14, 1e-16, 1e-200, 1e-308])
    def test_small_arguments(self, x):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [5e-309, 5e-324])
    def test_reciprocal_overflow_is_numeric_error(self, x):
        with pytest.raises(NumericError):
            gamma(x)

    @given(st.floats(min_value=0.5, max_value=49.0))
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(ParameterError):
            gamma(x)

    @pytest.mark.parametrize("x", [171.7, 200.5, 1e6])
    def test_overflow_is_numeric_error(self, x):
        with pytest.raises(NumericError):
            gamma(x)

    @given(st.floats(min_value=0.0, max_value=172.0, exclude_min=True))
    def test_against_mpmath_wherever_finite(self, x):
        # contract: relative error <= 2e-15 wherever Gamma(x) is a finite double
        with mpmath.workdps(40):
            expected = mpmath.gamma(mpmath.mpf(x))
            if expected > sys.float_info.max:
                with pytest.raises(NumericError):
                    gamma(x)
                return
            assert abs(gamma(x) - expected) <= 2e-15 * expected


class TestGauss2F1:
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.3, max_value=6.0),
    )
    def test_z_zero(self, a, b, c):
        assert gauss_2f1(a, b, c, 0.0) == 1.0

    @given(st.floats(min_value=-0.99, max_value=0.99))
    def test_two_term_polynomial(self, z):
        # (-1, 1/2; 3/2): single correction term (-1)(1/2)/(3/2) z = -z/3
        assert gauss_2f1(-1.0, 0.5, 1.5, z) == pytest.approx(1.0 - z / 3.0, abs=1e-14)

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z
        assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-13)
        for z in (-0.7, 0.1, 0.9):
            assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-12)

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=0.5, max_value=8.0),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    def test_symmetry_in_ab(self, a, b, c, z):
        assert gauss_2f1(a, b, c, z) == pytest.approx(gauss_2f1(b, a, c, z), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_terminating_is_polynomial(self, m):
        # degree-m polynomial: interpolating m+2 samples reproduces it, within |z| < 1
        a, b, c = -float(m), 1.3, 2.7
        xs = np.linspace(-0.9, 0.9, m + 2)
        ys = [gauss_2f1(a, b, c, float(x)) for x in xs]
        coeffs = np.polynomial.polynomial.polyfit(xs, ys, m)
        for z in np.linspace(-0.95, 0.95, 7):
            interp = float(np.polynomial.polynomial.polyval(z, coeffs))
            assert gauss_2f1(a, b, c, float(z)) == pytest.approx(interp, rel=1e-12, abs=1e-12)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.5, max_value=6.0),
        st.floats(min_value=-0.8, max_value=0.8),
    )
    def test_against_scipy(self, a, b, c, z):
        expected = float(scipy.special.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            gauss_2f1(1.0, 1.0, 0.0, 0.5)  # c = 0
        with pytest.raises(ParameterError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)  # c negative integer
        with pytest.raises(ParameterError):
            gauss_2f1(1.1, 1.0, 2.0, 1.0)  # |z| >= 1
        with pytest.raises(ParameterError):
            gauss_2f1(0.5, 0.5, 1.5, -1.5)
        with pytest.raises(ParameterError):
            gauss_2f1(-2.0, 1.0, 3.0, 2.0)  # |z| >= 1 although the series terminates

    @pytest.mark.parametrize("args", [(1.5, 1.0, 2.0, math.nan), (math.nan, 1.0, 2.0, 0.5), (-2.0, 1.0, 3.0, math.nan)])
    def test_nan_is_domain_error(self, args):
        # a NaN series never meets the truncation test; refuse it before summing
        with pytest.raises(ParameterError):
            gauss_2f1(*args)
        with pytest.raises(ParameterError):
            gauss_2f1(*args[:3], np.array([0.25, args[3], 0.5]))

    @pytest.mark.parametrize("args", [(math.inf, 1.0, 2.0, 0.5), (1.0, 1.0, -math.inf, 0.5), (-2.0, 1.0, 3.0, math.inf)])
    def test_infinite_argument_is_domain_error(self, args):
        # math.floor and math.ceil of an infinite parameter would raise OverflowError
        with pytest.raises(ParameterError):
            gauss_2f1(*args)

    def test_args_bundle(self):
        _check_2f1_args(-1.0, 0.5, 1.5, 0.25)
        assert gauss_2f1(-1.0, 0.5, 1.5, 0.25) == pytest.approx(1.0 - 0.25 / 3.0, abs=1e-14)
        with pytest.raises(ParameterError):
            _check_2f1_args(0.5, 0.5, 1.5, 1.0)

    @pytest.mark.parametrize("a,b,c", [(-3.0, 0.5, 1.5), (-1.7, 1.3, 2.3), (1.0, 1.0, 2.0)])
    def test_array_matches_scalar_calls(self, a, b, c):
        z = np.random.default_rng(3).uniform(-0.95, 0.95, size=(7, 11))
        z[0, 0] = 0.0
        got = gauss_2f1(a, b, c, z)
        expected = np.array([gauss_2f1(a, b, c, float(v)) for v in z.ravel()]).reshape(z.shape)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_scalar_gives_float(self):
        assert type(gauss_2f1(1.0, 1.0, 2.0, 0.5)) is float
        assert type(gauss_2f1(-2.0, 1.0, 3.0, np.array(0.5))) is float

    @pytest.mark.parametrize("a", [-2.0, 1.5])
    def test_empty_array(self, a):
        got = gauss_2f1(a, 1.0, 2.0, np.empty((0, 3)))
        assert got.shape == (0, 3)

    def test_array_domain_uses_largest_modulus(self):
        with pytest.raises(ParameterError):
            gauss_2f1(1.1, 1.0, 2.0, np.array([0.5, -1.0]))
        with pytest.raises(ParameterError):
            gauss_2f1(-2.0, 1.0, 3.0, np.array([0.5, 2.0]))

    @pytest.mark.parametrize("z", [0.9999999999, -0.9999999999, np.array([0.5, 0.9999999999])])
    def test_hopeless_series_fails_fast(self, z):
        # the whole 1e6-term budget, summed in blocks of terms, takes about 10 ms
        start = time.perf_counter()
        with pytest.raises(NumericError):
            gauss_2f1(1.0, 1.0, 2.0, z)
        assert time.perf_counter() - start < 0.5

    def test_integer_valued_order_past_the_budget_truncates(self):
        # every double of magnitude >= 2^53 is an integer, so b = -1e20 once read as a terminating
        # order of 1e20 terms; a child process lets a hang fail by its timeout
        code = "from pqdslln.specfun import gauss_2f1; print(repr(gauss_2f1(1.0, -1e20, 3.0, 1e-20)))"
        env = dict(os.environ)
        src = str(Path(pqdslln.specfun.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        with mpmath.workdps(40):
            expected = mpmath.hyp2f1(1, -mpmath.mpf(1e20), 3, mpmath.mpf(1e-20))
            assert abs(float(done.stdout) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (1.0, 1.0, 2.0, 0.99),  # ~3,000 terms
            (0.5, 0.5, 100.0, 0.9999999999),  # |z| near 1, but the terms fall like n^-100
            (2.5, -1.5, 1.2, 0.999),  # kappa < 0 with a sign change in the early terms
            (-3.0, 1.5, 2.0, 0.9999999999),  # terminating: stops at its first zero term
        ],
    )
    def test_convergent_series_near_one_are_summed(self, a, b, c, z):
        expected = float(mpmath.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (200.0, 200.0, 0.9),  # a term overflows
            (200.0, 200.0, np.array([0.1, 0.9])),  # only one element overflows
            (-1000.0, -1000.0, 0.99),  # terminating: the sum overflows
            (-1000.0, -1000.0, -0.99),  # terminating and alternating: inf - inf
        ],
    )
    def test_overflow_is_numeric_error(self, a, b, z):
        with pytest.raises(NumericError, match="overflows"):
            gauss_2f1(a, b, 1.0, z)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(pqdslln.specfun, "_MAX_TERMS", 40)
        assert gauss_2f1(1.0, 1.0, 2.0, 0.1) == pytest.approx(-math.log1p(-0.1) / 0.1, rel=1e-14)
        for z in (0.99, np.array([0.1, 0.99, 0.2])):
            with pytest.raises(NumericError):
                gauss_2f1(1.0, 1.0, 2.0, z)


def per_term_2f1(a: float, b: float, c: float, z):
    """The one-term-per-step sum that gauss_2f1 blocks: the reference for its bits and its refusals."""
    zs = np.asarray(z, dtype=float)
    live_z = zs.ravel()
    _check_2f1_args(a, b, c, float(live_z[np.argmax(np.abs(live_z))]) if live_z.size else 0.0)
    budget = pqdslln.specfun._MAX_TERMS
    out = np.empty(zs.size)
    live = np.arange(zs.size)
    term, total = np.ones(zs.size), np.ones(zs.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(budget):
            if not live.size:
                break
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * live_z
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
    """(a, b, c, z) of a terminating, a general or a covariance-factor series, z an array of 0 to 5,000 elements."""
    kind = draw(st.sampled_from(["terminating", "general", "below x*", "above x*"]))
    if kind in ("below x*", "above x*"):
        # the two series of g_closed_bracket: (1, a+b; a+1) at F < x* and (1, a+b; b+1) at 1 - F <= 1 - x*
        a = draw(st.floats(1.0, 6.0)) + 1.0
        b = draw(st.floats(0.01, 6.0))
        x_star = (a + 1.0) / (a + b + 2.0)
        params, z_max = ((1.0, a + b, a + 1.0), x_star) if kind == "below x*" else ((1.0, a + b, b + 1.0), 1.0 - x_star)
    else:
        first = -float(draw(st.integers(0, 8))) if kind == "terminating" else draw(st.floats(-5.0, 5.0))
        params = (first, draw(st.floats(-5.0, 5.0)), draw(st.floats(0.2, 8.0)))
        z_max = draw(st.sampled_from([0.5, 0.9, 0.99]))
    size = draw(st.sampled_from([0, 1, 2, 5, 100, 255, 257, 4096, 5000]))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-z_max, z_max, size)
    return (*params, z)


class TestBlockedSum:
    @given(series=_series(), budget=st.sampled_from([40, pqdslln.specfun._MAX_TERMS]))
    def test_bits_and_refusals_are_the_per_term_loops(self, series, budget):
        # a budget of 40 terms makes slow series run out of it, in a block or at a one-term step
        a, b, c, z = series
        with mock.patch.object(pqdslln.specfun, "_MAX_TERMS", budget):
            assert _outcome(gauss_2f1, a, b, c, z) == _outcome(per_term_2f1, a, b, c, z)

