import math
import time

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import pqdslln.specfun
from pqdslln.errors import DomainError, NumericError
from pqdslln.specfun import HypergeometricArgs, gamma, gauss_2f1, pochhammer


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
        with pytest.raises(DomainError):
            gamma(x)

    @pytest.mark.parametrize("x", [142.5, 200.5, 1e6])
    def test_overflow_is_numeric_error(self, x):
        with pytest.raises(NumericError):
            gamma(x)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_small(self):
        assert pochhammer(3.0, 2) == 12.0

    def test_zero_factor(self):
        assert pochhammer(-1.0, 2) == 0.0

    @given(st.floats(min_value=0.1, max_value=20.0), st.integers(min_value=0, max_value=20))
    def test_gamma_ratio(self, a, n):
        assert pochhammer(a, n) == pytest.approx(gamma(a + n) / gamma(a), rel=1e-10)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    @pytest.mark.parametrize("a, n, expected", [(-3.0, 5, -0.0), (-200.0, 300, 0.0), (-1.0, 10**9, -0.0)])
    def test_zero_factor_gives_its_signed_zero(self, a, n, expected):
        # (-m)_n for m < n: the sign of the m nonzero factors before the zero one
        value = pochhammer(a, n)
        assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("a, n", [(0.5, 30_000_000), (-200.5, 300), (-200.0, 150)])
    def test_overflow_is_numeric_error(self, a, n):
        with pytest.raises(NumericError, match="overflows"):
            pochhammer(a, n)

    @pytest.mark.parametrize("a", [0.5, -3.0, -0.5, 1e-300])
    def test_huge_n_ends_at_once(self, a):
        start = time.perf_counter()
        try:
            pochhammer(a, 10**9)
        except NumericError:
            pass
        assert time.perf_counter() - start < 1.0


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
        # degree-m polynomial: interpolating m+2 samples reproduces it
        a, b, c = -float(m), 1.3, 2.7
        xs = np.linspace(-2.0, 2.0, m + 2)
        ys = [gauss_2f1(a, b, c, float(x)) for x in xs]
        coeffs = np.polynomial.polynomial.polyfit(xs, ys, m)
        for z in np.linspace(-3.0, 3.0, 7):
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
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 0.0, 0.5)  # c = 0
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)  # c negative integer
        with pytest.raises(DomainError):
            gauss_2f1(1.1, 1.0, 2.0, 1.0)  # |z| >= 1 without termination
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.5, -1.5)

    @pytest.mark.parametrize("args", [(1.5, 1.0, 2.0, math.nan), (math.nan, 1.0, 2.0, 0.5), (-2.0, 1.0, 3.0, math.nan)])
    def test_nan_is_domain_error(self, args):
        # a NaN series never meets the truncation test; refuse it before summing
        with pytest.raises(DomainError):
            gauss_2f1(*args)
        with pytest.raises(DomainError):
            gauss_2f1(*args[:3], np.array([0.25, args[3], 0.5]))

    @pytest.mark.parametrize("args", [(math.inf, 1.0, 2.0, 0.5), (1.0, 1.0, -math.inf, 0.5), (-2.0, 1.0, 3.0, math.inf)])
    def test_infinite_argument_is_domain_error(self, args):
        # math.floor and math.ceil of an infinite parameter would raise OverflowError
        with pytest.raises(DomainError):
            gauss_2f1(*args)

    def test_terminating_allows_large_z(self):
        # a = -2 terminates, so |z| >= 1 is fine
        value = gauss_2f1(-2.0, 1.0, 3.0, 2.0)
        expected = 1.0 + (-2.0 * 1.0 / 3.0) * 2.0 + ((-2.0) * (-1.0) * 1.0 * 2.0 / (3.0 * 4.0)) * 4.0 / 2.0
        assert value == pytest.approx(expected, rel=1e-14)

    def test_args_bundle(self):
        HypergeometricArgs(a=-1.0, b=0.5, c=1.5, z=0.25)
        assert gauss_2f1(-1.0, 0.5, 1.5, 0.25) == pytest.approx(1.0 - 0.25 / 3.0, abs=1e-14)
        with pytest.raises(DomainError):
            HypergeometricArgs(a=0.5, b=0.5, c=1.5, z=1.0)

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
        with pytest.raises(DomainError):
            gauss_2f1(1.1, 1.0, 2.0, np.array([0.5, -1.0]))
        assert gauss_2f1(-2.0, 1.0, 3.0, np.array([0.5, 2.0]))[1] == gauss_2f1(-2.0, 1.0, 3.0, 2.0)

    @pytest.mark.parametrize("z", [0.9999999999, -0.9999999999, np.array([0.5, 0.9999999999])])
    def test_hopeless_series_fails_fast(self, z):
        # summed to the 1e6-term budget this took 12.5 s before raising
        start = time.perf_counter()
        with pytest.raises(NumericError):
            gauss_2f1(1.0, 1.0, 2.0, z)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (1.0, 1.0, 2.0, 0.99),  # ~3,000 terms, past the projection step
            (0.5, 0.5, 100.0, 0.9999999999),  # |z| near 1, but the terms fall like n^-100
            (2.5, -1.5, 1.2, 0.999),  # kappa < 0 with a sign change in the early terms
            (-3.0, 1.5, 2.0, 0.9999999999),  # terminating: never projected
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
