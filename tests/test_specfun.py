import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqdslln.errors import NumericError, ParameterError
from pqdslln.specfun import gamma


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
