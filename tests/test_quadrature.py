import heapq
import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import pqdslln.gfun
import pqdslln.quadrature
from pqdslln.copulas import GfmCopula, PowerSchedule
from pqdslln.errors import ParameterError, QuadratureError
from pqdslln.marginals import ParetoMarginal
from pqdslln.quadrature import (
    GL7,
    GL15,
    _panels,
    adaptive_quad_many,
)

_X7, _W7 = GL7
_X15, _W15 = GL15


@pytest.mark.parametrize("n, rule", [(7, GL7), (15, GL15)])
def test_rules_are_the_doubles_of_leggauss(n, rule):
    # the literals are numpy's own nodes and weights, bit for bit; the arrays are shared, so read-only
    for literal, made in zip(rule, np.polynomial.legendre.leggauss(n)):
        assert literal.dtype == np.float64 and literal.tobytes() == made.tobytes()
        assert not literal.flags.writeable


def _quad(f, a, b, abs_tol=1e-10, **kwargs):
    """(value, bound) of one integral over [a, b]: a one-interval batch."""
    (value,), (bound,) = adaptive_quad_many(f, [(a, b)], abs_tol=abs_tol, **kwargs)
    return value, bound


def _quad_2d(f, ax, bx, ay, by, abs_tol=pqdslln.gfun._NUMERIC_ABS_TOL, **kwargs):
    """(value, bound) of one integral over [ax, bx] x [ay, by]: a one-box batch."""
    (value,), (bound,) = adaptive_quad_many(f, [(ax, bx, ay, by)], abs_tol=abs_tol, **kwargs)
    return value, bound


@pytest.mark.parametrize(
    "kwargs",
    [{"abs_tol": 0.0}, {"abs_tol": -1.0}, {"abs_tol": math.nan}, {"abs_tol": math.inf}],
)
def test_quadrature_keywords_are_refused_before_any_evaluation(kwargs):
    calls = []

    def root_1d(x):
        calls.append(x)
        return x**0.5

    def root_2d(x, y):
        calls.append(x)
        return (x * y) ** 0.5

    with pytest.raises(ParameterError):
        _quad(root_1d, 0.0, 1.0, **kwargs)
    with pytest.raises(ParameterError):
        _quad_2d(root_2d, 0.0, 1.0, 0.0, 1.0, **kwargs)
    assert calls == []


def _counting(calls):
    """An integrand of any dimension that records each call."""

    def f(*nodes):
        calls.append(nodes)
        return np.ones(np.broadcast_shapes(*(x.shape for x in nodes)))

    return f


@pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "regions",
    [
        lambda e: [(0.0, e)],
        lambda e: [(e, 1.0)],
        lambda e: [(0.0, 1.0), (0.5, e)],
        lambda e: [(0.0, 1.0, e, 1.0)],
        lambda e: [(0.0, e, 0.0, 1.0)],
        lambda e: [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, e)],
    ],
)
def test_non_finite_edges_are_refused_before_any_evaluation(edge, regions):
    calls = []
    with pytest.raises(ParameterError, match="finite"):
        adaptive_quad_many(_counting(calls), regions(edge), abs_tol=1e-10)
    assert calls == []


@pytest.mark.parametrize(
    "regions",
    [
        [(0.0, 1.0), (0.0, 1.0, 0.0, 1.0)],
        [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0)],
        [(0.0, 1.0, 2.0)],
        [(0.0,)],
        [()],
        [(0.0, 1.0), (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)],
    ],
)
def test_regions_of_mixed_or_other_lengths_are_refused_before_any_evaluation(regions):
    calls = []
    with pytest.raises(ParameterError):
        adaptive_quad_many(_counting(calls), regions, abs_tol=1e-10)
    assert calls == []
    values, bounds = adaptive_quad_many(_counting(calls), [], abs_tol=1e-10)
    assert values.shape == bounds.shape == (0,) and calls == []


# The one-panel evaluators that the batched ones replaced, kept as the oracle
# for their bits: every panel of a batch must reduce exactly as it did alone.
def _panel_1d(f, a, b):
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    lo = h * float(_W7 @ np.asarray(f(m + h * _X7), dtype=float))
    hi = h * float(_W15 @ np.asarray(f(m + h * _X15), dtype=float))
    return hi, abs(hi - lo)


def _panel_2d(f, ax, bx, ay, by):
    hx, mx = 0.5 * (bx - ax), 0.5 * (bx + ax)
    hy, my = 0.5 * (by - ay), 0.5 * (by + ay)
    f7 = np.asarray(f((mx + hx * _X7)[:, None], (my + hy * _X7)[None, :]), dtype=float)
    f15 = np.asarray(f((mx + hx * _X15)[:, None], (my + hy * _X15)[None, :]), dtype=float)
    lo = hx * hy * float(_W7 @ f7 @ _W7)
    hi = hx * hy * float(_W15 @ f15 @ _W15)
    return hi, abs(hi - lo)


def _random_panels(rng, k, dims):
    """k panels with edges in (1e-3, 50), each axis ordered."""
    edges = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(50.0), size=(k, dims, 2))), axis=2)
    return [tuple(float(e) for e in panel.ravel()) for panel in edges]


def _panel_bits(panels):
    return [(bounds, value.hex(), error.hex()) for bounds, value, error in panels]


class TestBatchedPanels:
    """A batch of panels gives each panel the bits of a one-panel evaluation.

    The batch reduces all its panels in one np.vecdot per rule; these cases
    catch a numpy or BLAS whose batched reduction stops matching the
    one-panel dot products.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_1d_matches_one_panel_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        a, e = rng.uniform(0.5, 4.0, size=2)
        integrands = [
            lambda x: np.exp(-a * x) * np.power(x, e),
            lambda x: np.power(1.0 - np.power(np.maximum(x, 1.0), -a), e) * x,
        ]
        for k in (1, 2, 3, 4, 9, 64):
            panels = _random_panels(rng, k, 1)
            for f in integrands:
                expected = [(bounds, *_panel_1d(f, *bounds)) for bounds in panels]
                assert _panel_bits(_panels(f, panels)) == _panel_bits(expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_2d_matches_one_panel_at_a_time(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, e = rng.uniform(0.5, 4.0, size=2)
        integrands = [
            lambda x, y: np.exp(-a * x * y) * np.power(x + y, e),
            lambda x, y: np.power(np.exp(-x), e) * np.power(np.exp(-y), e) * np.exp(x + y),
        ]
        for k in (1, 2, 3, 4, 9, 64):
            panels = _random_panels(rng, k, 2)
            for f in integrands:
                expected = [(bounds, *_panel_2d(f, *bounds)) for bounds in panels]
                assert _panel_bits(_panels(f, panels)) == _panel_bits(expected)


class TestIntegrandCalls:
    """A split evaluates all its children in one integrand call per rule."""

    def test_2d_split_costs_two_calls(self):
        shapes = []

        def fn(x, y):
            shapes.append((x.shape, y.shape))
            return np.sqrt(x * y)

        _quad_2d(fn, 0.0, 1.0, 0.0, 1.0, abs_tol=1e-6)
        first, rest = shapes[:2], shapes[2:]
        assert first == [((1, 7, 1), (1, 1, 7)), ((1, 15, 1), (1, 1, 15))]
        assert rest and rest == [((4, 7, 1), (4, 1, 7)), ((4, 15, 1), (4, 1, 15))] * (len(rest) // 2)
        nodes = sum(math.prod(np.broadcast_shapes(*pair)) for pair in shapes)
        panels = 1 + 4 * (len(rest) // 2)
        assert nodes == 274 * panels

    def test_1d_split_costs_two_calls(self):
        shapes = []

        def fn(x):
            shapes.append(x.shape)
            return np.sqrt(x)

        _quad(fn, 0.0, 1.0)
        first, rest = shapes[:2], shapes[2:]
        assert first == [(1, 7), (1, 15)]
        assert rest and rest == [(2, 7), (2, 15)] * (len(rest) // 2)


class TestAdaptiveQuad:
    def test_polynomial(self):
        value, err = _quad(lambda x: x**2, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert err <= 1e-10

    def test_inverse_square(self):
        value, _ = _quad(lambda x: x**-2.0, 1.0, 2.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_kink(self):
        value, _ = _quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, abs_tol=1e-11)
        exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
        assert value == pytest.approx(exact, abs=1e-10)

    def test_oscillatory_vs_scipy(self):
        fn = lambda x: np.sin(7.0 * x) * np.exp(-x)
        value, _ = _quad(fn, 0.0, 5.0, abs_tol=1e-11)
        expected, _ = scipy.integrate.quad(lambda x: math.sin(7.0 * x) * math.exp(-x), 0.0, 5.0)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_empty_range(self):
        assert _quad(lambda x: x, 2.0, 2.0) == (0.0, 0.0)
        assert _quad(lambda x: x, 3.0, 2.0) == (0.0, 0.0)

    def test_budget_exhaustion(self, monkeypatch):
        # integrable endpoint singularity: every split leaves a hard panel
        spike = lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300))
        monkeypatch.setattr(pqdslln.quadrature, "_MAX_PANELS", 8)
        with pytest.raises(QuadratureError) as excinfo:
            _quad(spike, 0.0, 1.0, abs_tol=1e-12)
        assert excinfo.value.estimate == pytest.approx(2.0, rel=0.5)
        assert excinfo.value.error_bound > 1e-12


class TestAdaptiveQuad2D:
    def test_separable_polynomial(self):
        value, _ = _quad_2d(lambda x, y: x * y**2, 0.0, 1.0, 0.0, 2.0)
        assert value == pytest.approx(0.5 * 8.0 / 3.0, abs=1e-11)

    def test_vs_scipy_dblquad(self):
        fn = lambda x, y: np.exp(-x * y) / (1.0 + x + y)
        value, _ = _quad_2d(fn, 0.0, 2.0, 0.0, 3.0, abs_tol=1e-10)
        expected, _ = scipy.integrate.dblquad(
            lambda y, x: math.exp(-x * y) / (1.0 + x + y), 0.0, 2.0, 0.0, 3.0
        )
        assert value == pytest.approx(expected, abs=1e-8)

    def test_kinked_integrand(self):
        # product of survival-style kinks at x = 1, y = 1
        fn = lambda x, y: np.minimum(1.0, np.maximum(x, 1e-9) ** -2.0) * np.minimum(
            1.0, np.maximum(y, 1e-9) ** -2.0
        )
        # interior kinks not aligned with dyadic panel edges converge slowly;
        # production integrations pre-split at the support edge instead
        value, _ = _quad_2d(fn, 0.5, 2.0, 0.5, 3.0, abs_tol=1e-8)
        one_d = 0.5 + (1.0 - 0.5)  # integral of min(1, x^-2) over [0.5, 2]
        other = 0.5 + (1.0 - 1.0 / 3.0)
        assert value == pytest.approx(one_d * other, abs=1e-7)

    def test_empty(self):
        assert _quad_2d(lambda x, y: x + y, 1.0, 1.0, 0.0, 1.0) == (0.0, 0.0)

    def test_determinism(self):
        fn = lambda x, y: np.cos(x) * np.sin(y + 0.2) + x * y
        a = _quad_2d(fn, 0.0, 3.0, 0.0, 2.0, abs_tol=1e-10)
        b = _quad_2d(fn, 0.0, 3.0, 0.0, 2.0, abs_tol=1e-10)
        assert a == b


# The one-integral refinement loop that lockstep refinement replaced, on the
# one-panel evaluators above: the oracle for the bits of every integral of a
# batch, through a route that cannot share one.
def _halves(bounds):
    lo, hi = bounds
    mid = 0.5 * (lo + hi)
    return None if mid <= lo or mid >= hi else [(lo, mid), (mid, hi)]


def _quarters(bounds):
    x0, x1, y0, y1 = bounds
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    if xm <= x0 or xm >= x1 or ym <= y0 or ym >= y1:
        return None
    return [(a, b, c, d) for a, b in ((x0, xm), (xm, x1)) for c, d in ((y0, ym), (ym, y1))]


def _quad_alone(panel, split, region, abs_tol, what):
    max_panels = pqdslln.quadrature._MAX_PANELS  # as a test may have set it
    heap, done = [], []
    val, err = panel(*region)
    heapq.heappush(heap, (-err, 0, region, val, err))
    seq, err_total = 1, math.fsum([err])
    while err_total > abs_tol and heap:
        if len(heap) + len(done) >= max_panels:
            panels = done + heap
            bound = math.fsum(p[4] for p in panels)
            raise QuadratureError(
                f"{what}: panel budget {max_panels} exhausted (error bound {bound:.3e} > {abs_tol:.3e})",
                math.fsum(p[3] for p in panels),
                bound,
            )
        _, _, bounds, val, err = heapq.heappop(heap)
        children = split(bounds)
        if children is None:
            done.append((None, None, bounds, val, err))
            continue
        err_total -= err
        for child in children:
            child_val, child_err = panel(*child)
            heapq.heappush(heap, (-child_err, seq, child, child_val, child_err))
            seq += 1
            err_total += child_err
    panels = done + heap
    value, bound = math.fsum(p[3] for p in panels), math.fsum(p[4] for p in panels)
    if bound > abs_tol:
        raise QuadratureError(f"{what}: could not reach tolerance {abs_tol:.3e}", value, bound)
    return value, bound


def _alone_1d(f, a, b, abs_tol=1e-10):
    if not b > a:
        return 0.0, 0.0
    return _quad_alone(
        lambda *bounds: _panel_1d(f, *bounds), _halves, (a, b), abs_tol, "adaptive_quad_many"
    )


def _alone_2d(f, ax, bx, ay, by, abs_tol=pqdslln.gfun._NUMERIC_ABS_TOL):
    if not (bx > ax and by > ay):
        return 0.0, 0.0
    return _quad_alone(
        lambda *bounds: _panel_2d(f, *bounds), _quarters, (ax, bx, ay, by), abs_tol, "adaptive_quad_many"
    )


def _integrand_of(call):
    """The integrand that a gfun entry hands to the batched quadrature."""
    seen = []

    def capture(f, regions, **kwargs):
        seen.append(f)
        zeros = np.zeros(len(list(regions)))
        return zeros, zeros

    with mock.patch.object(pqdslln.gfun, "adaptive_quad_many", capture):
        call()
    return seen[0]


def _bits(pairs):
    """The exact bits of a list of (value, bound) pairs."""
    return [(float(value).hex(), float(bound).hex()) for value, bound in pairs]


def _batched(f, regions, **kwargs):
    """The (value, bound) pairs of a batched call, as the bits of each."""
    values, bounds = adaptive_quad_many(f, regions, **kwargs)
    return _bits(zip(values, bounds))


class TestLockstep:
    """Integrals refined in lockstep keep the bits each gets alone."""

    @given(
        alpha=st.sampled_from([1.0, 1.5, 2.5]),
        r=st.floats(1.0, 3.0),
        s=st.floats(1.0, 3.0),
        us=st.lists(st.floats(0.5, 1e3), min_size=1, max_size=8),
    )
    @settings(max_examples=30)
    def test_factor_integrals(self, alpha, r, s, us):
        marginal = ParetoMarginal(alpha)
        f = _integrand_of(lambda: pqdslln.gfun.g_factor(r, s, marginal, [2.0]))
        intervals = [(1.0, u) for u in us]
        batched = _batched(f, intervals, abs_tol=1e-10)
        assert batched == _bits(_alone_1d(f, a, b) for a, b in intervals)

    @given(
        theta=st.floats(0.0, 1.0),
        r=st.sampled_from([1.0, 2.0, 3.0]),
        s=st.sampled_from([1.0, 2.0, 3.0]),
        alpha=st.sampled_from([1.5, 2.0, 3.7]),
        uv=st.lists(st.tuples(st.floats(0.5, 50.0), st.floats(0.5, 50.0)), min_size=1, max_size=5),
    )
    @settings(max_examples=20)
    def test_gap_integrals(self, theta, r, s, alpha, uv):
        copula = GfmCopula(theta=theta, r=r, s=s)
        f = _integrand_of(lambda: pqdslln.gfun.g_numeric(copula, ParetoMarginal(alpha), [(2.0, 2.0)]))
        boxes = [(0.0, math.log(u), 0.0, math.log(v)) for u, v in uv]
        batched = _batched(f, boxes, abs_tol=pqdslln.gfun._NUMERIC_ABS_TOL)
        assert batched == _bits(_alone_2d(f, *box) for box in boxes)

    @given(
        p=st.floats(1.0, 1.9),
        alpha=st.sampled_from([1.0, 2.0, 3.0]),
        kj=st.tuples(st.integers(1, 50), st.integers(1, 50)).filter(lambda kj: kj[0] != kj[1]),
        edges=st.lists(st.lists(st.floats(1.0, 20.0), min_size=4, max_size=4), min_size=1, max_size=4),
    )
    @settings(max_examples=20)
    def test_joint_survival_integrals(self, p, alpha, kj, edges):
        marginal = ParetoMarginal(alpha)
        copula = GfmCopula(PowerSchedule(mu=1.0 / p - 0.5, nu=-1.5).theta(min(kj), max(kj)))

        def f(x, y):
            # the joint survival P{X_k > x, X_j > y} of a Pareto pair under the power-family copula
            sx, sy = marginal.survival(x), marginal.survival(y)
            return sx * sy + copula.gap(1.0 - sx, 1.0 - sy)

        boxes = [(min(e[:2]), max(e[:2]), min(e[2:]), max(e[2:])) for e in edges]
        batched = _batched(f, boxes, abs_tol=2.5e-10)
        assert batched == _bits(_alone_2d(f, *box, abs_tol=2.5e-10) for box in boxes)

    def test_one_integrand_call_per_rule_per_round(self):
        shapes = []

        def fn(x, y):
            shapes.append((x.shape, y.shape))
            return np.sqrt(x * y)

        _quad_2d(fn, 0.0, 1.0, 0.0, 1.0, abs_tol=1e-6)
        alone = list(shapes)
        shapes.clear()
        adaptive_quad_many(fn, [(0.0, 1.0, 0.0, 1.0)] * 3, abs_tol=1e-6)
        assert shapes == [((3 * a[0], *a[1:]), (3 * b[0], *b[1:])) for a, b in alone]

    def test_empty_regions_cost_nothing(self):
        calls = []

        def fn(x):
            calls.append(x.shape)
            return x

        assert _batched(fn, [(2.0, 2.0), (3.0, 1.0)], abs_tol=1e-10) == _bits([(0.0, 0.0)] * 2)
        assert _batched(fn, [], abs_tol=1e-10) == []
        assert calls == []


class TestLockstepErrors:
    """A failing batch raises the error of its lowest-index failing integral, as one at a time would."""

    @staticmethod
    def _raised(call):
        with pytest.raises(QuadratureError) as excinfo:
            call()
        exc = excinfo.value
        return str(exc), exc.estimate, exc.error_bound

    def test_budget_exhausted_mid_batch_1d(self, monkeypatch):
        spike = lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300))
        intervals = [(1.0, 2.0), (0.0, 1.0), (2.0, 3.0), (0.0, 0.5)]
        monkeypatch.setattr(pqdslln.quadrature, "_MAX_PANELS", 8)
        kwargs = dict(abs_tol=1e-12)
        expected = self._raised(lambda: _alone_1d(spike, 0.0, 1.0, **kwargs))
        assert "panel budget 8 exhausted" in expected[0]
        assert self._raised(lambda: adaptive_quad_many(spike, intervals, **kwargs)) == expected

    def test_budget_exhausted_mid_batch_2d(self, monkeypatch):
        spike = lambda x, y: 1.0 / np.sqrt(np.maximum(x * y, 1e-300))
        boxes = [(1.0, 2.0, 1.0, 2.0), (0.0, 1.0, 0.0, 1.0), (0.0, 0.5, 0.0, 0.5)]
        monkeypatch.setattr(pqdslln.quadrature, "_MAX_PANELS", 40)
        kwargs = dict(abs_tol=1e-9)
        expected = self._raised(lambda: _alone_2d(spike, 0.0, 1.0, 0.0, 1.0, **kwargs))
        assert self._raised(lambda: adaptive_quad_many(spike, boxes, **kwargs)) == expected

    def test_lowest_index_wins_though_a_later_one_fails_first(self, monkeypatch):
        # (1, 1 + ulp) cannot be split, and its GL7 and GL15 sums of the
        # spike at 1 differ, so it fails in its first round; (0, 1) fails
        # only once its budget is spent, some rounds later
        top = math.nextafter(1.0, 2.0)
        f = lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300)) + 1e30 * (x == 1.0)
        monkeypatch.setattr(pqdslln.quadrature, "_MAX_PANELS", 8)
        kwargs = dict(abs_tol=1e-12)
        budget = self._raised(lambda: _alone_1d(f, 0.0, 1.0, **kwargs))
        narrow = self._raised(lambda: _alone_1d(f, 1.0, top, **kwargs))
        assert "panel budget" in budget[0] and "could not reach tolerance" in narrow[0]
        assert self._raised(lambda: adaptive_quad_many(f, [(0.0, 1.0), (1.0, top)], **kwargs)) == budget
        assert self._raised(lambda: adaptive_quad_many(f, [(1.0, top), (0.0, 1.0)], **kwargs)) == narrow
