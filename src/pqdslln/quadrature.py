"""Panel-adaptive Gauss-Legendre quadrature in one and two dimensions.

Each panel carries an embedded error estimate |GL15 - GL7|.  The panel with
the worst estimate is split dyadically (2D panels split on both axes) until
the summed estimate meets the absolute tolerance or the panel budget is
exhausted, in which case :class:`~pqdslln.errors.QuadratureError` is raised
carrying the best estimate and its error bound.

Several integrals of one integrand are refined in lockstep
(``adaptive_quad_many``, ``adaptive_quad_2d_many``; one integral is a
one-region call).  Each round pops the worst splittable
panel of every integral still short of its tolerance and evaluates all their
children in one integrand call per rule.  Each integral keeps its own heap,
so it makes the same pops and splits, and gets the same bits, as it would
alone; it is finalized, and its panels dropped, as soon as it converges.
Every integral is admitted in the first round.  When integrals fail, the
error of the lowest-index one is raised, as integrating them one after
another would.

Integrands must accept numpy arrays and evaluate elementwise, assuming no
shape: a 1D integrand gets a (k, n) node array and a 2D one a (k, n, 1) x
array and a (k, 1, n) y array, with k panels of n nodes each (n = 7 or 15).
The whole procedure is deterministic: refinement order is a pure function of
the inputs, and each final value is the exactly rounded (fsum) sum over its
panels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = ["QuadSpec", "adaptive_quad_2d_many", "adaptive_quad_many"]

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy budget for an adaptive integration."""

    abs_tol: float = 1e-9
    max_panels: int = 1 << 16

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0 and self.max_panels >= 1):
            raise ParameterError(f"quadrature needs a finite abs_tol > 0 and max_panels >= 1, got {self}")


def _panels_1d(f: Callable, panels: list[tuple[float, float]]) -> list:
    """(bounds, value, |GL15 - GL7|) of each panel (a, b), from one integrand call per rule."""
    a, b = np.array(panels).T
    h = 0.5 * (b - a)
    m, hh = (0.5 * (a + b))[:, None], h[:, None]
    lo = h * np.vecdot(np.asarray(f(m + hh * _X7), dtype=float), _W7)
    hi = h * np.vecdot(np.asarray(f(m + hh * _X15), dtype=float), _W15)
    return list(zip(panels, hi.tolist(), np.abs(hi - lo).tolist()))


def _panels_2d(f: Callable, panels: list[tuple[float, float, float, float]]) -> list:
    """(bounds, value, |GL15 - GL7|) of each panel (ax, bx, ay, by), from one integrand call per rule.

    The nodes of panel i are x[i] (a column) and y[i] (a row): x has shape
    (k, n, 1) and y (k, 1, n), so f returns k stacked n x n grids.  Each is
    reduced with the bits of a single panel's W @ g @ W: np.vecdot keeps
    them, where (W @ f) @ W does not for k > 1.
    """
    ax, bx, ay, by = np.array(panels).T
    hx, hy = 0.5 * (bx - ax), 0.5 * (by - ay)
    mx, my, sx, sy = (v[:, None, None] for v in (0.5 * (bx + ax), 0.5 * (by + ay), hx, hy))
    f7 = np.asarray(f(mx + sx * _X7[:, None], my + sy * _X7), dtype=float)
    f15 = np.asarray(f(mx + sx * _X15[:, None], my + sy * _X15), dtype=float)
    lo = hx * hy * np.vecdot(_W7 @ f7, _W7)
    hi = hx * hy * np.vecdot(_W15 @ f15, _W15)
    return list(zip(panels, hi.tolist(), np.abs(hi - lo).tolist()))


def _split_1d(bounds):
    """The two halves of (a, b), or None when the panel is too narrow to split."""
    lo, hi = bounds
    mid = 0.5 * (lo + hi)
    if mid <= lo or mid >= hi:
        return None
    return [(lo, mid), (mid, hi)]


def _split_2d(bounds):
    """The four quarters of (ax, bx, ay, by), or None when the panel is too narrow to split."""
    x0, x1, y0, y1 = bounds
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    if xm <= x0 or xm >= x1 or ym <= y0 or ym >= y1:
        return None
    return [(cx0, cx1, cy0, cy1) for cx0, cx1 in ((x0, xm), (xm, x1)) for cy0, cy1 in ((y0, ym), (ym, y1))]


class _Integral:
    """The panels of one integral under refinement.

    Heap entries are (-error, seq, bounds, value); ``seq`` breaks ties in
    push order.  ``done`` holds the (value, error) of panels too narrow to
    split, whose error is irreducible.
    """

    __slots__ = ("heap", "done", "seq", "err_total")

    def __init__(self):
        self.heap, self.done, self.seq, self.err_total = [], [], 0, 0.0

    def push(self, panels) -> None:
        for bounds, val, err in panels:
            heapq.heappush(self.heap, (-err, self.seq, bounds, val))
            self.seq += 1
            self.err_total += err

    def sums(self) -> tuple[float, float]:
        """(value, error bound): exactly rounded sums over every panel."""
        value = math.fsum([val for val, _ in self.done] + [entry[3] for entry in self.heap])
        bound = math.fsum([err for _, err in self.done] + [-entry[0] for entry in self.heap])
        return value, bound

    def next_split(self, split: Callable, abs_tol: float, max_panels: int, what: str):
        """Children bounds of the worst splittable panel, or None once refinement stops.

        Refinement stops when the error total meets abs_tol or no panel is
        left to split.  Raises QuadratureError when the panel budget is
        exhausted first.
        """
        while self.err_total > abs_tol and self.heap:
            if len(self.heap) + len(self.done) >= max_panels:
                estimate, bound = self.sums()
                raise QuadratureError(
                    f"{what}: panel budget {max_panels} exhausted (error bound {bound:.3e} > {abs_tol:.3e})",
                    estimate,
                    bound,
                )
            neg_err, _, bounds, val = heapq.heappop(self.heap)
            err = -neg_err
            children = split(bounds)
            if children is None:
                self.done.append((val, err))
                continue
            self.err_total -= err
            return children
        return None


def _refine(
    evaluate: Callable, split: Callable, regions: Iterable, abs_tol: float, max_panels: int, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """(values, error bounds) of the integrals over the regions, refined in lockstep.

    ``evaluate`` maps a list of panel bounds to their (bounds, value, error)
    triples with one integrand call per rule; ``split`` maps a panel's bounds
    to its children's bounds, or None when it is too narrow to split.  A
    region given as None is empty and integrates to (0.0, 0.0).
    """
    regions = list(regions)
    values, bounds = np.zeros(len(regions)), np.zeros(len(regions))
    active = {i: _Integral() for i, region in enumerate(regions) if region is not None}  # index order
    batch = [(i, [regions[i]]) for i in active]  # (index, bounds of the panels to evaluate for it)
    failed = None  # (index, error) of the lowest-index integral that failed
    while batch:
        panels = iter(evaluate([panel for _, group in batch for panel in group]))
        for i, group in batch:
            active[i].push([next(panels) for _ in group])
        batch = []
        for i in list(active):
            integral = active.pop(i)
            if failed is not None and i > failed[0]:
                continue  # its result is not needed: a lower-index integral failed
            try:
                children = integral.next_split(split, abs_tol, max_panels, what)
                if children is not None:
                    active[i] = integral
                    batch.append((i, children))
                    continue
                value, bound = integral.sums()
                if bound > abs_tol:
                    raise QuadratureError(f"{what}: could not reach tolerance {abs_tol:.3e}", value, bound)
                values[i], bounds[i] = value, bound
            except QuadratureError as exc:
                failed = (i, exc)
    if failed is not None:
        raise failed[1]
    return values, bounds


def adaptive_quad_many(
    f: Callable,
    intervals: Iterable[tuple[float, float]],
    *,
    abs_tol: float = 1e-10,
    max_panels: int = QuadSpec.max_panels,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, error_bounds) of the integrals of f over the intervals (a, b), refined in lockstep.

    Both are float arrays in interval order; an empty interval (b <= a)
    gives 0.0 and 0.0.  f is called with a (k, n) array of nodes, row i
    holding panel i's nodes, and must return the values elementwise in the
    same shape.  Raises ParameterError at once for an abs_tol or max_panels
    that QuadSpec refuses.
    """
    QuadSpec(abs_tol, max_panels)
    return _refine(
        lambda panels: _panels_1d(f, panels),
        _split_1d,
        ((a, b) if b > a else None for a, b in intervals),
        abs_tol,
        max_panels,
        "adaptive_quad_many",
    )


def adaptive_quad_2d_many(
    f: Callable,
    boxes: Iterable[tuple[float, float, float, float]],
    *,
    abs_tol: float = QuadSpec.abs_tol,
    max_panels: int = QuadSpec.max_panels,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, error_bounds) of the integrals of f over the boxes (ax, bx, ay, by), refined in lockstep.

    Both are float arrays in box order; an empty box gives 0.0 and 0.0.  f
    is called with x nodes of shape (k, n, 1) and y nodes of shape
    (k, 1, n), panel i's in x[i] and y[i], and must return the values
    elementwise in their broadcast shape (k, n, n).  Raises ParameterError
    at once for an abs_tol or max_panels that QuadSpec refuses.
    """
    QuadSpec(abs_tol, max_panels)
    return _refine(
        lambda panels: _panels_2d(f, panels),
        _split_2d,
        ((ax, bx, ay, by) if bx > ax and by > ay else None for ax, bx, ay, by in boxes),
        abs_tol,
        max_panels,
        "adaptive_quad_2d_many",
    )

