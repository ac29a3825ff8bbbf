"""Panel-adaptive Gauss-Legendre quadrature in one and two dimensions.

Each panel carries an embedded error estimate |GL15 - GL7|.  The panel with
the worst estimate is split dyadically (2D panels split on both axes) until
the summed estimate meets the absolute tolerance or the panel budget is
exhausted, in which case :class:`~pqdslln.errors.QuadratureError` is raised
carrying the best estimate and its error bound.

Integrands must accept numpy arrays and evaluate elementwise.  The whole
procedure is deterministic: refinement order is a pure function of the
inputs, and the final value is the exactly rounded (fsum) sum over panels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = ["QuadSpec", "adaptive_quad", "adaptive_quad_2d"]

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


def _panel_1d(f: Callable, a: float, b: float) -> tuple[float, float]:
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    lo = h * float(_W7 @ np.asarray(f(m + h * _X7), dtype=float))
    hi = h * float(_W15 @ np.asarray(f(m + h * _X15), dtype=float))
    return hi, abs(hi - lo)


def _panel_2d(f: Callable, ax: float, bx: float, ay: float, by: float) -> tuple[float, float]:
    hx, mx = 0.5 * (bx - ax), 0.5 * (bx + ax)
    hy, my = 0.5 * (by - ay), 0.5 * (by + ay)
    f7 = np.asarray(f((mx + hx * _X7)[:, None], (my + hy * _X7)[None, :]), dtype=float)
    f15 = np.asarray(f((mx + hx * _X15)[:, None], (my + hy * _X15)[None, :]), dtype=float)
    lo = hx * hy * float(_W7 @ f7 @ _W7)
    hi = hx * hy * float(_W15 @ f15 @ _W15)
    return hi, abs(hi - lo)


def _refine(initial, split, abs_tol: float, max_panels: int, what: str) -> tuple[float, float]:
    """Shared refinement loop over a panel heap.

    ``initial`` is a list of (bounds, value, error) triples; ``split`` maps a
    panel's bounds to its children's bounds (or None when the panel is too
    narrow to split further).
    """
    heap = []
    done = []  # panels too narrow to split; their error is irreducible
    seq = 0
    for bounds, val, err in initial:
        heapq.heappush(heap, (-err, seq, bounds, val, err))
        seq += 1
    err_total = math.fsum(entry[4] for entry in heap)

    while err_total > abs_tol and heap:
        if len(heap) + len(done) >= max_panels:
            panels = done + list(heap)
            estimate = math.fsum(p[3] for p in panels)
            bound = math.fsum(p[4] for p in panels)
            raise QuadratureError(
                f"{what}: panel budget {max_panels} exhausted (error bound {bound:.3e} > {abs_tol:.3e})",
                estimate,
                bound,
            )
        _, _, bounds, val, err = heapq.heappop(heap)
        children = split(bounds)
        if children is None:
            done.append((None, None, bounds, val, err))
            continue
        err_total -= err
        for child_bounds, child_val, child_err in children:
            heapq.heappush(heap, (-child_err, seq, child_bounds, child_val, child_err))
            seq += 1
            err_total += child_err

    panels = done + list(heap)
    value = math.fsum(p[3] for p in panels)
    bound = math.fsum(p[4] for p in panels)
    if bound > abs_tol:
        raise QuadratureError(f"{what}: could not reach tolerance {abs_tol:.3e}", value, bound)
    return value, bound


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    max_panels: int = QuadSpec.max_panels,
) -> tuple[float, float]:
    """Integrate f over [a, b]; returns (value, error_bound)."""
    if not b > a:
        return 0.0, 0.0

    def split(bounds):
        lo, hi = bounds
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return None
        out = []
        for c_lo, c_hi in ((lo, mid), (mid, hi)):
            val, err = _panel_1d(f, c_lo, c_hi)
            out.append(((c_lo, c_hi), val, err))
        return out

    val, err = _panel_1d(f, a, b)
    return _refine([((a, b), val, err)], split, abs_tol, max_panels, "adaptive_quad")


def adaptive_quad_2d(
    f: Callable,
    ax: float,
    bx: float,
    ay: float,
    by: float,
    *,
    abs_tol: float = QuadSpec.abs_tol,
    max_panels: int = QuadSpec.max_panels,
) -> tuple[float, float]:
    """Integrate f over [ax, bx] x [ay, by]; returns (value, error_bound).

    f is called with broadcastable column/row node arrays and must return the
    corresponding value grid.
    """
    if not (bx > ax and by > ay):
        return 0.0, 0.0

    def split(bounds):
        x0, x1, y0, y1 = bounds
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        if xm <= x0 or xm >= x1 or ym <= y0 or ym >= y1:
            return None
        out = []
        for cx0, cx1 in ((x0, xm), (xm, x1)):
            for cy0, cy1 in ((y0, ym), (ym, y1)):
                val, err = _panel_2d(f, cx0, cx1, cy0, cy1)
                out.append(((cx0, cx1, cy0, cy1), val, err))
        return out

    val, err = _panel_2d(f, ax, bx, ay, by)
    return _refine([((ax, bx, ay, by), val, err)], split, abs_tol, max_panels, "adaptive_quad_2d")
