"""Panel-adaptive Gauss-Legendre quadrature in one and two dimensions.

Each panel carries an embedded error estimate |GL15 - GL7|.  The panel with
the worst estimate is split dyadically (2D panels split on both axes) until
the summed estimate meets the absolute tolerance or the panel budget is
exhausted, in which case :class:`~pqdslln.errors.QuadratureError` is raised
carrying the best estimate and its error bound.

Integrands must accept numpy arrays and evaluate elementwise, assuming no
shape: all panels of one split are evaluated in one call per rule, so a 1D
integrand gets a (k, n) node array and a 2D one a (k, n, 1) x array and a
(k, 1, n) y array, with k panels of n nodes each (n = 7 or 15).  The whole
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


def _panels_1d(f: Callable, panels: list[tuple[float, float]]) -> list:
    """(bounds, value, |GL15 - GL7|) of each panel (a, b), from one integrand call per rule."""
    h = [0.5 * (b - a) for a, b in panels]
    m = np.array([0.5 * (a + b) for a, b in panels])[:, None]
    hh = np.array(h)[:, None]
    f7 = np.asarray(f(m + hh * _X7), dtype=float)
    f15 = np.asarray(f(m + hh * _X15), dtype=float)
    out = []
    for bounds, hk, g7, g15 in zip(panels, h, f7, f15):
        lo = hk * float(_W7 @ g7)
        hi = hk * float(_W15 @ g15)
        out.append((bounds, hi, abs(hi - lo)))
    return out


def _panels_2d(f: Callable, panels: list[tuple[float, float, float, float]]) -> list:
    """(bounds, value, |GL15 - GL7|) of each panel (ax, bx, ay, by), from one integrand call per rule.

    The nodes of panel i are x[i] (a column) and y[i] (a row): x has shape
    (k, n, 1) and y (k, 1, n), so f returns k stacked n x n grids, each
    reduced on its own exactly as a single panel would be.
    """
    hx = [0.5 * (bx - ax) for ax, bx, _, _ in panels]
    hy = [0.5 * (by - ay) for _, _, ay, by in panels]
    mx = np.array([0.5 * (bx + ax) for ax, bx, _, _ in panels])[:, None, None]
    my = np.array([0.5 * (by + ay) for _, _, ay, by in panels])[:, None, None]
    hhx, hhy = np.array(hx)[:, None, None], np.array(hy)[:, None, None]
    f7 = np.asarray(f(mx + hhx * _X7[:, None], my + hhy * _X7), dtype=float)
    f15 = np.asarray(f(mx + hhx * _X15[:, None], my + hhy * _X15), dtype=float)
    out = []
    for bounds, hxk, hyk, g7, g15 in zip(panels, hx, hy, f7, f15):
        lo = hxk * hyk * float(_W7 @ g7 @ _W7)
        hi = hxk * hyk * float(_W15 @ g15 @ _W15)
        out.append((bounds, hi, abs(hi - lo)))
    return out


def _refine(initial, split, abs_tol: float, max_panels: int, what: str) -> tuple[float, float]:
    """Shared refinement loop over a panel heap.

    ``initial`` is a list of (bounds, value, error) triples; ``split`` maps a
    panel's bounds to its children's triples (or None when the panel is too
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
    """Integrate f over [a, b]; returns (value, error_bound).

    f is called with a (k, n) array of nodes, row i holding panel i's nodes,
    and must return the values elementwise in the same shape.  Raises
    ParameterError at once for an abs_tol or max_panels that QuadSpec refuses.
    """
    QuadSpec(abs_tol, max_panels)
    if not b > a:
        return 0.0, 0.0

    def split(bounds):
        lo, hi = bounds
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return None
        return _panels_1d(f, [(lo, mid), (mid, hi)])

    return _refine(_panels_1d(f, [(a, b)]), split, abs_tol, max_panels, "adaptive_quad")


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

    f is called with x nodes of shape (k, n, 1) and y nodes of shape
    (k, 1, n), panel i's in x[i] and y[i], and must return the values
    elementwise in their broadcast shape (k, n, n).  Raises ParameterError
    at once for an abs_tol or max_panels that QuadSpec refuses.
    """
    QuadSpec(abs_tol, max_panels)
    if not (bx > ax and by > ay):
        return 0.0, 0.0

    def split(bounds):
        x0, x1, y0, y1 = bounds
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        if xm <= x0 or xm >= x1 or ym <= y0 or ym >= y1:
            return None
        children = [(cx0, cx1, cy0, cy1) for cx0, cx1 in ((x0, xm), (xm, x1)) for cy0, cy1 in ((y0, ym), (ym, y1))]
        return _panels_2d(f, children)

    return _refine(_panels_2d(f, [(ax, bx, ay, by)]), split, abs_tol, max_panels, "adaptive_quad_2d")
