"""Panel-adaptive Gauss-Legendre quadrature over 1-D intervals and 2-D boxes.

A region is (a, b) or (ax, bx, ay, by).  Each panel carries an embedded error
estimate |GL15 - GL7| of its tensor-product rule.  The panel with the worst
estimate is split dyadically on every axis until the summed estimate meets
the absolute tolerance or the panel budget is exhausted, in which case
:class:`~pqdslln.errors.QuadratureError` is raised carrying the best
estimate and its error bound.

Several integrals of one integrand are refined in lockstep by
``adaptive_quad_many``; one integral is a one-region call.  Each round pops
the worst splittable panel of every integral still short of its tolerance
and evaluates all their children in one integrand call per rule.  Each
integral keeps its own heap, so it makes the same pops and splits, and gets
the same bits, as it would alone; it is finalized, and its panels dropped,
as soon as it converges.  Every integral is admitted in the first round.
When integrals fail, the error of the lowest-index one is raised, as
integrating them one after another would.

Integrands must accept numpy arrays and evaluate elementwise, assuming no
shape: a 1-D integrand gets a (k, n) node array and a 2-D one a (k, n, 1) x
array and a (k, 1, n) y array, with k panels of n nodes each (n = 7 or 15).
The whole procedure is deterministic: refinement order is a pure function of
the inputs, and each final value is the exactly rounded (fsum) sum over its
panels.  The 7- and 15-node rules are literals (``GL7``, ``GL15``), so no
process loads ``numpy.polynomial``.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Callable, Iterable

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = ["adaptive_quad_many"]

# per dimension, the index that lays the (k, n) nodes of axis i along axis i of
# the k panels' stacked (k, n, ..., n) grids
_AXES = {1: (np.s_[:],), 2: (np.s_[:, :, None], np.s_[:, None, :])}
_MAX_PANELS = 1 << 16  # the panel budget of one integral


def _frozen(*values: float) -> np.ndarray:
    """A read-only float array of the values."""
    out = np.array(values)
    out.flags.writeable = False
    return out


# The 7- and 15-node Gauss-Legendre rules on [-1, 1] as (nodes, weights): the doubles that
# numpy.polynomial.legendre.leggauss returns, written out so that no process loads
# numpy.polynomial or the LAPACK eigen-solve behind it.  Every caller shares the arrays.
GL7 = (
    _frozen(
        -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
        0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
    ),
    _frozen(
        0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
        0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
    ),
)
GL15 = (
    _frozen(
        -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
        -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
        0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
        0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
    ),
    _frozen(
        0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
        0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
        0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
        0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
    ),
)


def _panels(f: Callable, panels: list[tuple[float, ...]]) -> list:
    """(bounds, value, |GL15 - GL7|) of each panel, from one integrand call per rule.

    The panels are all (a, b) or all (ax, bx, ay, by).  Each is reduced with
    the bits of a single panel's h * (W . g) in 1-D and (hx * hy) * (W @ g @ W)
    in 2-D: np.vecdot keeps them, where (W @ g) @ W does not for k > 1.
    """
    edges = np.array(panels).T[:, :, None]  # one (k, 1) column per edge
    lo, hi = edges[0::2], edges[1::2]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    width = functools.reduce(operator.mul, half[:, :, 0])  # h, or hx * hy
    axes = _AXES[len(mid)]
    sums = []
    for x, w in (GL7, GL15):
        # mid + half * x holds each axis's (k, n) nodes; f gets them laid along their axes
        g = np.asarray(f(*map(operator.getitem, mid + half * x, axes)), dtype=float)
        for _ in axes[1:]:  # contract every grid axis but the last with W
            g = w @ g
        sums.append(width * np.vecdot(g, w))
    gl7, gl15 = sums
    return list(zip(panels, gl15.tolist(), np.abs(gl15 - gl7).tolist()))


def _split(bounds: tuple[float, ...]):
    """The children of a panel, halved on every axis with the x-halves outer.

    None when the panel is too narrow to split on some axis.
    """
    children, edges = [()], iter(bounds)
    for lo, hi in zip(edges, edges):  # (lo, hi) of each axis in turn
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return None
        children = [child + half for child in children for half in ((lo, mid), (mid, hi))]
    return children


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

    def next_split(self, abs_tol: float):
        """Children bounds of the worst splittable panel, or None once refinement stops.

        Refinement stops when the error total meets abs_tol or no panel is
        left to split.  Raises QuadratureError when the panel budget
        ``_MAX_PANELS`` is exhausted first.
        """
        while self.err_total > abs_tol and self.heap:
            if len(self.heap) + len(self.done) >= _MAX_PANELS:
                estimate, bound = self.sums()
                raise QuadratureError(
                    f"adaptive_quad_many: panel budget {_MAX_PANELS} exhausted (error bound {bound:.3e} > {abs_tol:.3e})",
                    estimate,
                    bound,
                )
            neg_err, _, bounds, val = heapq.heappop(self.heap)
            err = -neg_err
            children = _split(bounds)
            if children is None:
                self.done.append((val, err))
                continue
            self.err_total -= err
            return children
        return None


def adaptive_quad_many(
    f: Callable,
    regions: Iterable[tuple[float, ...]],
    *,
    abs_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, error_bounds) of the integrals of f over the regions, refined in lockstep.

    The regions are all intervals (a, b) or all boxes (ax, bx, ay, by).
    Both results are float arrays in region order; an empty region (b <= a
    on some axis) gives 0.0 and 0.0.  f is called with a (k, n) array of
    nodes in 1-D, and with x nodes of shape (k, n, 1) and y nodes of shape
    (k, 1, n) in 2-D, panel i's in row i, and must return the values
    elementwise in the (broadcast) shape of its arguments.  Raises
    ParameterError before any evaluation for an abs_tol that is not finite
    and > 0, regions of mixed or other lengths, and a non-finite edge; and
    QuadratureError when an integral spends its ``_MAX_PANELS`` panels or
    cannot reach abs_tol.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise ParameterError(f"quadrature needs a finite abs_tol > 0, got abs_tol={abs_tol!r}")
    regions = [tuple(map(float, region)) for region in regions]
    for region in regions:
        if len(region) not in (2, 4) or len(region) != len(regions[0]):
            raise ParameterError(f"regions must be all (a, b) or all (ax, bx, ay, by), got {region}")
        if not all(map(math.isfinite, region)):
            raise ParameterError(f"region edges must be finite, got {region}")
    values, bounds = np.zeros(len(regions)), np.zeros(len(regions))
    active = {  # index order; an empty region keeps its 0.0 and 0.0
        i: _Integral() for i, region in enumerate(regions) if all(map(operator.lt, region[::2], region[1::2]))
    }
    batch = [(i, [regions[i]]) for i in active]  # (index, bounds of the panels to evaluate for it)
    failed = None  # (index, error) of the lowest-index integral that failed
    while batch:
        panels = iter(_panels(f, [panel for _, group in batch for panel in group]))
        for i, group in batch:
            active[i].push([next(panels) for _ in group])
        batch = []
        for i in list(active):
            integral = active.pop(i)
            if failed is not None and i > failed[0]:
                continue  # its result is not needed: a lower-index integral failed
            try:
                children = integral.next_split(abs_tol)
                if children is not None:
                    active[i] = integral
                    batch.append((i, children))
                    continue
                value, bound = integral.sums()
                if bound > abs_tol:
                    raise QuadratureError(f"adaptive_quad_many: could not reach tolerance {abs_tol:.3e}", value, bound)
                values[i], bounds[i] = value, bound
            except QuadratureError as exc:
                failed = (i, exc)
    if failed is not None:
        raise failed[1]
    return values, bounds
