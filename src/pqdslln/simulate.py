"""Seeded Monte Carlo for finite pairwise-PQD sequences and SLLN diagnostics.

The joint model is the multivariate bilinear-perturbation law on the unit
cube with density

    1 + sum_{k<j} theta_{kj} (1 - 2 u_k)(1 - 2 u_j),   theta_{kj} = scale * k^mu j^nu,

admissible when sum theta_{kj} <= 1 (each factor pair lies in [-1, 1]); its
bivariate margins are exactly the r = s = 1 power-family copulas with the
prescribed pairwise strengths, which is all the pairwise theory constrains.
Only pairwise PQD is claimed for this construction; full association is not
established, and reports are labelled accordingly.

Sampling is sequential conditional inversion: given the first m - 1
coordinates, the conditional density of u_m is 1 + eta_m * A_m / D_{m-1}
with eta_i = 1 - 2 u_i, A_m = sum_{k<m} theta_{km} eta_k, and the running
normalizer D_m = D_{m-1} + eta_m A_m.  The conditional CDF is an explicitly
invertible quadratic, so every draw consumes exactly one uniform.  The inner
sum telescopes, A_m = scale * m^nu * sum_{k<m} k^mu eta_k, giving O(n)
sampling; long sequences (above the exact-model dimension cap 4096)
truncate dependence to a sliding index window, which is recorded in the
report metadata.

Randomness comes from the counter-based Philox generator keyed by
(seed, replicate).  A run makes one blocked pass for all its replicates,
each row drawing from its own stream.  An independent run that fills a
block is cut into pieces of contiguous replicates, a few per usable CPU, and
one thread per CPU samples them, each taking the next piece when it has
finished its last; a CPU that runs slower than the others then samples
fewer pieces instead of holding the run up.  The threads run at once
because every stage of a piece's block pipeline is a numpy call that
releases the GIL: the Philox fill, the quantile, and each row's running
sum, a 1-D accumulate that numpy runs without the GIL only when it writes
into another array, so it goes into a spare row of the block.  A
dependent run is one piece.
A batch of at most ``_SCALAR_ROWS`` rows steps through the recurrence one
row at a time in Python floats, a larger one a column at a time in numpy;
both make the same correctly rounded operations in the same order.  So a
row's path depends neither on the blocking, nor on the pieces or threads,
nor on the rows sampled with it.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .copulas import PowerSchedule
from .errors import NumericError, ParameterError
from .marginals import ParetoMarginal

__all__ = [
    "EXACT_DIMENSION_CAP",
    "DEFAULT_WINDOW",
    "MultivariateFgmModel",
    "SlnnRun",
    "PathReport",
    "run_slln",
    "replicate_rng",
]

EXACT_DIMENSION_CAP = 1 << 12
DEFAULT_WINDOW = 64
# Uniforms run_slln holds at once (replicates x block columns): bounds peak memory.
_GROUP_ELEMENTS = 1 << 18
# Pieces of replicates per thread in a threaded run: enough that a thread whose CPU runs slower
# hands pieces to the others instead of holding the run up.
_PIECES_PER_THREAD = 4
# Batches of at most this many rows step in Python floats, larger ones in numpy: the measured
# crossover, where a numpy step over one column costs as much as this many scalar steps.
_SCALAR_ROWS = 56
_SCALAR_COLUMNS = 1 << 10  # columns whose coefficients the scalar route holds as Python floats at once
_INVARIANTS = ("slope left [-1, 1]", "normalizer became nonpositive", "inversion discriminant went negative")

_MASK64 = (1 << 64) - 1


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replicate); independent per replicate."""
    key = np.array([int(seed) & _MASK64, int(replicate) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MultivariateFgmModel:
    """Joint bilinear-perturbation law on n coordinates with strengths ``schedule.theta(k, j)``.

    Build via :meth:`from_power_schedule`, which rescales the strengths to the
    admissibility budget with a warning.
    """

    n: int
    schedule: PowerSchedule
    theta_sum: float
    rescale_factor: float

    @classmethod
    def from_power_schedule(cls, n: int, schedule: PowerSchedule) -> "MultivariateFgmModel":
        """The model of ``schedule`` over n coordinates, globally rescaled so its strengths sum to <= 1.

        Above ``EXACT_DIMENSION_CAP`` coordinates a schedule without a window
        gets ``DEFAULT_WINDOW``.  Raises ParameterError when the strengths'
        sum is not finite, as when k^mu or j^nu overflows double precision.
        """
        if n < 1:
            raise ParameterError(f"model dimension must be positive, got {n!r}")
        if schedule.window is None and n > EXACT_DIMENSION_CAP:
            schedule = replace(schedule, window=DEFAULT_WINDOW)
        raw = schedule.theta_sum(n)
        if not math.isfinite(raw):
            raise ParameterError(
                f"pairwise strengths k^mu j^nu overflow double precision at n={n!r}, "
                f"mu={schedule.mu!r}, nu={schedule.nu!r}"
            )
        factor = 1.0 if raw <= 1.0 else 1.0 / raw
        if factor < 1.0:
            warnings.warn(
                f"pairwise strengths sum to {raw:.6g} > 1; rescaling by {factor:.6g} "
                "to keep the joint density nonnegative",
                stacklevel=2,
            )
        return cls(
            n=n,
            schedule=replace(schedule, scale=schedule.scale * factor),
            theta_sum=min(raw, 1.0),
            rescale_factor=factor,
        )


def _uniform_blocks(model: MultivariateFgmModel | None, rngs: Sequence, n: int, width: int, buf=None):
    """Yield (start, u), the rows' paths in column blocks of at most ``width`` steps.

    Row i draws from ``rngs[i]``, and each block overwrites the last, in ``buf`` when it is given
    (one row per stream, at least ``min(width, n)`` columns).  The normalizer D and the
    telescoped inner sum, with a ring of its last ``window`` terms k^mu * eta_k, carry over.  A
    batch of at most ``_SCALAR_ROWS`` rows steps through the recurrence one row at a time in
    Python floats (:func:`_invert_rows`), a larger one a column at a time in numpy
    (:func:`_invert_columns`).  Both routes make the same correctly rounded float operations in
    the same order, so a row's bytes do not depend on the route.  The running invariants are
    checked before every yield.
    """
    batch = len(rngs)
    dependent = model is not None and model.theta_sum != 0.0
    buf = np.empty((batch, min(width, n))) if buf is None else buf
    window = model.schedule.window if dependent else None
    ring = np.zeros((window, batch)) if window is not None and window < n else None
    d, w_run, failed = np.ones(batch), np.zeros(batch), [False] * len(_INVARIANTS)
    invert = _invert_rows if batch <= _SCALAR_ROWS else _invert_columns
    for start in range(0, max(n, 1), width):  # a path of length 0 is one empty block
        u = buf[:, : n - start]
        for row, row_rng in zip(u, rngs):
            row_rng.random(out=row)
        if dependent:
            invert(model.schedule, u, start, d, w_run, ring, failed)
        for bad, what in zip(failed, _INVARIANTS):
            if bad:
                raise NumericError(f"conditional {what} (internal normalizer bug)")
        yield start, u


def _invert_columns(schedule, u, start, d, w_run, ring, failed) -> None:
    """Invert block ``u`` in place one column at a time, each step a numpy operation over the rows.

    ``d``, ``w_run`` and ``ring`` are updated in place; ``failed[i]`` is set when invariant i broke.
    """
    scale, mu, nu = schedule.scale, schedule.mu, schedule.nu
    batch = u.shape[0]
    d_min, a_max, disc_min = np.full(batch, np.inf), np.zeros(batch), np.full(batch, np.inf)
    # invert column j in place: u (1 + a (1 - u)) = w has the stable root 2w / (1 + a + sqrt((1+a)^2 - 4aw))
    for j, m in enumerate(range(start + 1, start + u.shape[1] + 1)):
        a_m = (scale * float(m) ** nu) * w_run
        np.minimum(d_min, d, out=d_min)
        a = a_m / d
        np.maximum(a_max, np.abs(a), out=a_max)
        a = np.clip(a, -1.0, 1.0)
        w = u[:, j]
        disc = (1.0 + a) ** 2 - 4.0 * a * w
        np.minimum(disc_min, disc, out=disc_min)
        denom = 1.0 + a + np.sqrt(np.maximum(disc, 0.0))
        u_m = np.divide(2.0 * w, denom, out=np.zeros_like(w), where=denom > 0.0)
        u[:, j] = u_m = np.where(np.abs(a) < 1e-14, w, u_m)
        eta = 1.0 - 2.0 * u_m
        d += eta * a_m
        term = float(m) ** mu * eta
        w_run += term
        if ring is not None:  # its slot holds the term of step m - window, or 0.0
            slot = (m - 1) % len(ring)
            w_run -= ring[slot]
            ring[slot] = term
    for i, ok in enumerate((a_max <= 1.0 + 1e-9, d_min > 0.0, disc_min >= -1e-12)):
        failed[i] |= not np.all(ok)  # NaN fails every comparison too


def _invert_rows(schedule, u, start, d, w_run, ring, failed) -> None:
    """:func:`_invert_columns` one row at a time in Python floats, with the same operations in
    order.

    Rows are read and written through a memoryview of ``u``, and the per-step coefficients, which
    the rows share, are made for ``_SCALAR_COLUMNS`` columns at a time, so the route holds few
    Python floats however wide the block.
    """
    scale, mu, nu = schedule.scale, schedule.mu, schedule.nu
    batch, cols = u.shape
    window = 0 if ring is None else len(ring)
    slope_ok = positive = real_root = True
    for c0 in range(0, cols, _SCALAR_COLUMNS):
        ms = range(start + c0 + 1, start + min(cols, c0 + _SCALAR_COLUMNS) + 1)
        steps = [(scale * float(m) ** nu, float(m) ** mu) for m in ms]
        for row in range(batch):
            path = memoryview(u[row])
            d_r, w_r = float(d[row]), float(w_run[row])
            terms = ring[:, row].tolist() if window else None
            slot = (ms.start - 1) % window if window else 0
            for j, (coeff, power) in enumerate(steps, c0):  # scale * m^nu, m^mu
                a_m = coeff * w_r
                if not d_r > 0.0:
                    positive = False
                a = a_m / d_r if d_r else math.nan  # numpy's a_m / 0 is inf or nan: a broken slope either way
                if not -1.0 <= a <= 1.0:
                    if not -1.0 - 1e-9 <= a <= 1.0 + 1e-9:
                        slope_ok = False
                    a = 1.0 if a > 1.0 else -1.0 if a < -1.0 else a
                w = path[j]
                if -1e-14 < a < 1e-14:  # the root is w; the discriminant is about 1
                    u_m = w
                else:
                    b = 1.0 + a
                    disc = b * b - 4.0 * a * w
                    if not disc >= -1e-12:
                        real_root = False
                    denom = b + (math.sqrt(disc) if disc > 0.0 else 0.0)
                    path[j] = u_m = 2.0 * w / denom if denom > 0.0 else 0.0
                eta = 1.0 - 2.0 * u_m
                d_r = d_r + eta * a_m
                term = power * eta
                w_r = w_r + term
                if window:
                    w_r = w_r - terms[slot]
                    terms[slot] = term
                    slot = slot + 1 if slot + 1 < window else 0
            d[row], w_run[row] = d_r, w_r
            if window:
                ring[:, row] = terms
    for i, ok in enumerate((slope_ok, positive, real_root)):
        failed[i] |= not ok


@dataclass(frozen=True)
class SlnnRun:
    """Seeded SLLN simulation configuration.

    Checkpoints are dyadic: n in {2^7, 2^8, ..., 2^floor(log2 n_max)}.  The
    centering constant defaults to the marginal mean and must be supplied
    explicitly when the mean is infinite.
    """

    p: float
    marginal: ParetoMarginal
    model: MultivariateFgmModel | None
    n_max: int
    replicates: int
    seed: int
    c: float | None = None

    def __post_init__(self):
        if not 1.0 <= self.p < 2.0:
            raise ParameterError(f"run requires 1 <= p < 2, got p={self.p!r}")
        if self.n_max < 128:
            raise ParameterError(f"run requires n_max >= 128 (first dyadic checkpoint), got {self.n_max!r}")
        if self.replicates < 1:
            raise ParameterError(f"run requires at least one replicate, got {self.replicates!r}")

    def centering(self) -> float:
        if self.c is not None:
            return float(self.c)
        mean = self.marginal.abs_moment(1.0)
        if not math.isfinite(mean):
            raise ParameterError(
                "mean-centering requested but the marginal mean is infinite; pass an explicit c"
            )
        return mean

    def checkpoints(self) -> tuple[int, ...]:
        top = int(math.floor(math.log2(self.n_max)))
        return tuple(1 << e for e in range(7, top + 1))


@dataclass(frozen=True, eq=False)
class PathReport:
    """Per-replicate checkpointed diagnostics of one SLLN run.

    ``m_values[rep, i]`` is M_n = (S_n - n c) / n^(1/p) at the i-th dyadic
    checkpoint; ``exceedances[rep, i]`` is the cumulative count of
    threshold crossings X_k > k^(1/p) up to that n (nondecreasing in n).
    """

    checkpoints: tuple[int, ...]
    m_values: np.ndarray
    exceedances: np.ndarray
    metadata: dict

    def median_abs_m(self) -> np.ndarray:
        return np.median(np.abs(self.m_values), axis=0)

    def max_abs_m(self) -> np.ndarray:
        return np.max(np.abs(self.m_values), axis=0)

    def mean_exceedances(self) -> np.ndarray:
        return np.mean(self.exceedances, axis=0)


def _thread_count(model: MultivariateFgmModel | None, replicates: int, n: int) -> int:
    """Threads that sample a run of ``replicates`` paths of n steps.

    One per usable CPU, at most one per replicate, for an independent run that fills at least one
    block of ``_GROUP_ELEMENTS`` uniforms: its block pipeline is numpy calls that release the GIL,
    the running sums among them, since each is a 1-D accumulate into another array (numpy holds
    the GIL for one that writes over its input).  A dependent run stays on the caller's thread,
    since its inversion steps in Python and holds the GIL.
    """
    if (model is not None and model.theta_sum != 0.0) or replicates * n < _GROUP_ELEMENTS:
        return 1
    return min(len(os.sched_getaffinity(0)), replicates)


def _sample_piece(run: SlnnRun, rows: range, width: int, thresholds, s_matrix, e_matrix) -> None:
    """Sample replicates ``rows`` of ``run`` and write their rows of the checkpoint matrices.

    Each row draws from its own stream and carries its running sum and hit count across blocks
    in sequential order.  Each block's quantiles overwrite its uniforms, which fill rows 1.. of a
    buffer with one spare row; the running sums of row r + 1 go to row r.
    """
    cps = run.checkpoints()
    ns = np.array(cps)
    rngs = [replicate_rng(run.seed, rep) for rep in rows]
    s_out, e_out = s_matrix[rows.start : rows.stop], e_matrix[rows.start : rows.stop]
    buf = np.empty((len(rows) + 1, min(width, len(thresholds))))
    hit_buf = np.empty((len(rows), buf.shape[1]), dtype=bool)
    s_run, e_run = np.zeros(len(rows)), np.zeros(len(rows), dtype=np.int64)
    for start, u in _uniform_blocks(run.model, rngs, len(thresholds), width, buf[1:]):
        stop = start + u.shape[1]
        x = run.marginal.quantile(u, out=u)
        hits = np.greater(x, thresholds[start:stop], out=hit_buf[:, : u.shape[1]])
        x[:, 0] += s_run  # continue each row's sum in sequential order
        sums = buf[:-1, : u.shape[1]]
        # row by row into the row above: numpy releases the GIL in a 1-D accumulate only when its
        # output is another array, and never in a 2-D one
        for row, out in zip(x, sums):
            np.add.accumulate(row, out=out)
        s_run[:] = sums[:, -1]
        for i in np.flatnonzero((start < ns) & (ns <= stop)):
            s_out[:, i] = sums[:, cps[i] - 1 - start]
            e_out[:, i] = e_run + np.count_nonzero(hits[:, : cps[i] - start], axis=1)
        e_run += np.count_nonzero(hits, axis=1)


def run_slln(run: SlnnRun) -> PathReport:
    """Execute a seeded SLLN run; deterministic given the seed.

    Replicates are sampled in column blocks of at most 2^18 values in all, each piece's spare
    row of running sums included.  An independent run that fills a block is cut into pieces
    of contiguous replicates, ``_PIECES_PER_THREAD`` per usable CPU, and one thread per CPU
    samples them, each taking the next piece when it has finished its last, so that a thread
    whose CPU runs slower takes fewer.  A dependent run is one piece on the caller's thread,
    whose few replicates step through the recurrence in Python floats, many in numpy, with
    the same bytes.  Each row draws from its own counter-based stream and carries its running
    sum and hit count across blocks in sequential order, so its results depend neither on the
    blocks, nor on the pieces, nor on the threads.
    """
    c = run.centering()
    cps = run.checkpoints()
    ns = np.array(cps, dtype=float)
    n_sampled = cps[-1]
    if run.model is not None and run.model.n < n_sampled:
        raise ParameterError(
            f"model dimension {run.model.n!r} is smaller than the last checkpoint {n_sampled!r}"
        )
    thresholds = np.arange(1, n_sampled + 1, dtype=float) ** (1.0 / run.p)
    s_matrix, e_matrix = np.empty((run.replicates, len(cps))), np.empty((run.replicates, len(cps)), dtype=np.int64)
    count = _thread_count(run.model, run.replicates, n_sampled)
    rows = run.replicates if count == 1 else max(1, run.replicates // (_PIECES_PER_THREAD * count))
    # the blocks in flight, each with its spare row, hold _GROUP_ELEMENTS
    width = max(1, _GROUP_ELEMENTS // (count * (rows + 1)))
    # shared by the threads: next() on a range iterator is one step under the GIL, so each piece
    # goes to exactly one thread, the first to be free
    pieces = iter(range(0, run.replicates, rows))
    errors: dict = {}

    def sample() -> None:
        for first in pieces:
            if errors:  # another piece failed: the run is lost
                return
            piece = range(first, min(first + rows, run.replicates))
            try:
                _sample_piece(run, piece, width, thresholds, s_matrix, e_matrix)
            except BaseException as exc:  # re-raised below, once every thread has joined
                errors[first] = exc
                return

    threads = [threading.Thread(target=sample) for _ in range(1, count)]
    try:
        for thread in threads:
            thread.start()
        sample()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[min(errors)]
    m_matrix = (s_matrix - ns * c) / ns ** (1.0 / run.p)
    model = run.model
    metadata = {
        "p": run.p,
        "alpha": run.marginal.alpha,
        "c": c,
        "seed": run.seed,
        "replicates": run.replicates,
        "n_sampled": n_sampled,
        "dependence": "independent" if model is None or model.theta_sum == 0.0 else "pairwise-pqd",
        "window": None if model is None else model.schedule.window,
        "theta_sum": 0.0 if model is None else model.theta_sum,
        "rescale_factor": 1.0 if model is None else model.rescale_factor,
    }
    return PathReport(checkpoints=cps, m_values=m_matrix, exceedances=e_matrix, metadata=metadata)
