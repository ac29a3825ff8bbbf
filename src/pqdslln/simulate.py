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
the standard thread pool (``concurrent.futures.ThreadPoolExecutor``, loaded
on a process's first threaded run), one thread per CPU, samples them; each
idle thread takes the next piece, so a CPU that runs slower than the others
samples fewer pieces instead of holding the run up.  The calling thread
allocates one block per pool thread, and each piece borrows one from a
``queue.SimpleQueue`` and returns it when it ends, so the pool threads make
no large allocation.  The threads run at once because every stage of a
piece's block pipeline is a numpy call that releases the GIL: the Philox
fill, the quantile, and each row's running sum, a 1-D accumulate that numpy
runs without the GIL only when it writes into another array, so it goes
into a spare row of the block.  Any other run, every dependent one among
them, is one piece on the caller's thread.  A dependent row steps through
the recurrence alone, its normalizer, inner sum and window ring in Python
floats, so its path depends on neither the blocking, pieces, threads nor
other rows; the step that breaks an invariant raises NumericError.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .copulas import PowerSchedule, check_p
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
_SCALAR_COLUMNS = 1 << 10  # columns whose coefficients the inversion holds as Python floats at once

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


def _uniform_blocks(model: MultivariateFgmModel | None, rngs: Sequence, n: int, buf: np.ndarray):
    """Yield (start, u), the rows' paths in column blocks as wide as ``buf``.

    Row i draws from ``rngs[i]``, and each block overwrites the last in ``buf``, one row per
    stream and at most n columns.  A dependent row carries its state across blocks in Python
    floats: the normalizer D, the telescoped inner sum and, for a window shorter than the path,
    a ring list of its last ``window`` terms k^mu * eta_k.  :func:`_invert_rows` steps each row
    on its own, so its bytes depend on neither the block widths nor the rows sampled with it.
    """
    dependent = model is not None and model.theta_sum != 0.0
    if dependent:
        window = model.schedule.window
        states = [[1.0, 0.0, [0.0] * window if window is not None and window < n else None] for _ in rngs]
    for start in range(0, n, buf.shape[1]):
        u = buf[:, : n - start]
        for row, row_rng in zip(u, rngs):
            row_rng.random(out=row)
        if dependent:
            for c0 in range(0, u.shape[1], _SCALAR_COLUMNS):
                _invert_rows(model.schedule, u[:, c0 : c0 + _SCALAR_COLUMNS], start + c0, states)
        yield start, u


def _invert_rows(schedule, u, start, states) -> None:
    """Invert block ``u``, whose first column is step ``start + 1``, in place one row at a time.

    Step m takes the stable root 2w / (1 + a + sqrt((1 + a)^2 - 4aw)) of u (1 + a (1 - u)) = w
    at the slope a = A_m / D clipped to [-1, 1].  ``states[i]`` is row i's [D, inner sum, ring
    list or None], updated in place.  The per-step coefficients, which the rows share, are made
    once, and each row is read and written through a memoryview in Python floats.  A step that
    finds a nonpositive normalizer, a slope outside [-1, 1] or a negative discriminant raises
    NumericError, leaving the rest of the block raw.
    """
    scale, mu, nu = schedule.scale, schedule.mu, schedule.nu
    steps = [(scale * float(m) ** nu, float(m) ** mu) for m in range(start + 1, start + u.shape[1] + 1)]
    for row, state in zip(u, states):
        path = memoryview(row)
        d_r, w_r, terms = state
        window, slot = (len(terms), start % len(terms)) if terms else (0, 0)
        for j, (coeff, power) in enumerate(steps):  # scale * m^nu, m^mu
            a_m = coeff * w_r
            if not d_r > 0.0:
                raise NumericError("conditional normalizer became nonpositive (internal normalizer bug)")
            a = a_m / d_r
            if not -1.0 <= a <= 1.0:
                if not -1.0 - 1e-9 <= a <= 1.0 + 1e-9:
                    raise NumericError("conditional slope left [-1, 1] (internal normalizer bug)")
                a = 1.0 if a > 1.0 else -1.0
            w = path[j]
            if -1e-14 < a < 1e-14:  # the root is w; the discriminant is about 1
                u_m = w
            else:
                b = 1.0 + a
                disc = b * b - 4.0 * a * w
                if not disc >= -1e-12:
                    raise NumericError("conditional inversion discriminant went negative (internal normalizer bug)")
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
        state[0], state[1] = d_r, w_r


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
        check_p(self.p)
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

    One pool thread per usable CPU, at most one per replicate, for an independent run that fills
    at least one block of ``_GROUP_ELEMENTS`` uniforms: its block pipeline is numpy calls that
    release the GIL, the running sums among them, since each is a 1-D accumulate into another
    array (numpy holds the GIL for one that writes over its input).  With a count of 1 no pool
    starts: a dependent run stays on the caller's thread, since its inversion steps in Python
    and holds the GIL.
    """
    if (model is not None and model.theta_sum != 0.0) or replicates * n < _GROUP_ELEMENTS:
        return 1
    return min(len(os.sched_getaffinity(0)), replicates)


def _sample_piece(run: SlnnRun, rows: range, buf: np.ndarray, hit_buf: np.ndarray, thresholds, s_matrix, e_matrix) -> None:
    """Sample replicates ``rows`` of ``run`` and write their rows of the checkpoint matrices.

    Each row draws from its own stream and carries its running sum and hit count across blocks
    in sequential order.  The piece allocates no block: it samples in ``buf``, a float64 array
    of at least ``len(rows) + 1`` rows whose width is the block's, and ``hit_buf``, a bool array
    of at least ``len(rows)`` rows of that width, and leaves their contents undefined.  Each
    block's quantiles overwrite its uniforms, which fill rows 1.. of ``buf``, the spare row 0
    taking no uniforms; the running sums of row r + 1 go to row r.  A running sum that passes
    the largest double (a sample may be +inf) raises NumericError.
    """
    cps = run.checkpoints()
    ns = np.array(cps)
    rngs = [replicate_rng(run.seed, rep) for rep in rows]
    s_out, e_out = s_matrix[rows.start : rows.stop], e_matrix[rows.start : rows.stop]
    buf, hit_buf = buf[: len(rows) + 1], hit_buf[: len(rows)]
    s_run, e_run = np.zeros(len(rows)), np.zeros(len(rows), dtype=np.int64)
    for start, u in _uniform_blocks(run.model, rngs, len(thresholds), buf[1:]):
        stop = start + u.shape[1]
        x = run.marginal.quantile(u, out=u)
        hits = np.greater(x, thresholds[start:stop], out=hit_buf[:, : u.shape[1]])
        x[:, 0] += s_run  # continue each row's sum in sequential order
        sums = buf[:-1, : u.shape[1]]
        # row by row into the row above: numpy releases the GIL in a 1-D accumulate only when its
        # output is another array, and never in a 2-D one; a sum that overflows is refused below
        with np.errstate(over="ignore"):
            for row, out in zip(x, sums):
                np.add.accumulate(row, out=out)
        s_run[:] = sums[:, -1]
        finite = np.isfinite(s_run)
        if not finite.all():
            rep = rows.start + int(np.argmin(finite))
            raise NumericError(f"replicate {rep}'s running sum overflows double precision within its first {stop} steps")
        for i in np.flatnonzero((start < ns) & (ns <= stop)):
            s_out[:, i] = sums[:, cps[i] - 1 - start]
            e_out[:, i] = e_run + np.count_nonzero(hits[:, : cps[i] - start], axis=1)
        e_run += np.count_nonzero(hits, axis=1)


def run_slln(run: SlnnRun) -> PathReport:
    """Execute a seeded SLLN run; deterministic given the seed.

    Replicates are sampled in column blocks of at most ``_GROUP_ELEMENTS`` = 2^18 values in all,
    each block's spare row of running sums included, and these blocks, with their hit masks,
    are the whole block memory of a run.  An independent run that fills a block is cut into
    pieces of contiguous replicates, ``_PIECES_PER_THREAD`` per usable CPU, and a thread pool
    with one thread per CPU samples them, each idle thread taking the next piece, so that a
    thread whose CPU runs slower takes fewer; when a piece fails, the pieces not yet started
    are cancelled and the error of the first failed piece is raised.  This thread allocates one
    block per pool thread, and each piece borrows one from a ``queue.SimpleQueue`` and returns
    it in a ``finally``, so the pool threads allocate no block.  A run with one thread, every
    dependent run among them, is one piece on the caller's thread with one block, and loads
    neither ``concurrent.futures`` nor ``queue``; its dependent replicates step through the
    recurrence one at a time in Python floats, raising NumericError at a step that breaks an
    invariant.  Each row draws from its own counter-based stream and carries its running sum and
    hit count across blocks in sequential order, so its results depend neither on the blocks,
    nor on the pieces, nor on the threads.  An M_n that is not finite, as where n*c passes the
    largest double, raises NumericError.
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
    # the blocks, one per thread and each with its spare row, hold _GROUP_ELEMENTS
    width = min(max(1, _GROUP_ELEMENTS // (count * (rows + 1))), n_sampled)
    blocks = [(np.empty((rows + 1, width)), np.empty((rows, width), dtype=bool)) for _ in range(count)]
    if count == 1:
        _sample_piece(run, range(run.replicates), *blocks[0], thresholds, s_matrix, e_matrix)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded on a process's first threaded run
        from queue import SimpleQueue

        free = SimpleQueue()  # the blocks, made on this thread, so the pool's threads allocate none
        for block in blocks:
            free.put(block)

        def sample(first: int) -> None:
            block = free.get()  # never waits: at most count pieces run at once
            try:
                piece = range(first, min(first + rows, run.replicates))
                _sample_piece(run, piece, *block, thresholds, s_matrix, e_matrix)
            finally:
                free.put(block)

        # each piece goes to the first free thread; map raises the first failure in piece order,
        # once the pieces not yet started are cancelled, and leaving the pool joins its threads
        with ThreadPoolExecutor(count) as pool:
            list(pool.map(sample, range(0, run.replicates, rows)))
    with np.errstate(over="ignore", invalid="ignore"):  # an M_n that is not finite is refused below
        m_matrix = (s_matrix - ns * c) / ns ** (1.0 / run.p)
    finite = np.isfinite(m_matrix)
    if not finite.all():
        rep, i = np.argwhere(~finite)[0]
        raise NumericError(f"replicate {rep}'s centred sum S_n - n*c overflows double precision at n={cps[i]}")
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
