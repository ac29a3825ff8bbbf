"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces the public functions of each ``pqdslln`` module
(and the few methods the per-layer metrics name) with timing wrappers.  A
function imported by name into another module is patched there too: every
module attribute that *is* the original function object is replaced, so
``pqdslln.cli.condition_sum`` and ``pqdslln.conditions.condition_terms`` are
both seen.

A call to an ordinary public function records a span (name, start, end,
parent span, request index).  Calls made thousands of times per request
(``HOT``) are not recorded one by one: their counts, inclusive and self
times are summed per parent span.  A span's self time is its duration minus
the time its children cover; children started from a worker thread of
``run_slln`` are attributed to the span that owns the pool, and the union of
their intervals is subtracted.  Spans stay in memory until ``dump``.

The wrappers around ``adaptive_quad`` and ``adaptive_quad_2d`` also wrap the
integrand they are given, to count integrand nodes, and read the error bound
from the return value (``g_numeric`` discards it).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

HOT = frozenset(
    {
        "specfun.gamma",
        "specfun.pochhammer",
        "specfun.gauss_2f1",
        "gfun.bracket_limit",
        "gfun.g_closed_bracket",
        "gfun.g_factor",
        "quadrature.adaptive_quad",
        "quadrature.integrand",
        "copulas.GfmCopula.cdf",
        "marginals.ParetoMarginal.cdf",
    }
)
# (module, class, method, span name)
METHODS = (
    ("copulas", "GfmCopula", "cdf", "copulas.GfmCopula.cdf"),
    ("marginals", "ParetoMarginal", "cdf", "marginals.ParetoMarginal.cdf"),
    ("marginals", "ParetoMarginal", "quantile", "marginals.ParetoMarginal.quantile"),
    ("simulate", "MultivariateFgmModel", "from_power_schedule", "simulate.from_power_schedule"),
)
MODULES = ("specfun", "gfun", "quadrature", "copulas", "marginals", "conditions", "borel_cantelli", "simulate", "cli")
CLI_PUBLIC = ("main", "dispatch")


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall, read."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent, request, thread, self_ns]
        self.spans: list[list] = []
        # (parent span, hot name) -> [calls, inclusive ns, self ns]
        self.hot: dict[tuple, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self._local = threading.local()
        self._main_stack: list = self._stack()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self._condition_keys: dict[int, set] = defaultdict(set)

    # ------------------------------------------------------------------ stacks

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1][1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1][1]  # a pool thread works for the main thread's open span
        return None

    def wrap(self, fn, name: str):
        tracer, clock, hot = self, time.perf_counter_ns, name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            if hot:
                frame = [0, parent]
            else:
                with tracer._lock:
                    idx = len(tracer.spans)
                    tracer.spans.append([name, 0, 0, parent, tracer.request, threading.get_ident(), 0])
                frame = [0, idx]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                if hot:
                    rec = tracer.hot.get((parent, name))
                    if rec is None:
                        tracer.hot[(parent, name)] = [1, dur, own]
                    else:
                        rec[0] += 1
                        rec[1] += dur
                        rec[2] += own
                else:
                    span = tracer.spans[idx]
                    span[1], span[2], span[6] = start, start + dur, own

        return traced

    # ------------------------------------------------------- layer-specific hooks

    def _quadrature(self, fn, name: str):
        tracer = self
        default_tol = inspect.signature(fn).parameters["abs_tol"].default
        from pqdslln.errors import QuadratureError

        def count_nodes(f):
            def integrand(*nodes):
                tracer.counters["quadrature.integrand_nodes"] += np.broadcast(*nodes).size
                return f(*nodes)

            return tracer.wrap(integrand, "quadrature.integrand")

        @functools.wraps(fn)
        def quad(f, *args, **kwargs):
            start = time.perf_counter_ns()
            try:
                value, bound = fn(count_nodes(f), *args, **kwargs)
            except QuadratureError:
                tracer.counters["quadrature.errors"] += 1
                raise
            finally:
                tracer.counters["quadrature.inclusive_ns"] += time.perf_counter_ns() - start
            ratio = bound / kwargs.get("abs_tol", default_tol)
            key = "quadrature.bound_over_tol_max"
            tracer.counters[key] = max(tracer.counters[key], ratio)
            return value, bound

        return self.wrap(quad, name)

    def _condition_terms(self, fn, name: str):
        tracer, sig = self, inspect.signature(fn)

        @functools.wraps(fn)
        def terms(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            tracer.counters["conditions.terms"] += bound.arguments["n_terms"]
            tracer._condition_keys[tracer.request].add(repr(sorted(bound.arguments.items())))
            return fn(*args, **kwargs)

        return self.wrap(terms, name)

    def _sample_paths(self, fn, name: str):
        tracer, sig = self, inspect.signature(fn)

        @functools.wraps(fn)
        def paths(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            model = bound["model"]
            if model is None or model.theta_sum == 0.0:
                return fn(*args, **kwargs)  # independent draws: no sequential inversion
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                with tracer._lock:
                    tracer.counters["simulate.loop_ns"] += time.perf_counter_ns() - start
                    length = bound.get("n") or model.n
                    tracer.counters["simulate.coord_steps"] += bound["batch"] * length

        return self.wrap(paths, name)

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Patch every public function of the package wherever it is looked up."""
        hooks = {
            "quadrature.adaptive_quad": self._quadrature,
            "quadrature.adaptive_quad_2d": self._quadrature,
            "conditions.condition_terms": self._condition_terms,
            "simulate.sample_uniform_paths": self._sample_paths,
        }
        package = {n: m for n, m in sys.modules.items() if n == "pqdslln" or n.startswith("pqdslln.")}
        for short in MODULES:
            module = package[f"pqdslln.{short}"]
            names = CLI_PUBLIC if short == "cli" else getattr(module, "__all__", ())
            for attr in names:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    continue
                name = f"{short}.{attr}"
                wrapped = hooks.get(name, self.wrap)(original, name)
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapped)
        for short, cls_name, attr, name in METHODS:
            cls = getattr(package[f"pqdslln.{short}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name))
            else:
                wrapped = self.wrap(raw, name)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -------------------------------------------------------------- results

    def _cross_thread_cover(self) -> dict[int, int]:
        """ns of each span covered by children that ran on other threads."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            parent = span[3]
            if parent is not None and self.spans[parent][5] != span[5]:
                children[parent].append((span[1], span[2]))
        cover = {}
        for parent, intervals in children.items():
            lo, hi = self.spans[parent][1], self.spans[parent][2]
            total, end = 0, lo
            for a, b in sorted(intervals):
                a, b = max(a, end), min(b, hi)
                if b > a:
                    total += b - a
                    end = b
            cover[parent] = total
        return cover

    def layer_totals(self) -> dict[str, dict]:
        """name -> {calls, self_s} over spans and hot aggregates."""
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        cover = self._cross_thread_cover()
        for i, span in enumerate(self.spans):
            row = totals[span[0]]
            row["calls"] += 1
            row["self_s"] += (span[6] - cover.get(i, 0)) * 1e-9
        for (_, name), (calls, _, own) in self.hot.items():
            row = totals[name]
            row["calls"] += calls
            row["self_s"] += own * 1e-9
        return totals

    def condition_useful_ratio(self) -> float:
        calls = self.layer_totals()["conditions.condition_terms"]["calls"]
        distinct = sum(len(keys) for keys in self._condition_keys.values())
        return distinct / calls if calls else 0.0

    def dump(self, path) -> None:
        """Write every span and hot aggregate once, at the end of the run."""
        threads = {ident: i for i, ident in enumerate(dict.fromkeys(s[5] for s in self.spans))}
        doc = {
            "spans": [
                {"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3], "request": s[4], "thread": threads[s[5]], "self_ns": s[6]}
                for i, s in enumerate(self.spans)
            ],
            "hot": [
                {"parent": parent, "name": name, "calls": rec[0], "incl_ns": rec[1], "self_ns": rec[2]}
                for (parent, name), rec in self.hot.items()
            ],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc))
