"""Seeded request generators for the three benchmark workloads.

``build(workload, seed)`` returns the request list of one pass; the program
only ever sees the argv lists.  Parameters are drawn across the ranges the
CLI accepts, by Latin hypercube sampling: one draw per stratum of each
parameter, strata shuffled.  Request sizes (N, n) take the stratum midpoints
instead, and the categorical parameters are balanced, so every seed sends
different requests with nearly the same total work.  That keeps the
seed-to-seed spread of the timings small without narrowing any range.

The requests that run adaptive quadrature (``oracle-check``) and the
``simulate slln`` requests come from fixed catalogues drawn once from
``CATALOGUE_SEED``:

* quadrature cost jumps by orders of magnitude between neighbouring
  parameters, so a per-seed draw would make the p90 latency measure the
  draw.  The catalogue fixes every parameter that sets the cost (kind, p, r,
  s, alpha, N; u, v and theta of ``g eval``); the seed draws the schedule
  (mu, nu), which only weights the series terms, and all of the cheap
  ``bc bracket`` requests.
* a ``simulate slln`` request's ``paths.csv`` is pinned by a digest captured
  at the seed (``pins.json``), and a digest exists only for a request known in
  advance.  A seed picks one of ``CATALOGUE_CHOICES`` entries per work stratum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("series-scan", "oracle-check", "slln-sim")
KINDS = ("cs11", "nec12", "l1")
ORACLE_ALPHAS = (1.5, 2.5, 3.0, 3.7)
REPORT_ALPHAS = (1.5, 2.0, 2.5, 3.0, 3.7)
CATALOGUE_SEED = 20200406
PINS_PATH = Path(__file__).with_name("pins.json")

# Requests per pass.  At least 100, so that the p90 latency has ten or more
# samples above it; a pass takes about 8-13 s on a 2-core x86-64 machine.
SERIES_CONDITION, SERIES_RATIO, SERIES_N_MAX = 100, 25, 30_000
ORACLE_CONDITION, ORACLE_REPORT, ORACLE_G, ORACLE_REQUESTS = 6, len(REPORT_ALPHAS), 1, 150
# A scan of the schedule window for one model: requests of equal cost, among
# which the p90 latency of oracle-check falls, so that no single request's
# timing sets it.
ORACLE_SCAN, ORACLE_SCAN_N, ORACLE_SCAN_ALPHA = 12, 120, 2.5
SLLN_INDEPENDENT, SLLN_EXACT, SLLN_WINDOWED = 25, 69, 6
# Simulate catalogue entries per stratum; a seed picks one of them.
CATALOGUE_CHOICES = 3
G_EVAL_CATALOGUE = 24

EXACT_CAP = 4096  # pqdslln.simulate.EXACT_DIMENSION_CAP; above it the model is windowed


@dataclass(frozen=True)
class Request:
    """One CLI invocation: the subcommand, its parameters, and the argv sent."""

    op: str
    params: dict = field(hash=False)
    argv: tuple
    pin: str | None = None  # catalogue key into pins.json


def _num(x: float) -> str:
    return repr(float(x))


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n stratified uniforms on [0, 1): one per stratum, in shuffled order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _midpoints(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n stratum midpoints of [0, 1), in shuffled order: request sizes, whose spread sets the cost."""
    return (rng.permutation(n) + 0.5) / n


def _log_uniform(q, lo: float, hi: float):
    return lo * (hi / lo) ** np.asarray(q)


def _schedule(p: float, q_nu: float, q_mu: float) -> tuple[float, float]:
    """(mu, nu) strictly inside the ThetaSchedule window 1/p - 1 < mu < 2/p - 2 - nu."""
    nu_hi = 1.0 / p - 1.0  # the window is empty unless nu < 1/p - 1
    nu = -2.5 + (nu_hi + 2.5) * (0.02 + 0.96 * q_nu)
    lo, hi = 1.0 / p - 1.0, 2.0 / p - 2.0 - nu
    mu = lo + (hi - lo) * (0.02 + 0.96 * q_mu)
    return float(mu), float(nu)


def _argv(op: str, params: dict) -> tuple:
    # --flag=value: as a separate token, a negative value in exponent form
    # (repr(-8.8e-05)) is taken by argparse for an option and rejected
    flags = [f"--{key.replace('_', '-')}={_num(v) if isinstance(v, float) else v}" for key, v in params.items()]
    return tuple(op.split() + flags)


def _request(op: str, params: dict, catalogued: bool = False) -> Request:
    argv = _argv(op, params)
    return Request(op=op, params=params, argv=argv, pin=" ".join(argv) if catalogued else None)


def _size_midpoints(count: int, n_max: int) -> list[int]:
    """N at the midpoints of ``count`` strata, log-uniform on [2, n_max], in ascending order."""
    return [int(n) for n in np.rint(_log_uniform((np.arange(count) + 0.5) / count, 2, n_max))]


def _condition_checks(rng, n_values: list[int], alphas, window=None) -> list[Request]:
    """Kind and alpha cycle along ``n_values``, so every seed sends the same
    (N, kind, alpha) triples, with other p, mu, nu, r and s.  (mu, nu) come
    from ``window`` when it is given, everything else from ``rng``."""
    count = len(n_values)
    q = {name: _strata(rng, count) for name in ("p", "r", "s")}
    q.update({name: _strata(rng if window is None else window, count) for name in ("nu", "mu")})
    out = []
    for i in range(count):
        p = 1.0 + float(q["p"][i])
        mu, nu = _schedule(p, q["nu"][i], q["mu"][i])
        params = {
            "kind": KINDS[i % len(KINDS)],
            "p": p,
            "mu": mu,
            "nu": nu,
            "r": 1.0 + 2.0 * float(q["r"][i]),
            "s": 1.0 + 2.0 * float(q["s"][i]),
            "alpha": float(alphas[i % len(alphas)]),
            "N": n_values[i],
        }
        out.append(_request("condition check", params))
    return out


def _schedule_scan(model: Request, rng, count: int) -> list[Request]:
    """``count`` copies of one condition check, with (mu, nu) drawn across the
    schedule window: the same thresholds and factor values, so the same cost."""
    q_nu, q_mu = _strata(rng, count), _strata(rng, count)
    out = []
    for i in range(count):
        mu, nu = _schedule(model.params["p"], q_nu[i], q_mu[i])
        out.append(_request(model.op, dict(model.params, mu=mu, nu=nu)))
    return out


def _theta_spec(mu: float, nu: float, scale: float | None = None) -> str:
    parts = [_num(mu), _num(nu)] + ([] if scale is None else [_num(scale)])
    return "power:" + ",".join(parts)


def _bc_ratios(rng, count: int) -> list[Request]:
    """The grid sizes (n, points) are the same pairs in every seed: the
    midpoints of their strata, the largest n with the fewest points."""
    q = {name: _strata(rng, count) for name in ("alpha", "p", "nu", "mu", "r", "s")}
    q["n"] = _midpoints(rng, count)
    q["points"] = 1.0 - q["n"]
    out = []
    for i in range(count):
        p = 1.0 + float(q["p"][i])
        mu, nu = _schedule(p, q["nu"][i], q["mu"][i])
        n_max = int(round(float(_log_uniform(q["n"][i], 10, 1e6))))
        points = 2 + int(q["points"][i] * 59)
        params = {
            "alpha": 1.0 + 3.0 * float(q["alpha"][i]),
            "p": p,
            "theta_spec": _theta_spec(mu, nu),
            "r": 1.0 + 2.0 * float(q["r"][i]),
            "s": 1.0 + 2.0 * float(q["s"][i]),
            "n_grid": f"log:{n_max}:{points}",
        }
        out.append(_request("bc ratio", params))
    return out


def _bc_brackets(rng, count: int) -> list[Request]:
    q = {name: _strata(rng, count) for name in ("alpha", "p", "nu", "mu", "r", "s", "k", "j", "eps")}
    out = []
    for i in range(count):
        p = 1.0 + float(q["p"][i])
        mu, nu = _schedule(p, q["nu"][i], q["mu"][i])
        k = int(_log_uniform(q["k"][i], 1, 1e4))
        j = int(_log_uniform(q["j"][i], 1, 1e4))
        if j == k:
            j = k + 1
        params = {
            "alpha": 1.0 + 3.0 * float(q["alpha"][i]),
            "p": p,
            "theta_spec": _theta_spec(mu, nu),
            "r": 1.0 + 2.0 * float(q["r"][i]),
            "s": 1.0 + 2.0 * float(q["s"][i]),
            "k": k,
            "j": j,
            "eps": float(_log_uniform(q["eps"][i], 1.05, 10.0)),
        }
        out.append(_request("bc bracket", params))
    return out


def _reports(rng, count: int, n_max: int, window) -> list[Request]:
    """The same number of reports for each alpha in REPORT_ALPHAS (count is a
    multiple of their number); (mu, nu) come from ``window``."""
    q = {name: _strata(rng, count) for name in ("p", "r", "s")}
    q.update({name: _strata(window, count) for name in ("nu", "mu")})
    q["N"] = _midpoints(rng, count)
    alpha_ix = np.arange(count) % len(REPORT_ALPHAS)
    n_values = np.rint(_log_uniform(q["N"], 2, n_max)).astype(int)
    out = []
    for i in range(count):
        p = 1.0 + float(q["p"][i])
        mu, nu = _schedule(p, q["nu"][i], q["mu"][i])
        params = {
            "p": p,
            "mu": mu,
            "nu": nu,
            "r": 1.0 + 2.0 * float(q["r"][i]),
            "s": 1.0 + 2.0 * float(q["s"][i]),
            "alpha": REPORT_ALPHAS[alpha_ix[i]],
            "N": int(n_values[i]),
        }
        out.append(_request("report example", params))
    return out


# --------------------------------------------------------------------------
# catalogues (fixed; the workload seed only chooses among their entries)
# --------------------------------------------------------------------------


def g_eval_catalogue() -> list[Request]:
    """g eval --method all, u and v log-uniform on [1 + 1e-8, 1e4], r and s in [1, 3]."""
    rng = np.random.default_rng([CATALOGUE_SEED, 1])
    count = G_EVAL_CATALOGUE
    q = {name: _strata(rng, count) for name in ("theta", "r", "s", "u", "v")}
    lo = 1.0 + 1e-8
    out = []
    for i in range(count):
        params = {
            "theta": float(q["theta"][i]),
            "r": 1.0 + 2.0 * float(q["r"][i]),
            "s": 1.0 + 2.0 * float(q["s"][i]),
            "u": float(_log_uniform(q["u"][i], lo, 1e4)),
            "v": float(_log_uniform(q["v"][i], lo, 1e4)),
            "method": "all",
        }
        out.append(_request("g eval", params, catalogued=True))
    return out


def _slln(p, alpha, theta_spec, n_max, replicates, seed, c) -> Request:
    params = {"p": p, "alpha": alpha, "theta_spec": theta_spec, "n_max": n_max, "replicates": replicates, "seed": seed}
    if c is not None:
        params["c"] = c
    return _request("simulate slln", params, catalogued=True)


def simulate_catalogue() -> dict[str, list[Request]]:
    """simulate slln requests by regime, each list sorted by its work n * replicates."""
    rng = np.random.default_rng([CATALOGUE_SEED, 2])
    regimes = {}
    for regime, count in (("independent", SLLN_INDEPENDENT), ("exact", SLLN_EXACT), ("windowed", SLLN_WINDOWED)):
        count *= CATALOGUE_CHOICES
        q = {name: _strata(rng, count) for name in ("p", "alpha", "nu", "mu", "scale", "work", "n", "c")}
        seeds = rng.integers(0, 2**31, size=count)
        centred = rng.permutation(np.arange(count) % 2)
        entries = []
        for i in range(count):
            p = 1.0 + float(q["p"][i])
            alpha = 1.1 + 2.9 * float(q["alpha"][i])
            c = 1.0 + 2.0 * float(q["c"][i]) if centred[i] else None
            if regime == "independent":
                spec, n_max, reps = "zero", 131072, 32
            else:
                mu, nu = _schedule(p, q["nu"][i], q["mu"][i])
                spec = _theta_spec(mu, nu, 0.05 + 0.95 * float(q["scale"][i]))
                if regime == "exact":
                    # total work n * replicates log-uniform; n log-uniform within what it allows
                    work = float(_log_uniform(q["work"][i], 512, 2048))
                    n_max = int(_log_uniform(q["n"][i], 128, min(EXACT_CAP, work / 4)))
                    reps = int(min(32, max(4, round(work / n_max))))
                else:
                    n_max = int(_log_uniform(q["n"][i], EXACT_CAP + 1, 3 * EXACT_CAP))
                    reps = 1 + int(q["work"][i] < 0.5)
            entries.append((n_max * reps, _slln(p, alpha, spec, n_max, reps, int(seeds[i]), c)))
        entries.sort(key=lambda e: e[0])
        regimes[regime] = [req for _, req in entries]
    return regimes


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {"simulate": {}, "g_eval_nodes": {}}


def _pick(rng, ranked: list[Request], strata: int) -> list[Request]:
    """One entry from each of ``strata`` consecutive groups of a ranked catalogue."""
    size = len(ranked) // strata
    return [ranked[s * size + int(rng.integers(size))] for s in range(strata)]


# Sent in every oracle-check pass besides the catalogue entries: the ROADMAP's
# 6.46 s single-shot g eval row, and a known wrong answer of the seed
# (numeric 9.44e-13 against the closed form's 1.92e-4).
G_EVAL_FIXED = (
    {"theta": 1.0, "r": 1.0, "s": 1.0, "u": 1e4, "v": 1e4, "method": "all"},
    {"theta": 1.0, "r": 3.0, "s": 3.0, "u": 3000.0, "v": 3000.0, "method": "all"},
)


# Catalogue entries the seed answers wrongly: entry 7 is off by 7e-11, within
# the quadrature's absolute tolerance only, and entry 15 misses the peak.
G_EVAL_WRONG = (7, 15)


def _g_eval_requests(pins: dict) -> list[Request]:
    """The same in every pass: the fixed rows, the catalogue entries the seed
    answers wrongly, and the ORACLE_G other entries whose integrand node
    counts (captured in pins.json) lie nearest the catalogue's median, which
    stand for a typical (u, v).  The 1e4 row stands for the heavy end."""
    catalogue = g_eval_catalogue()
    others = [i for i in range(len(catalogue)) if i not in G_EVAL_WRONG]
    nodes = {i: pins["g_eval_nodes"][catalogue[i].pin] for i in others}
    median = float(np.median(list(nodes.values())))
    typical = sorted(others, key=lambda i: abs(np.log(nodes[i] / median)))[:ORACLE_G]
    chosen = sorted([*typical, *G_EVAL_WRONG])
    return [catalogue[i] for i in chosen] + [_request("g eval", dict(params)) for params in G_EVAL_FIXED]


def build(workload: str, seed: int, pins: dict | None = None) -> list[Request]:
    """The request list of one workload pass; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    if workload == "series-scan":
        requests = _condition_checks(rng, _size_midpoints(SERIES_CONDITION, SERIES_N_MAX), (2.0,)) + _bc_ratios(rng, SERIES_RATIO)
    elif workload == "oracle-check":
        pins = load_pins() if pins is None else pins
        catalogue = np.random.default_rng([CATALOGUE_SEED, 3])
        scan_model = _condition_checks(catalogue, [ORACLE_SCAN_N], (ORACLE_SCAN_ALPHA,))[0]
        requests = (
            _condition_checks(catalogue, _size_midpoints(ORACLE_CONDITION, 2000), ORACLE_ALPHAS, window=rng)
            + _schedule_scan(scan_model, rng, ORACLE_SCAN)
            + _reports(catalogue, ORACLE_REPORT, 100, window=rng)
            + _g_eval_requests(pins)
        )
        requests += _bc_brackets(rng, ORACLE_REQUESTS - len(requests))
    else:
        catalogue = simulate_catalogue()
        requests = (
            _pick(rng, catalogue["independent"], SLLN_INDEPENDENT)
            + _pick(rng, catalogue["exact"], SLLN_EXACT)
            + _pick(rng, catalogue["windowed"], SLLN_WINDOWED)
        )
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]
