"""Verification of every file a request writes.

Each request ends in one of four states:

* ``ok``       every check passed;
* ``wrong``    the program exited 0 but a value disagrees with the
               independent oracle, and the disagreement has the signature of
               one of the defect classes the seed is known to have
               (``KNOWN_DEFECTS``);
* ``refused``  a request that runs adaptive quadrature ended in the typed
               numeric error (exit code 3) the CLI documents for it;
* ``failed``   anything else: another exit code, a missing or malformed
               file, a schema violation, a broken invariant, a changed
               simulate digest, or an oracle mismatch without the
               signature of a known class.

``failed`` requests make the run incorrect.  ``wrong`` and ``refused``
requests are measured, never filtered: they lower ``verified_ratio``.

The oracle for the covariance factor is scipy's regularized incomplete beta
function: with t = F(x) = 1 - x^-alpha,

    B_alpha(u) = integral(1..u) F^s (1 - F)^r dx
               = B(s + 1, r - 1/alpha) I_{F(u)}(s + 1, r - 1/alpha) / alpha,

and G(u, v) = theta B(u) B(v).  Values are compared at the acceptance
suite's 1e-6 tolerance, made relative.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from scipy import special

REL_TOL = 1e-6
# The tolerance pqdslln.quadrature.adaptive_quad_2d is asked for, and a bound
# on the error adaptive_quad's 1e-10 makes in G = theta B(u) B(v).
QUAD_ABS_TOL = 1e-9
# The alpha = 2 closed form subtracts two nearly equal numbers near the
# support edge; a closed-form error within this many ulps of B(inf) per
# factor is that cancellation.
EDGE_ULPS = 64
# Each class is recognised by its signature, never by where it occurs alone.
KNOWN_DEFECTS = {
    "quadrature": "adaptive quadrature misses the integrand's peak (every value off is below the oracle) "
    "or only meets its absolute tolerance (off by at most QUAD_ABS_TOL)",
    "alpha2-closed-form": "report example applies the alpha = 2 closed form at another alpha "
    "(g_closed equals the alpha = 2 oracle)",
    "edge-cancellation": "the alpha = 2 closed form loses relative accuracy near the support edge u = 1 "
    "(off by at most EDGE_ULPS ulps of B(inf) per factor)",
}
RESULT_DEFS = {
    "condition check": "condition_result",
    "g eval": "g_eval_result",
    "bc ratio": "bc_ratio_result",
    "bc bracket": "bc_bracket_result",
    "simulate slln": "slln_result",
    "report example": "example_report",
}
TABLES = {
    "condition check": ("terms",),
    "g eval": (),
    "bc ratio": ("ratio",),
    "bc bracket": (),
    "simulate slln": ("paths",),
    "report example": ("gtable", "terms"),
}
REPORT_GRID = (1.5, 2.0, 5.0, 20.0)


class Failed(Exception):
    """An output broke a check the program must always pass."""


@dataclass
class Outcome:
    status: str = "ok"
    notes: list = field(default_factory=list)

    def wrong(self, defect: str, note: str) -> None:
        self.status = "wrong"
        self.notes.append(f"{defect}: {note}")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- oracles


def factor(alpha: float, r: float, s: float, u) -> np.ndarray:
    """B_alpha(u) by the incomplete beta function; 0 at and below the support edge."""
    u = np.asarray(u, dtype=float)
    b = r - 1.0 / alpha
    f = -np.expm1(-alpha * np.log1p(np.maximum(u, 1.0) - 1.0))
    return special.beta(s + 1.0, b) * special.betainc(s + 1.0, b, f) / alpha


def series_terms(kind: str, p: float, mu: float, nu: float, r: float, s: float, alpha: float, n: int) -> np.ndarray:
    """T_j = sum_{k<j} w(k, j) k^mu j^nu B(t_k) B(t_j) for j = 2..N, from the series definitions."""
    idx = np.arange(1, n + 1, dtype=float)
    if kind == "cs11":  # w = j^(-2/p), thresholds k^(1/p), j^(1/p)
        b = factor(alpha, r, s, idx ** (1.0 / p))
        inner, outer = idx**mu * b, idx ** (nu - 2.0 / p) * b
    elif kind == "nec12":  # w = (kj)^(-1/p), thresholds k^(1/p), j^(1/p)
        b = factor(alpha, r, s, idx ** (1.0 / p))
        inner, outer = idx ** (mu - 1.0 / p) * b, idx ** (nu - 1.0 / p) * b
    else:  # l1: w = (kj)^-1, thresholds k, j
        b = factor(alpha, r, s, idx)
        inner, outer = idx ** (mu - 1.0) * b, idx ** (nu - 1.0) * b
    below = np.concatenate(([0.0], np.cumsum(inner)[:-1]))  # sum over k < j
    return (outer * below)[1:]


def _mismatch(value, oracle) -> np.ndarray:
    value, oracle = np.asarray(value, dtype=float), np.asarray(oracle, dtype=float)
    return ~(np.abs(value - oracle) <= REL_TOL * np.abs(oracle))


def _quadrature_miss(value, oracle) -> bool:
    """Whether every mismatch has the signature of the seed's quadrature defect:
    the integrands are nonnegative, so a missed peak only loses mass."""
    value, oracle = np.asarray(value, dtype=float), np.asarray(oracle, dtype=float)
    bad = _mismatch(value, oracle)
    missed = np.abs(value) < np.abs(oracle)
    within_abs = np.abs(value - oracle) <= QUAD_ABS_TOL
    return bool(np.all((missed | within_abs)[bad]))


# ---------------------------------------------------------------- file readers


def _table(outdir: Path, name: str, header: list[str]) -> np.ndarray:
    path = outdir / f"{name}.csv"
    lines = path.read_text().splitlines()
    if lines[0].split(",") != header:
        raise Failed(f"{name}.csv header {lines[0]!r}, expected {','.join(header)}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


class Verifier:
    """Checks one request's output directory against schema, invariants and oracles."""

    def __init__(self, schema_path: Path, pins: dict):
        schema = json.loads(schema_path.read_text())
        self._validators = {
            name: Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": schema["$defs"]})
            for name in list(RESULT_DEFS.values()) + ["manifest"]
        }
        self._digests = pins.get("simulate", {})

    def check(self, request, outdir: Path, exit_code: int | None) -> Outcome:
        outcome = Outcome()
        if exit_code != 0:
            if exit_code == 3 and _runs_quadrature(request):
                outcome.status = "refused"
                outcome.notes.append("typed numeric error (exit 3)")
            else:
                outcome.status = "failed"
                outcome.notes.append(f"exit code {exit_code}")
            return outcome
        try:
            result = self._files(request, outdir)
            getattr(self, "_" + request.op.replace(" ", "_"))(request, outdir, result, outcome)
        except Failed as exc:
            outcome.status = "failed"
            outcome.notes.append(str(exc))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            outcome.status = "failed"
            outcome.notes.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return outcome

    def _validate(self, name: str, doc, what: str) -> None:
        error = next(iter(self._validators[name].iter_errors(doc)), None)
        if error is not None:
            raise Failed(f"{what} violates the schema: {error.message}")

    def _files(self, request, outdir: Path) -> dict:
        tables = TABLES[request.op]
        manifest = json.loads((outdir / "manifest.json").read_text())
        result = json.loads((outdir / "result.json").read_text())
        self._validate("manifest", manifest, "manifest.json")
        self._validate(RESULT_DEFS[request.op], result, "result.json")
        _expect(manifest["subcommand"] == request.op, f"manifest subcommand {manifest['subcommand']!r}")
        outputs = sorted(["result.json"] + [f"{t}.csv" for t in tables])
        _expect(manifest["outputs"] == outputs, f"manifest outputs {manifest['outputs']}, expected {outputs}")
        for key, value in request.params.items():
            if key in ("theta_spec", "n_grid"):
                continue  # echoed in parsed form
            _expect(manifest["parameters"].get(key) == value, f"manifest echoes {key}={manifest['parameters'].get(key)!r}, sent {value!r}")
        return result

    # ------------------------------------------------------------ per subcommand

    def _series(self, params: dict, kind: str, outdir: Path, partial_sum: float, outcome: Outcome) -> None:
        n, alpha = params["N"], params["alpha"]
        rows = _table(outdir, "terms", ["j", "term"])
        _expect(rows.shape == (n - 1, 2), f"terms.csv has shape {rows.shape}, expected ({n - 1}, 2)")
        _expect(np.array_equal(rows[:, 0], np.arange(2, n + 1)), "terms.csv j column is not 2..N")
        oracle = series_terms(kind, params["p"], params["mu"], params["nu"], params["r"], params["s"], alpha, n)
        bad = _mismatch(rows[:, 1], oracle)
        sum_bad = bool(_mismatch(partial_sum, math.fsum(oracle)))
        if not (bad.any() or sum_bad):
            return
        first = int(np.argmax(bad)) if bad.any() else n - 2
        note = f"{int(bad.sum())} of {n - 1} terms off by > 1e-6 relative, first at j={first + 2} ({rows[first, 1]!r} vs {oracle[first]!r}); partial sum {'off' if sum_bad else 'ok'}"
        if alpha == 2.0:
            raise Failed(f"closed-form series: {note}")
        if not (_quadrature_miss(rows[:, 1], oracle) and _quadrature_miss(partial_sum, math.fsum(oracle))):
            raise Failed(f"quadrature series, not a missed peak: {note}")
        outcome.wrong("quadrature", note)

    def _condition_check(self, request, outdir, result, outcome) -> None:
        params = request.params
        _expect(result["kind"] == params["kind"] and result["n_terms"] == params["N"], "result echoes the wrong kind or N")
        self._series(params, params["kind"], outdir, result["partial_sum"], outcome)

    def _report_example(self, request, outdir, result, outcome) -> None:
        params = request.params
        _expect(result["series"]["n_terms"] == params["N"], "report series has the wrong N")
        self._series(params, "nec12", outdir, result["series"]["partial_sum"], outcome)
        rows = _table(outdir, "gtable", ["u", "v", "g_closed", "g_numeric", "abs_diff"])
        grid = np.array([(u, v) for u in REPORT_GRID for v in REPORT_GRID])
        _expect(rows.shape == (16, 5) and np.array_equal(rows[:, :2], grid), "gtable.csv does not cover the 4 x 4 grid")
        _expect(np.array_equal(rows[:, 4], np.abs(rows[:, 2] - rows[:, 3])), "gtable abs_diff is not |g_closed - g_numeric|")
        _expect(result["g_oracle_max_discrepancy"] == rows[:, 4].max(), "g_oracle_max_discrepancy is not the largest abs_diff")
        alpha, r, s = params["alpha"], params["r"], params["s"]
        oracle = factor(alpha, r, s, rows[:, 0]) * factor(alpha, r, s, rows[:, 1])
        closed_bad, numeric_bad = _mismatch(rows[:, 2], oracle), _mismatch(rows[:, 3], oracle)
        if numeric_bad.any():
            note = f"gtable g_numeric off at {int(numeric_bad.sum())} of 16 points"
            if not _quadrature_miss(rows[:, 3], oracle):
                raise Failed(f"{note}, not a missed peak")
            outcome.wrong("quadrature", note)
        if closed_bad.any():
            note = f"gtable g_closed off at {int(closed_bad.sum())} of 16 points"
            alpha2 = factor(2.0, r, s, rows[:, 0]) * factor(2.0, r, s, rows[:, 1])
            if alpha == 2.0 or _mismatch(rows[:, 2], alpha2).any():
                raise Failed(note)
            outcome.wrong("alpha2-closed-form", note)

    def _g_eval(self, request, outdir, result, outcome) -> None:
        params = request.params
        theta, r, s, u, v = (params[k] for k in ("theta", "r", "s", "u", "v"))
        methods = result["methods"]
        _expect(sorted(methods) == ["closed", "factor", "numeric"], f"methods {sorted(methods)}")
        values = list(methods.values())
        _expect(result["max_discrepancy"] == max(values) - min(values), "max_discrepancy is not max - min of the methods")
        bu, bv = factor(2.0, r, s, u), factor(2.0, r, s, v)
        oracle = float(theta * bu * bv)
        for method in ("numeric", "factor"):
            if _mismatch(methods[method], oracle):
                note = f"{method} {methods[method]!r} vs oracle {oracle!r}"
                if not _quadrature_miss(methods[method], oracle):
                    raise Failed(f"{note}, not a missed peak")
                outcome.wrong("quadrature", note)
        if _mismatch(methods["closed"], oracle):
            limit = float(factor(2.0, r, s, np.inf))
            allowance = theta * EDGE_ULPS * np.finfo(float).eps * limit * float(bu + bv)
            note = f"closed {methods['closed']!r} vs oracle {oracle!r}"
            if abs(methods["closed"] - oracle) > allowance:
                raise Failed(note)
            outcome.wrong("edge-cancellation", note)

    def _bc_ratio(self, request, outdir, result, outcome) -> None:
        _, n_max, points = request.params["n_grid"].split(":")
        grid = np.unique(np.geomspace(1, int(n_max), int(points)).astype(int))
        rows = _table(outdir, "ratio", ["n", "ratio", "running_min"])
        _expect(np.array_equal(rows[:, 0], grid), "ratio.csv n column is not the requested grid")
        _expect(bool(np.all(rows[:, 1] >= 1.0)), f"pair-sum ratio below 1: min {rows[:, 1].min()!r}")
        _expect(np.array_equal(rows[:, 2], np.minimum.accumulate(rows[:, 1])), "running_min is not the running minimum")
        _expect(result["final_ratio"] == rows[-1, 1] and result["running_min"] == rows[-1, 2], "result disagrees with ratio.csv")

    def _bc_bracket(self, request, outdir, result, outcome) -> None:
        _expect(result["holds"] is True, f"bracket inequality reported as failing: lhs={result['lhs']!r} rhs={result['rhs']!r}")

    def _simulate_slln(self, request, outdir, result, outcome) -> None:
        params = request.params
        pinned = self._digests.get(request.pin)
        _expect(pinned is not None, "no digest pinned for this simulate request")
        _expect(digest(outdir / "paths.csv") == pinned, "paths.csv differs from the digest captured at the seed")
        top = int(math.floor(math.log2(params["n_max"])))
        checkpoints = [1 << e for e in range(7, top + 1)]
        _expect(result["checkpoints"] == checkpoints, "checkpoints are not the dyadic grid")
        rows = _table(outdir, "paths", ["replicate", "checkpoint_n", "m_n", "e_n"])
        shape = (params["replicates"], len(checkpoints))
        m, e = rows[:, 2].reshape(shape), rows[:, 3].reshape(shape)
        _expect(result["median_abs_m"] == np.median(np.abs(m), axis=0).tolist(), "median_abs_m disagrees with paths.csv")
        _expect(result["max_abs_m"] == np.max(np.abs(m), axis=0).tolist(), "max_abs_m disagrees with paths.csv")
        _expect(result["mean_exceedances"] == np.mean(e, axis=0).tolist(), "mean_exceedances disagrees with paths.csv")
        meta = result["metadata"]
        _expect(meta["seed"] == params["seed"] and meta["replicates"] == params["replicates"], "metadata echoes the wrong seed or replicates")


def _runs_quadrature(request) -> bool:
    """Requests whose answer the seed computes by adaptive quadrature."""
    if request.op == "condition check":
        return request.params["alpha"] != 2.0
    return request.op in ("g eval", "report example", "bc bracket")
