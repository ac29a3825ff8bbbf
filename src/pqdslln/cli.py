"""Single command-line entry point with reproducible run manifests.

One binary, subcommand style.  Every run writes ``manifest.json`` echoing
the fully resolved, result-affecting parameter set plus the tool version;
``rerun`` replays a manifest and reproduces every output byte for byte,
once parsing its parameters as flags has given them back unchanged.
The output directory cannot affect results and is kept out of the
manifest; ``--workers`` is accepted and ignored.  ``_COMMANDS`` declares
every subcommand's flags once, and the argparse tree built from it is the
only parser.  A CSV table is a header row and int64 and float64 columns:
an int is written in decimal, a float as its repr().

Exit codes: 0 success, 2 parameter/usage error (an integer size past 2^53
among them), 3 numeric failure (a size too large to allocate among them).
Verdicts are data, not errors: a "diverges" result still exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .borel_cantelli import EventSystem, epsilon_bracket_check, renyi_lamperti_ratios
from .conditions import condition_terms, decay_exponent, majorant_sum, tail_condition, verdict_from_terms
from .copulas import GfmCopula, PowerSchedule
from .errors import NumericError, ParameterError
from .gfun import g_closed_bracket, g_factor, g_numeric
from .marginals import ParetoMarginal
from .simulate import MultivariateFgmModel, SlnnRun, run_slln

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_NUMERIC = 3

OUTDIR_ENV = "PQDSLLN_OUTDIR"
_TOOL = "pqdslln"


# --------------------------------------------------------------------------
# serialization helpers (deterministic bytes: sorted keys, repr floats,
# non-finite values mapped to null, no timestamps)
# --------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _write_json(path: Path, obj) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


# tables of fewer rows are formatted by str(), one cell at a time, which is
# faster there: between other requests numpy's fixed cost per chunk breaks
# even near 900 rows; longer ones by numpy, this many rows at a time
_CSV_NUMPY_ROWS = 1 << 10
_CSV_ROWS = 1 << 13


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a table given as equal-length 1-D int64 and float64 arrays.

    The bytes are those of ``csv.writer(handle, lineterminator="\\n")`` on the
    same rows of Python ints and floats: the header line, then one line per
    row with its cells joined by commas, an int in decimal and a float as
    its repr(), every line ended by ``\\n``.  No cell is quoted.  A short
    table takes its cells from str(), a long one from ``_csvtext``: the
    same bytes.
    """
    n_rows = len(columns[0])
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        if n_rows >= _CSV_NUMPY_ROWS:
            from . import _csvtext  # loaded on first use: a run that writes no long table skips it

            for start in range(0, n_rows, _CSV_ROWS):
                handle.write(_csvtext.rows_bytes([column[start : start + _CSV_ROWS] for column in columns]))
        elif n_rows:
            cells = [map(str, column.tolist()) for column in columns]
            handle.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())


# --------------------------------------------------------------------------
# parameter plumbing
# --------------------------------------------------------------------------


def _parse_theta_spec(spec: str) -> dict:
    """Parse 'zero' or 'power:mu,nu[,scale]' into a structured description."""
    spec = spec.strip()
    if spec == "zero":
        return {"kind": "zero"}
    if spec.startswith("power:"):
        parts = spec[len("power:"):].split(",")
        if len(parts) not in (2, 3):
            raise ParameterError(f"theta spec must be 'power:mu,nu[,scale]', got {spec!r}")
        try:
            mu, nu = float(parts[0]), float(parts[1])
            scale = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParameterError(f"theta spec has non-numeric fields: {spec!r}") from exc
        if not all(map(math.isfinite, (mu, nu, scale))):
            raise ParameterError(f"theta spec must have finite fields, got {spec!r}")
        return {"kind": "power", "mu": mu, "nu": nu, "scale": scale}
    raise ParameterError(f"theta spec must be 'zero' or 'power:mu,nu[,scale]', got {spec!r}")


def _theta_spec_text(theta: dict) -> str:
    """The text that ``_parse_theta_spec`` reads back as ``theta``."""
    return "zero" if theta == {"kind": "zero"} else "power:{mu},{nu},{scale}".format_map(theta)


def _size(text: str) -> int:
    """An integer flag's value, refused past 2^53: the largest integer that every double holds exactly."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or abs(value) > 1 << 53:
        raise argparse.ArgumentTypeError(f"must be an integer no larger than 2^53 in magnitude, got {text!r}")
    return value


def _parse_n_grid(spec: str) -> list[int]:
    """Parse 'log:<max>:<points>' or a comma list of sizes into an n grid."""
    spec = spec.strip()
    try:
        if spec.startswith("log:"):
            parts = spec.split(":")
            if len(parts) != 3:
                raise ParameterError(f"log grid must be 'log:<max>:<points>', got {spec!r}")
            n_max, points = _size(parts[1]), _size(parts[2])
            if n_max < 1 or points < 1:
                raise ParameterError(f"log grid needs positive max and point count, got {spec!r}")
            raw = np.unique(np.geomspace(1, n_max, points).astype(int))
            return [int(v) for v in raw]
        values = sorted({_size(tok) for tok in spec.split(",") if tok.strip()})
    except argparse.ArgumentTypeError as exc:
        raise ParameterError(f"n grid: each size {exc}") from exc
    if not values or values[0] < 1:
        raise ParameterError(f"n grid must contain positive integers, got {spec!r}")
    return values


def _n_grid_text(grid: list[int]) -> str:
    """The text that ``_parse_n_grid`` reads back as ``grid`` when ``grid`` is sorted and unique."""
    return ",".join(map(str, grid))


def _series_schedule(params: dict) -> PowerSchedule:
    """The schedule of ``condition check`` and ``report example``, refused outside its window."""
    schedule = PowerSchedule(params["mu"], params["nu"])
    schedule.check_window(params["p"])
    return schedule


def _event_system(params: dict) -> EventSystem:
    """The Pareto event system of ``bc ratio`` and ``bc bracket``."""
    marginal = ParetoMarginal(params["alpha"])
    theta = params["theta_spec"]
    schedule = None if theta["kind"] == "zero" else PowerSchedule(theta["mu"], theta["nu"], theta["scale"])
    return EventSystem(params["p"], marginal, schedule, params["r"], params["s"])


# --------------------------------------------------------------------------
# subcommand handlers: params dict -> (result dict, {csv name: (header,
# columns)}, stdout lines); table columns are int64 and float64 arrays
# --------------------------------------------------------------------------


def _run_g_eval(params: dict):
    echo = {k: params[k] for k in ("theta", "r", "s", "u", "v")}
    theta, r, s, u, v = echo.values()
    method = params["method"]
    marginal = ParetoMarginal(2.0)
    copula = GfmCopula(theta=theta, r=r, s=s)  # refuses theta outside [0, 1] whatever the --method
    methods: dict[str, float] = {}
    if method in ("closed", "all"):
        bu, bv = g_closed_bracket(r, s, marginal, (u, v)).tolist()
        methods["closed"] = copula.theta * bu * bv
    if method in ("numeric", "all"):
        methods["numeric"] = float(g_numeric(copula, marginal, [(u, v)])[0])
    if method in ("factor", "all"):
        bu, bv = g_factor(r, s, marginal, (u, v)).tolist()
        methods["factor"] = copula.theta * bu * bv
    values = list(methods.values())
    discrepancy = max(values) - min(values) if len(values) > 1 else 0.0
    result = dict(echo, methods=methods, max_discrepancy=discrepancy)
    lines = [f"{name}: {value:.15g}" for name, value in methods.items()]
    lines.append(f"max discrepancy: {discrepancy:.3e}")
    return result, {}, lines


def _run_condition_check(params: dict):
    schedule = _series_schedule(params)
    marginal = ParetoMarginal(params["alpha"])
    kind, p, r = params["kind"], params["p"], params["r"]
    j_values, terms = condition_terms(kind, p, schedule, r, params["s"], marginal, params["N"])
    verdict = verdict_from_terms(j_values, terms, decay_exponent(kind, p, schedule, r, marginal))
    result = dict(asdict(verdict), kind=kind)
    tables = {"terms": (["j", "term"], (j_values, terms))}
    return result, tables, [f"{kind}: {verdict.verdict} (partial sum {verdict.partial_sum:.9g})"]


def _run_bc_ratio(params: dict):
    es = _event_system(params)
    grid = params["n_grid"]
    ratios = renyi_lamperti_ratios(es, grid)
    running_min = np.minimum.accumulate(ratios)
    result = {k: params[k] for k in ("p", "alpha", "n_grid")}
    result.update(final_ratio=float(ratios[-1]), running_min=float(running_min[-1]))
    tables = {"ratio": (["n", "ratio", "running_min"], (np.array(grid), ratios, running_min))}
    return result, tables, [f"ratio at n={grid[-1]}: {ratios[-1]:.9g} (running min {running_min[-1]:.9g})"]


def _run_bc_bracket(params: dict):
    es = _event_system(params)
    check = epsilon_bracket_check(es, params["k"], params["j"], params["eps"])
    result = {k: params[k] for k in ("p", "alpha", "k", "j", "eps")} | check._asdict()
    return result, {}, [f"lhs={check.lhs:.9g} rhs={check.rhs:.9g} holds={check.holds}"]


def _run_simulate_slln(params: dict):
    theta = params["theta_spec"]
    model = None
    if theta["kind"] != "zero":
        schedule = PowerSchedule(theta["mu"], theta["nu"], theta["scale"], params.get("window"))
        model = MultivariateFgmModel.from_power_schedule(params["n_max"], schedule)
    run = SlnnRun(
        p=params["p"],
        marginal=ParetoMarginal(params["alpha"]),
        model=model,
        n_max=params["n_max"],
        replicates=params["replicates"],
        seed=params["seed"],
        c=params.get("c"),
    )
    report = run_slln(run)
    abs_m = np.abs(report.m_values)
    median_abs_m, max_abs_m = np.median(abs_m, axis=0).tolist(), np.max(abs_m, axis=0).tolist()
    checkpoints = list(report.checkpoints)
    result = {
        "checkpoints": checkpoints,
        "median_abs_m": median_abs_m,
        "max_abs_m": max_abs_m,
        "mean_exceedances": np.mean(report.exceedances, axis=0).tolist(),
        "metadata": report.metadata,
    }
    columns = (
        np.repeat(np.arange(run.replicates), len(checkpoints)),
        np.tile(checkpoints, run.replicates),
        report.m_values.ravel(),
        report.exceedances.ravel(),
    )
    tables = {"paths": (["replicate", "checkpoint_n", "m_n", "e_n"], columns)}
    lines = [
        f"checkpoints: {checkpoints}",
        f"median |M_n|: {[f'{v:.4g}' for v in median_abs_m]}",
        f"max |M_n| at n_max: {max_abs_m[-1]:.6g}",
    ]
    return result, tables, lines


def _run_report_example(params: dict):
    p, mu, nu, r, s, n_terms = (params[k] for k in ("p", "mu", "nu", "r", "s", "N"))
    schedule = _series_schedule(params)
    marginal = ParetoMarginal(params["alpha"])
    window = {
        "lower": 1.0 / p - 1.0,
        "mu": mu,
        "upper": 2.0 / p - 2.0 - nu,
        "holds": True,  # check_window enforces it
    }

    grid = np.array([1.5, 2.0, 5.0, 20.0])
    us, vs = np.repeat(grid, len(grid)), np.tile(grid, len(grid))  # the 4x4 table's (u, v), row by row
    copula = GfmCopula(theta=1.0, r=r, s=s)
    bracket = g_closed_bracket(r, s, marginal, grid)
    closed = np.outer(bracket, bracket).ravel()  # G = theta B(u) B(v) at theta = 1
    numeric = g_numeric(copula, marginal, zip(us.tolist(), vs.tolist()))
    diff = np.abs(closed - numeric)
    max_disc = float(diff.max())

    j_values, terms = condition_terms("nec12", p, schedule, r, s, marginal, n_terms)
    verdict = verdict_from_terms(j_values, terms, decay_exponent("nec12", p, schedule, r, marginal))
    majorant = majorant_sum(p, mu, nu, r, s, marginal, n_terms)
    partial_cum = np.cumsum(terms)
    scale = majorant.c_const * majorant.inner_sum_factor
    powers = np.cumsum(j_values.astype(float) ** majorant.exponent)
    # an infinite scale makes the majorant +inf at every checkpoint, also where the powers underflow to 0
    majorant_cum = np.full_like(partial_cum, math.inf) if math.isinf(scale) else scale * powers
    bound_holds = bool(np.all(partial_cum <= majorant_cum + 1e-12))

    tail = tail_condition(p, marginal, n_terms)
    moment = marginal.abs_moment(p)

    result = {k: params[k] for k in ("p", "alpha", "r", "s", "N")}
    result.update(
        schedule={"mu": mu, "nu": nu},
        window=window,
        g_oracle_max_discrepancy=max_disc,
        series=asdict(verdict),
        verdict=verdict.verdict,
        majorant=asdict(majorant),
        majorant_bound_holds_at_every_checkpoint=bound_holds,
        tail_condition=asdict(tail),
        abs_moment=moment,
        dependence_label="pairwise PQD",
    )
    tables = {
        "gtable": (["u", "v", "g_closed", "g_numeric", "abs_diff"], (us, vs, closed, numeric, diff)),
        "terms": (["j", "term"], (j_values, terms)),
    }
    lines = [
        f"window holds: {window['lower']:.6g} < mu={mu} < {window['upper']:.6g}",
        f"G closed vs numeric max discrepancy: {max_disc:.3e}",
        f"series verdict: {verdict.verdict} (partial sum {verdict.partial_sum:.9g})",
        f"majorant bound holds at every checkpoint: {bound_holds}",
    ]
    return result, tables, lines


class _Flag(NamedTuple):
    """Flag ``--name`` (underscores spelled as dashes) setting parameter ``name``."""

    name: str
    type: Callable = float
    default: object = None
    required: bool = False
    choices: tuple | None = None
    parse: Callable | None = None  # structured values; runs after argparse to keep its message
    text: Callable = str  # the flag text of a parameter value: parse(text(value)) == value


_THETA_SPEC = _Flag("theta_spec", str, default="zero", parse=_parse_theta_spec, text=_theta_spec_text)
_SERIES_MODEL = (
    *(_Flag(name, required=True) for name in ("p", "mu", "nu")),
    _Flag("r", default=1.0),
    _Flag("s", default=1.0),
    _Flag("alpha", default=2.0),
    _Flag("N", _size, default=2000),
)
_EVENT_SYSTEM = (
    _Flag("alpha", required=True),
    _Flag("p", required=True),
    _THETA_SPEC,
    _Flag("r", default=1.0),
    _Flag("s", default=1.0),
)

# Every subcommand's handler and flags, declared once: the argparse tree and
# the manifest parameters (every flag whose value is not None) come from here.
_COMMANDS: dict[str, tuple[Callable, tuple[_Flag, ...]]] = {
    "g eval": (
        _run_g_eval,
        (
            *(_Flag(name, required=True) for name in ("theta", "r", "s", "u", "v")),
            _Flag("method", str, default="all", choices=("closed", "numeric", "factor", "all")),
        ),
    ),
    "condition check": (
        _run_condition_check,
        (_Flag("kind", str, required=True, choices=("cs11", "nec12", "l1")), *_SERIES_MODEL),
    ),
    "bc ratio": (
        _run_bc_ratio,
        (*_EVENT_SYSTEM, _Flag("n_grid", str, default="log:10000:25", parse=_parse_n_grid, text=_n_grid_text)),
    ),
    "bc bracket": (
        _run_bc_bracket,
        (*_EVENT_SYSTEM, _Flag("k", _size, required=True), _Flag("j", _size, required=True), _Flag("eps", required=True)),
    ),
    "simulate slln": (
        _run_simulate_slln,
        (
            *(_Flag(name, required=True) for name in ("p", "alpha")),
            _THETA_SPEC,
            _Flag("n_max", _size, required=True),
            _Flag("replicates", _size, default=32),
            _Flag("seed", int, default=0),
            _Flag("c"),
            _Flag("window", _size),
        ),
    ),
    "report example": (_run_report_example, _SERIES_MODEL),
}

_GROUP_HELP = {
    "g": "covariance functional",
    "condition": "series conditions",
    "bc": "Borel-Cantelli diagnostics",
    "simulate": "seeded Monte Carlo",
    "report": "end-to-end reports",
}


def dispatch(subcommand: str, parameters: dict, outdir: Path, fmt: str) -> int:
    """Execute a run whose parameters came from the flag parser: compute, write artifacts, write the manifest."""
    result, tables, lines = _COMMANDS[subcommand][0](parameters)

    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if fmt in ("json", "both"):
        _write_json(outdir / "result.json", result)
        outputs.append("result.json")
    if fmt in ("csv", "both"):
        for name, (header, columns) in tables.items():
            _write_csv(outdir / f"{name}.csv", header, columns)
            outputs.append(f"{name}.csv")
    manifest = {
        "tool": _TOOL,
        "version": __version__,
        "subcommand": subcommand,
        "format": fmt,
        "parameters": parameters,
        "outputs": sorted(outputs),
    }
    _write_json(outdir / "manifest.json", manifest)
    for line in lines:
        print(line)
    print(f"wrote {outdir}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads '-1.5e0' or '-8.8e-05' as a value, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        """Raise a usage error as a ParameterError naming the subcommand, so it exits 2 in one line."""
        command = self.prog.removeprefix(_TOOL).lstrip()
        raise ParameterError(f"{command}: {message}" if command else message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--outdir", type=Path, default=None, help="output directory (default: $PQDSLLN_OUTDIR or ./runs/<subcommand>)")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="both")
    parser.add_argument("--workers", type=int, help="accepted and ignored")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built at the first call and reused: parsing never changes it."""
    parser = _Parser(prog=_TOOL, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for subcommand, (_, flags) in _COMMANDS.items():
        group, action = subcommand.split(" ")
        if group not in groups:
            groups[group] = top.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(dest="action", required=True)
        p = groups[group].add_parser(action)
        for flag in flags:
            p.add_argument(
                "--" + flag.name.replace("_", "-"),
                type=flag.type,
                default=flag.default,
                required=flag.required,
                choices=flag.choices,
            )
        _add_common(p)

    p = top.add_parser("rerun", help="replay a manifest byte-for-byte")
    p.add_argument("--manifest", type=Path, required=True)
    _add_common(p)

    return parser


def _parameters(flags: tuple[_Flag, ...], ns: argparse.Namespace) -> dict:
    """Every flag whose value is not None, structured values parsed; non-finite numbers refused."""
    params = {}
    for flag in flags:
        value = getattr(ns, flag.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"--{flag.name.replace('_', '-')} must be finite, got {value!r}")
        if value is not None:
            params[flag.name] = flag.parse(value) if flag.parse else value
    return params


def _request(ns: argparse.Namespace) -> tuple[str, dict]:
    """The subcommand and parameters of a parsed command line."""
    subcommand = f"{ns.group} {ns.action}"
    return subcommand, _parameters(_COMMANDS[subcommand][1], ns)


def _read_manifest(path: Path) -> dict:
    """Load a manifest that this version of the tool can replay."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read manifest {path}: {exc}") from exc
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("subcommand"), str)
        and manifest["subcommand"] in _COMMANDS
        and isinstance(manifest.get("parameters"), dict)
    ):
        raise ParameterError(f"manifest {path} lacks a known 'subcommand' or a 'parameters' object")
    if (manifest.get("tool"), manifest.get("version")) != (_TOOL, __version__):
        origin = f"{manifest.get('tool')} {manifest.get('version')}"
        raise ParameterError(f"manifest {path} is from {origin}, not {_TOOL} {__version__}")
    return manifest


def _replay_argv(manifest: dict) -> list[str]:
    """The command line a manifest records: its subcommand, format and one --name=text per parameter."""
    subcommand, params = manifest["subcommand"], manifest["parameters"]
    text = {flag.name: flag.text for flag in _COMMANDS[subcommand][1]}
    try:
        flags = [f"--{name.replace('_', '-')}={text.get(name, str)(value)}" for name, value in params.items()]
    except (TypeError, KeyError) as exc:
        raise ParameterError(f"{subcommand} parameters cannot be spelled as flags: {exc!r}") from exc
    return [*subcommand.split(" "), f"--format={manifest.get('format', 'both')}", *flags]


def _parse(argv: list[str], source: str = "") -> argparse.Namespace:
    """Parse a command line; leftover arguments are refused naming the subcommand (and ``source``)."""
    ns, extra = _build_parser().parse_known_args(argv)
    if extra:
        command = " ".join(filter(None, (ns.group, getattr(ns, "action", None))))
        raise ParameterError(f"{source}{command}: unrecognized arguments: {' '.join(extra)}")
    return ns


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            ns = _parse(argv)
        except SystemExit as exc:  # --help, --version
            return int(exc.code or 0)
        outdir, manifest = ns.outdir, None
        if ns.group == "rerun":
            path, manifest = ns.manifest, _read_manifest(ns.manifest)
            ns = _parse(_replay_argv(manifest), f"manifest {path}: ")
        subcommand, params = _request(ns)
        # a manifest replays only if parsing its own parameters as flags gives them back;
        # json text tells 1, 1.0 and true apart, where == would not
        if manifest is not None and json.dumps(params, sort_keys=True) != json.dumps(manifest["parameters"], sort_keys=True):
            raise ParameterError(f"manifest {path} holds parameters that its flags do not give back")
        outdir = outdir or Path(os.environ.get(OUTDIR_ENV, "runs")) / subcommand.replace(" ", "-")
        return dispatch(subcommand, params, outdir, ns.format)
    except ParameterError as exc:
        print(f"{_TOOL}: error: [parameter] {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (NumericError, MemoryError) as exc:  # a size too large to allocate is a numeric failure
        print(f"{_TOOL}: error: [numeric] {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    """Run main() as a program; a reader that closes stdout early does not turn a run into a failure.

    A warning prints as one line, ``pqdslln: warning: <message>``.
    """
    warnings.formatwarning = lambda message, *_: f"{_TOOL}: warning: {message}\n"
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # every file was written before the first print; devnull spares the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
