import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqdslln._csvtext
import pqdslln.cli
import pqdslln.conditions
import pqdslln.gfun
import pqdslln.quadrature
from pqdslln import __version__
from pqdslln.borel_cantelli import BracketCheck
from pqdslln.cli import EXIT_NUMERIC, EXIT_OK, EXIT_PARAMETER, main
from pqdslln.conditions import CONVERGES, DIVERGES, SeriesVerdict
from pqdslln.copulas import PowerSchedule
from pqdslln.gfun import bracket_limit, g_closed_bracket
from pqdslln.marginals import ParetoMarginal

from bracket_oracles import incomplete_beta_bracket, mpmath_bracket

README = Path(__file__).parents[1] / "README.md"
SCHEMA = json.loads(
    resources.files("pqdslln").joinpath("schemas/outputs.schema.json").read_text()
)


def validate(instance, def_name: str) -> None:
    jsonschema.validate(instance, {"$ref": f"#/$defs/{def_name}", "$defs": SCHEMA["$defs"]})


def read_json(path: Path):
    return json.loads(path.read_text())


def run_cli(args, outdir: Path) -> int:
    return main([*args, "--outdir", str(outdir)])


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(pqdslln.cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


# a cheap run: B(3) = 28/81 at r = s = 1 and alpha = 2, so G(3, 3) = (28/81)^2 = 0.11949397957628410...
G_CLOSED = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "3", "--v", "3", "--method", "closed"]


def csv_module_bytes(header, rows) -> bytes:
    """The bytes the standard csv module writes for a header and rows: the reference for every CSV table."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return handle.getvalue().encode()


class TestGEval:
    def test_closed_prints_value(self, tmp_path, capsys):
        assert run_cli(G_CLOSED, tmp_path) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()[0]
        result = read_json(tmp_path / "result.json")
        validate(result, "g_eval_result")
        validate(read_json(tmp_path / "manifest.json"), "manifest")
        assert printed == f"closed: {result['methods']['closed']:.15g}"

    def test_closed_prints_fifteen_digits(self, tmp_path, capsys):
        assert run_cli(G_CLOSED, tmp_path) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "closed: 0.119493979576284"

    def test_zero_theta_all_methods(self, tmp_path, capsys):
        code = run_cli(
            ["g", "eval", "--theta", "0", "--r", "1", "--s", "1", "--u", "2", "--v", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "g_eval_result")
        assert result["methods"]["closed"] == 0.0
        assert result["methods"]["factor"] == 0.0
        assert abs(result["methods"]["numeric"]) <= 1e-12

    def test_methods_agree(self, tmp_path):
        run_cli(
            ["g", "eval", "--theta", "1", "--r", "2", "--s", "1", "--u", "3", "--v", "3"],
            tmp_path,
        )
        result = read_json(tmp_path / "result.json")
        assert result["max_discrepancy"] <= 1e-6

    @pytest.mark.parametrize(
        "r,u,rel,abs_",
        [
            (1.0, 1e4, 0.0, 1e-9),  # 6.6 s, 16.6 M integrand nodes when integrated in x
            (3.0, 3000.0, 1e-6, 0.0),  # a peak the x-space quadrature missed (9.4e-13 for 1.9e-4)
            (1.0, 1e6, 0.0, 1e-9),  # the x-space panel budget ran out here
        ],
    )
    def test_numeric_matches_closed_at_far_thresholds(self, tmp_path, r, u, rel, abs_):
        args = ["g", "eval", "--theta", "1", "--r", str(r), "--s", str(r), "--u", str(u), "--v", str(u),
                "--method", "all"]
        assert run_cli(args, tmp_path) == EXIT_OK
        methods = read_json(tmp_path / "result.json")["methods"]
        assert methods["numeric"] == pytest.approx(methods["closed"], rel=rel, abs=abs_)

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a QuadratureError reaches the command line as exit 3: a 2-panel budget cannot meet 1e-14
        original = pqdslln.gfun.adaptive_quad_many

        def starved(f, regions, *, abs_tol):
            return original(f, regions, abs_tol=1e-14)

        monkeypatch.setattr(pqdslln.gfun, "adaptive_quad_many", starved)
        monkeypatch.setattr(pqdslln.quadrature, "_MAX_PANELS", 2)
        args = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "20", "--v", "20", "--method", "numeric"]
        assert run_cli(args, tmp_path / "run") == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[numeric] adaptive_quad_many: panel budget 2 exhausted" in err
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_overflowing_power_gives_limit(self, tmp_path):
        args = ["g", "eval", "--theta", "1", "--r", "50", "--s", "1", "--u", "1e6", "--v", "2",
                "--method", "closed"]
        assert run_cli(args, tmp_path) == EXIT_OK
        closed = read_json(tmp_path / "result.json")["methods"]["closed"]
        assert closed == bracket_limit(50.0, 1.0, ParetoMarginal(2.0)) * g_closed_bracket(50.0, 1.0, ParetoMarginal(2.0), 2.0)

    @pytest.mark.parametrize("method", ["closed", "numeric", "factor", "all"])
    @pytest.mark.parametrize("theta", ["-1", "2"])
    def test_theta_outside_unit_interval_is_refused(self, tmp_path, capsys, method, theta):
        args = ["g", "eval", "--theta", theta, "--r", "1", "--s", "1", "--u", "3", "--v", "2", "--method", method]
        assert run_cli(args, tmp_path / "run") == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("method", ["closed", "numeric", "factor", "all"])
    @pytest.mark.parametrize("u, v", [("0.5", "3"), ("3", repr(math.nextafter(1.0, 0.0)))])
    def test_threshold_below_support_is_refused(self, tmp_path, capsys, method, u, v):
        args = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", u, "--v", v, "--method", method]
        assert run_cli(args, tmp_path / "run") == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[parameter] thresholds must be finite and >= 1" in err
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("method", ["closed", "numeric", "factor", "all"])
    def test_support_edge_gives_zero(self, tmp_path, method):
        args = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "1", "--v", "3", "--method", method]
        assert run_cli(args, tmp_path) == EXIT_OK
        assert set(read_json(tmp_path / "result.json")["methods"].values()) == {0.0}

    @pytest.mark.parametrize("method", ["numeric", "all"])
    @pytest.mark.parametrize("u, v", [("1e155", "1e155"), ("3.2e72", "1.8e296")])
    def test_overflowing_oracle_jacobian_is_numeric_error(self, tmp_path, capsys, method, u, v):
        # u v past the largest double: the 2-D oracle's x1 x2 would be inf where its gap underflows to 0
        args = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", u, "--v", v, "--method", method]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the refusal
            assert run_cli(args, tmp_path / "run") == EXIT_NUMERIC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[numeric]" in err[0] and "overflows" in err[0]
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_largest_oracle_pair_below_overflow_answers(self, tmp_path):
        args = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "1e154", "--v", "1e154", "--method", "numeric"]
        assert run_cli(args, tmp_path) == EXIT_OK
        assert math.isfinite(read_json(tmp_path / "result.json")["methods"]["numeric"])

    @given(
        theta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        r=st.floats(1.0, 50.0),
        s=st.floats(1.0, 50.0),
        log_u=st.floats(0.0, math.log(1e308)),
        log_v=st.floats(0.0, math.log(1e308)),
        method=st.sampled_from(["closed", "numeric", "factor", "all"]),
    )
    @settings(max_examples=100)
    def test_fuzz_answers_or_refuses(self, theta, r, s, log_u, log_v, method):
        # values are not checked, since the oracles lose the far tail (ROADMAP item 7): only that each
        # call answers with finite values or refuses with a typed error, quietly and in bounded time
        values = (theta, r, s, math.exp(log_u), math.exp(log_v))
        args = ["g", "eval"] + [f"--{name}={value!r}" for name, value in zip(("theta", "r", "s", "u", "v"), values)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*args, "--method", method, "--outdir", tmp])
            elapsed = time.perf_counter() - start
            result = read_json(Path(tmp) / "result.json") if code == EXIT_OK else None
        assert elapsed < 5.0, (args, elapsed)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args
        assert code in (EXIT_OK, EXIT_PARAMETER, EXIT_NUMERIC), args
        if code == EXIT_OK:
            assert all(map(math.isfinite, [*result["methods"].values(), result["max_discrepancy"]])), (args, result)
        else:
            assert len(stderr.getvalue().splitlines()) == 1, (args, stderr.getvalue())

    def test_closed_form_near_support_edge(self, tmp_path):
        args = ["g", "eval", "--theta", "1", "--r", "1.5", "--s", "1.5", "--u", "1.00000001", "--v", "2",
                "--method", "closed"]
        assert run_cli(args, tmp_path) == EXIT_OK
        closed = read_json(tmp_path / "result.json")["methods"]["closed"]
        expected = np.prod(incomplete_beta_bracket(1.5, 1.5, np.array([1.00000001, 2.0]), 2.0))
        assert closed == pytest.approx(expected, rel=1e-10)

    def test_large_r_closed_matches_mpmath(self, tmp_path):
        args = ["g", "eval", "--theta", "1", "--r", "200", "--s", "1", "--u", "3", "--v", "3", "--method", "closed"]
        assert run_cli(args, tmp_path) == EXIT_OK
        closed = read_json(tmp_path / "result.json")["methods"]["closed"]
        with mpmath.workdps(40):
            expected = mpmath_bracket(200.0, 1.0, 3.0, 2.0) ** 2
            assert abs(closed - expected) <= 1e-12 * expected


class TestConditionCheck:
    def test_nec12_example(self, tmp_path):
        code = run_cli(
            [
                "condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2",
                "--nu", "-1.5", "--N", "500",
            ],
            tmp_path,
        )
        assert code == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "condition_result")
        assert result["verdict"] == "converges"
        terms = (tmp_path / "terms.csv").read_text().splitlines()
        assert terms[0] == "j,term"
        assert len(terms) == 500  # header + j = 2..500

    @pytest.mark.parametrize(
        "args, verdict",
        [
            # a least-squares slope over the last decade read -0.992 here; the exponent is -1.0026
            (["--kind", "cs11", "--p", "1.9", "--mu", "-0.05", "--nu", "-0.9", "--N", "100000"], "converges"),
            # r alpha = 1: B grows like log u, which leaves the exponent -2.3
            (["--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "40", "--alpha", "1"], "converges"),
            # r alpha = 0.3: B grows like u^0.7, which lifts the exponent to -0.9
            (["--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "40", "--alpha", "0.3"], "diverges"),
        ],
    )
    def test_verdict_follows_the_decay_exponent(self, args, verdict, tmp_path):
        assert run_cli(["condition", "check", *args, "--format", "json"], tmp_path) == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "condition_result")
        assert result["verdict"] == verdict
        # a divergent tail is infinite, written as null
        assert (result["tail_estimate"] is not None) == (verdict == "converges")

    def test_schema_matches_the_verdict_type(self):
        assert set(SCHEMA["$defs"]["verdict"]["enum"]) == {CONVERGES, DIVERGES}
        assert SCHEMA["$defs"]["series_verdict"]["required"] == [f.name for f in dataclasses.fields(SeriesVerdict)]

    def test_window_violation_names_inequality(self, tmp_path, capsys):
        code = run_cli(
            [
                "condition", "check", "--kind", "nec12", "--p", "1", "--mu", "-0.2",
                "--nu", "-1.5", "--N", "100",
            ],
            tmp_path,
        )
        assert code == EXIT_PARAMETER
        assert "1/p - 1 < mu" in capsys.readouterr().err

    def test_large_r_matches_mpmath(self, tmp_path):
        # B(inf) = Beta(2, 199.5) / 2 is a double although Gamma(201.5) overflows
        args = ["condition", "check", "--kind", "l1", "--p", "1", "--mu", "0.2", "--nu", "-1.5",
                "--r", "200", "--N", "20"]
        assert run_cli(args, tmp_path) == EXIT_OK
        got = [float(line.split(",")[1]) for line in (tmp_path / "terms.csv").read_text().splitlines()[1:]]
        with mpmath.workdps(40):
            b = [mpmath_bracket(200.0, 1.0, k, 2.0) for k in range(1, 21)]
            k_part = [k ** mpmath.mpf(-0.8) * b[k - 1] for k in range(1, 21)]
            expected = [j ** mpmath.mpf(-2.5) * b[j - 1] * mpmath.fsum(k_part[: j - 1]) for j in range(2, 21)]
            assert all(abs(x - y) <= 1e-12 * y for x, y in zip(got, expected))

    def test_large_s_terms_match_incomplete_beta(self, tmp_path):
        # every B here lies far below B(inf), where a complement B(inf) - correction cancels
        p, n = 1.9, 300
        args = ["condition", "check", "--kind", "nec12", "--p", str(p), "--mu", "0", "--nu", "-1",
                "--s", "40", "--N", str(n)]
        assert run_cli(args, tmp_path) == EXIT_OK
        got = np.array([float(line.split(",")[1]) for line in (tmp_path / "terms.csv").read_text().splitlines()[1:]])
        idx = np.arange(1, n + 1, dtype=float)
        b = incomplete_beta_bracket(1.0, 40.0, idx ** (1.0 / p), 2.0)
        k_part, j_part = idx ** (-1.0 / p) * b, idx ** (-1.0 / p - 1.0) * b
        expected = j_part[1:] * np.cumsum(k_part)[:-1]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


class TestBc:
    def test_ratio_outputs(self, tmp_path):
        code = run_cli(
            ["bc", "ratio", "--alpha", "1", "--p", "1", "--n-grid", "10,100,1000"],
            tmp_path,
        )
        assert code == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "bc_ratio_result")
        lines = (tmp_path / "ratio.csv").read_text().splitlines()
        assert lines[0] == "n,ratio,running_min"
        assert len(lines) == 4

    @pytest.mark.parametrize("grid", ["log:a:3", "log:100", "10,x", "0,5"])
    def test_malformed_grid_is_parameter_error(self, tmp_path, capsys, grid):
        code = run_cli(["bc", "ratio", "--alpha", "1", "--p", "1", "--n-grid", grid], tmp_path)
        assert code == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err

    def test_ratio_with_dependence(self, tmp_path):
        code = run_cli(
            [
                "bc", "ratio", "--alpha", "2", "--p", "1", "--theta-spec", "power:0.2,-1.5",
                "--n-grid", "log:1000:5",
            ],
            tmp_path,
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("action", ["ratio", "bracket"])
    def test_exponents_below_one_are_parameter_error(self, tmp_path, capsys, action):
        model = ["--alpha", "2", "--p", "1", "--theta-spec", "power:0.2,-1.5", "--r", "0.5", "--s", "0.5"]
        extra = ["--n-grid", "10,100"] if action == "ratio" else ["--k", "2", "--j", "3", "--eps", "2"]
        assert run_cli(["bc", action, *model, *extra], tmp_path) == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["ratio", "bracket"])
    def test_scaled_schedule_is_refused_after_the_window(self, tmp_path, capsys, action):
        extra = ["--n-grid", "10,100"] if action == "ratio" else ["--k", "2", "--j", "3", "--eps", "2"]
        for p, spec, message in (
            ("1.2", "power:0.1,-1.2,0.5", "analytic event systems take the schedule as-is; scale is only for 'simulate'"),
            ("2.5", "power:0.1,-1.2", "normalising exponent requires 1 <= p < 2, got p=2.5"),  # the window check comes first
        ):
            args = ["bc", action, "--alpha", "2", "--p", p, "--theta-spec", spec, *extra]
            assert run_cli(args, tmp_path / "run") == EXIT_PARAMETER
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].endswith(f"[parameter] {message}")
            assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("k, j", [(-1, 3), (3, -1), (0, 3)])
    def test_bracket_event_index_below_one_is_parameter_error(self, tmp_path, capsys, k, j):
        args = ["bc", "bracket", "--alpha", "2", "--p", "1.2", "--k", str(k), "--j", str(j), "--eps", "2"]
        assert run_cli(args, tmp_path / "run") == EXIT_PARAMETER
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[parameter]" in err[0] and "event index" in err[0]
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_bracket(self, tmp_path):
        code = run_cli(
            ["bc", "bracket", "--alpha", "2", "--p", "1", "--k", "2", "--j", "3", "--eps", "2"],
            tmp_path,
        )
        assert code == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "bc_bracket_result")
        assert result["holds"] is True
        assert result["lhs"] == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_bracket_schema_is_the_echoed_parameters_and_the_check(self, tmp_path):
        required = SCHEMA["$defs"]["bc_bracket_result"]["required"]
        assert required == ["p", "alpha", "k", "j", "eps", *BracketCheck._fields]
        assert sorted(SCHEMA["$defs"]["bc_bracket_result"]["properties"]) == sorted(required)
        args = ["bc", "bracket", "--alpha", "1.5", "--p", "1.2", "--theta-spec", "power:0.1,-1.2", "--k", "3", "--j", "7", "--eps", "2"]
        assert run_cli(args, tmp_path) == EXIT_OK
        assert sorted(read_json(tmp_path / "result.json")) == sorted(required)


class TestSimulateSlln:
    ARGS = [
        "simulate", "slln", "--p", "1", "--alpha", "2", "--theta-spec", "zero",
        "--n-max", "1024", "--replicates", "4", "--seed", "11", "--c", "2",
    ]

    def test_outputs(self, tmp_path):
        assert run_cli(self.ARGS, tmp_path) == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "slln_result")
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "replicate,checkpoint_n,m_n,e_n"
        assert len(lines) == 1 + 4 * len(result["checkpoints"])

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*self.ARGS, "--outdir", str(a), "--workers", "1"]) == EXIT_OK
        assert main([*self.ARGS, "--outdir", str(b), "--workers", "4"]) == EXIT_OK
        for name in ("result.json", "paths.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infinite_mean_needs_explicit_centering(self, tmp_path, capsys):
        args = [
            "simulate", "slln", "--p", "1", "--alpha", "1", "--theta-spec", "zero",
            "--n-max", "512", "--replicates", "2", "--seed", "3",
        ]
        assert run_cli(args, tmp_path) == EXIT_PARAMETER
        assert "explicit c" in capsys.readouterr().err


class TestReportExample:
    def test_end_to_end(self, tmp_path):
        code = run_cli(
            [
                "report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5",
                "--r", "1", "--s", "1", "--N", "500",
            ],
            tmp_path,
        )
        assert code == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "example_report")
        assert result["verdict"] == "converges"
        assert result["g_oracle_max_discrepancy"] <= 1e-6
        assert result["majorant_bound_holds_at_every_checkpoint"] is True
        assert (tmp_path / "gtable.csv").exists()
        assert (tmp_path / "terms.csv").exists()

    def test_majorant_follows_alpha(self, tmp_path, capsys):
        args = ["report", "example", "--p", "1", "--mu", "0.01", "--nu", "-1.2", "--alpha", "1.2", "--N", "200"]
        assert run_cli(args, tmp_path) == EXIT_OK
        assert "majorant bound holds at every checkpoint: True" in capsys.readouterr().out
        result = read_json(tmp_path / "result.json")
        validate(result, "example_report")
        assert result["majorant"]["c_const"] == bracket_limit(1.0, 1.0, ParetoMarginal(1.2)) ** 2
        assert result["majorant_bound_holds_at_every_checkpoint"] is True

    def test_closed_column_follows_alpha(self, tmp_path):
        args = ["report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--alpha", "1.5", "--N", "200"]
        assert run_cli(args, tmp_path) == EXIT_OK
        assert read_json(tmp_path / "result.json")["g_oracle_max_discrepancy"] <= 1e-6

    def test_divergent_limit_gives_null_majorant(self, tmp_path):
        # r alpha = 1: B(u) is finite but B(inf) diverges, so the majorant's constant is infinite, written as null
        args = ["report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--alpha", "1", "--r", "1", "--N", "200"]
        assert run_cli(args, tmp_path) == EXIT_OK
        result = read_json(tmp_path / "result.json")
        validate(result, "example_report")
        assert result["majorant"]["c_const"] is None
        assert result["g_oracle_max_discrepancy"] <= 1e-6

    def test_infinite_majorant_holds_where_its_powers_underflow(self, tmp_path, capsys):
        # r alpha = 1 makes c_const = B(inf)^2 infinite while j^exponent underflows to 0 at nu = -1e6:
        # the majorant is +inf at every checkpoint, not inf * 0 = nan
        args = ["report", "example", "--p", "1", "--mu", "0.2", "--nu=-1e6", "--alpha", "1", "--N", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(args, tmp_path) == EXIT_OK
        assert "majorant bound holds at every checkpoint: True" in capsys.readouterr().out
        assert read_json(tmp_path / "result.json")["majorant_bound_holds_at_every_checkpoint"] is True


class TestManifestRerun:
    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        args = [
            "condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2",
            "--nu", "-1.5", "--N", "300", "--outdir", str(first),
        ]
        assert main(args) == EXIT_OK
        assert main(["rerun", "--manifest", str(first / "manifest.json"), "--outdir", str(second)]) == EXIT_OK
        for name in ("manifest.json", "result.json", "terms.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rerun_simulate(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main([*TestSimulateSlln.ARGS, "--outdir", str(first)]) == EXIT_OK
        assert main(["rerun", "--manifest", str(first / "manifest.json"), "--outdir", str(second), "--workers", "3"]) == EXIT_OK
        for name in ("manifest.json", "result.json", "paths.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_multi_chunk_terms_match_csv_module(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        args = [
            "condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2",
            "--nu", "-1.5", "--N", "20000", "--format", "csv", "--outdir", str(first),
        ]
        assert main(args) == EXIT_OK
        j_values, terms = pqdslln.conditions.condition_terms(
            "nec12", 1.0, PowerSchedule(mu=0.2, nu=-1.5), 1.0, 1.0, ParetoMarginal(2.0), 20000
        )
        assert len(j_values) > 2 * pqdslln.cli._CSV_ROWS  # the table spans several write chunks
        expected = csv_module_bytes(["j", "term"], zip(j_values.tolist(), terms.tolist()))
        assert (first / "terms.csv").read_bytes() == expected
        assert main(["rerun", "--manifest", str(first / "manifest.json"), "--outdir", str(second)]) == EXIT_OK
        for name in ("manifest.json", "terms.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestRerunRefusals:
    @pytest.fixture
    def manifest(self, tmp_path):
        run = tmp_path / "run"
        assert main([*G_CLOSED, "--outdir", str(run)]) == EXIT_OK
        return run / "manifest.json"

    def rerun(self, path: Path, tmp_path: Path) -> int:
        return main(["rerun", "--manifest", str(path), "--outdir", str(tmp_path / "replay")])

    @pytest.mark.parametrize("key, value", [("version", "0.0.1"), ("tool", "other"), ("tool", None)])
    def test_other_version_or_tool_is_parameter_error(self, manifest, tmp_path, capsys, key, value):
        doc = read_json(manifest)
        assert doc["version"] == __version__
        doc[key] = value
        manifest.write_text(json.dumps(doc))
        assert self.rerun(manifest, tmp_path) == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize(
        "text",
        [
            None,  # missing file
            "{not json",
            "\xff\xfe",
            "[1, 2]",
            '{"tool": "pqdslln", "version": "%s", "parameters": {"theta": 1.0, "u": 2.0}}' % __version__,
            '{"tool": "pqdslln", "version": "%s", "subcommand": "g eval"}' % __version__,
            '{"tool": "pqdslln", "version": "%s", "subcommand": "g eval", "parameters": {"u": 2.0}}' % __version__,
            '{"tool": "pqdslln", "version": "%s", "subcommand": "rerun", "parameters": {}}' % __version__,
        ],
        ids=["missing", "not-json", "not-utf8", "not-object", "no-subcommand", "no-parameters", "lacks-required", "rerun"],
    )
    def test_unusable_manifest_is_parameter_error(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_bytes(text.encode("latin-1"))
        assert self.rerun(path, tmp_path) == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err

    CONDITION = ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "50"]
    BC = ["bc", "ratio", "--alpha", "2", "--p", "1", "--theta-spec", "power:0.2,-1.5", "--n-grid", "10,100"]

    @pytest.mark.parametrize(
        "args, key, value",
        [
            (CONDITION, "N", "50"),
            (CONDITION, "N", 50.0),
            (CONDITION, "p", "1"),
            (CONDITION, "p", 1),
            (CONDITION, "p", True),
            (CONDITION, "kind", "other"),
            (CONDITION, "bogus", 1),
            (BC, "n_grid", [10, "100"]),
            (BC, "n_grid", 100),
            (BC, "n_grid", [100, 10]),
            (BC, "n_grid", [10, 10, 100]),
            (BC, "theta_spec", {"kind": "power", "mu": 0.2, "nu": -1.5}),
            (BC, "theta_spec", "power:0.2,-1.5"),
        ],
        ids=[
            "int-as-string", "int-as-float", "float-as-string", "float-as-int", "float-as-bool",
            "not-a-choice", "undeclared", "grid-entry-string", "grid-not-list", "grid-unordered", "grid-repeated",
            "theta-lacks-scale", "theta-unparsed",
        ],
    )
    def test_mistyped_or_undeclared_parameter_is_parameter_error(self, tmp_path, capsys, args, key, value):
        run = tmp_path / "run"
        assert main([*args, "--outdir", str(run)]) == EXIT_OK
        doc = read_json(run / "manifest.json")
        doc["parameters"][key] = value
        (run / "manifest.json").write_text(json.dumps(doc))
        assert self.rerun(run / "manifest.json", tmp_path) == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    def test_undeclared_parameter_names_the_manifest_and_subcommand(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main([*self.CONDITION, "--outdir", str(run)]) == EXIT_OK
        doc = read_json(run / "manifest.json")
        doc["parameters"]["bogus"] = 1
        (run / "manifest.json").write_text(json.dumps(doc))
        assert self.rerun(run / "manifest.json", tmp_path) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[parameter] manifest {run / 'manifest.json'}: condition check: unrecognized arguments: --bogus=1" in err

    def test_manifest_with_a_quadrature_budget_is_parameter_error(self, manifest, tmp_path, capsys):
        # a g eval manifest as written while g eval took --quad-tol and --max-panels
        doc = read_json(manifest)
        doc["parameters"].update(max_panels=65536, quad_tol=1e-9)
        manifest.write_text(json.dumps(doc))
        assert self.rerun(manifest, tmp_path) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "g eval: unrecognized arguments: --max-panels=65536 --quad-tol=1e-09" in err
        assert not (tmp_path / "replay").exists()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestReplayRoundTrip:
    """A value written into a real manifest comes back from ``rerun`` bit for bit."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        run = tmp_path_factory.mktemp("bc")
        assert main([*TestRerunRefusals.BC, "--outdir", str(run)]) == EXIT_OK
        return (run / "manifest.json").read_text()

    def replay(self, recorded: str, key: str, value):
        doc = json.loads(recorded)
        doc["parameters"][key] = value
        _, flags = pqdslln.cli._COMMANDS["bc ratio"]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # arbitrary values need not make an admissible model: replay only the parameters
            patch.setitem(pqdslln.cli._COMMANDS, "bc ratio", (lambda params: ({}, {}, []), flags))
            path = Path(tmp) / "manifest.json"
            path.write_text(json.dumps(doc))
            assert main(["rerun", "--manifest", str(path), "--outdir", str(Path(tmp) / "replay")]) == EXIT_OK
            return read_json(Path(tmp) / "replay" / "manifest.json")["parameters"][key]

    @given(key=st.sampled_from(["alpha", "p", "r", "s"]), value=FINITE)
    @example(key="p", value=-8.8e-05)
    @example(key="alpha", value=1e300)
    @example(key="r", value=5e-324)
    @example(key="s", value=-0.0)
    def test_float(self, recorded, key, value):
        replayed = self.replay(recorded, key, value)
        assert type(replayed) is float and replayed.hex() == value.hex()

    @given(grid=st.lists(st.integers(1, 2**53), min_size=1, max_size=20, unique=True).map(sorted))
    def test_sorted_n_grid(self, recorded, grid):
        assert self.replay(recorded, "n_grid", grid) == grid

    def test_n_grid_past_2_to_53_is_refused(self, recorded, tmp_path, capsys):
        doc = json.loads(recorded)
        doc["parameters"]["n_grid"] = [1, 2**53 + 1]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert main(["rerun", "--manifest", str(path), "--outdir", str(tmp_path / "replay")]) == EXIT_PARAMETER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pqdslln: error: [parameter] n grid: ")
        assert not (tmp_path / "replay").exists()

    @given(
        theta=st.just({"kind": "zero"})
        | st.builds(lambda mu, nu, scale: {"kind": "power", "mu": mu, "nu": nu, "scale": scale}, FINITE, FINITE, FINITE)
    )
    @example(theta={"kind": "power", "mu": -8.8e-05, "nu": 1e300, "scale": 5e-324})
    def test_power_theta_spec(self, recorded, theta):
        # json text spells every float by its repr, so equal text is equal bits
        assert json.dumps(self.replay(recorded, "theta_spec", theta)) == json.dumps(theta)


class TestNonFiniteValues:
    SLLN = ["simulate", "slln", "--p", "1.2", "--alpha", "2", "--n-max", "256", "--replicates", "2", "--c", "2"]

    @pytest.mark.parametrize(
        "args",
        [
            ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "inf", "--v", "2", "--method", "closed"],
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--s", "inf"],
            ["g", "eval", "--theta", "1", "--r", "inf", "--s", "1", "--u", "2", "--v", "2", "--method", "closed"],
            ["simulate", "slln", "--p", "1", "--alpha", "2", "--n-max", "256", "--replicates", "2", "--c", "nan"],
            ["bc", "bracket", "--alpha", "2", "--p", "1", "--k", "2", "--j", "3", "--eps", "inf"],
            ["g", "eval", "--theta", "nan", "--r", "1", "--s", "1", "--u", "2", "--v", "2", "--method", "closed"],
            [*SLLN, "--theta-spec", "power:-0.3,-1.2,nan"],
            [*SLLN, "--theta-spec", "power:-0.3,-1.2,inf"],
            [*SLLN, "--theta-spec", "power:nan,-1.2"],
        ],
        ids=[
            "g-u-inf", "condition-s-inf", "g-r-inf", "slln-c-nan", "bracket-eps-inf", "g-theta-nan",
            "theta-scale-nan", "theta-scale-inf", "theta-mu-nan",
        ],
    )
    def test_flag_is_parameter_error(self, args, tmp_path, capsys):
        assert run_cli(args, tmp_path / "run") == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("mu", ["200", "1e8"])
    def test_overflowing_power_schedule_is_parameter_error(self, mu, tmp_path, capsys):
        args = ["simulate", "slln", "--p", "1.5", "--alpha", "2", "--theta-spec", f"power:{mu},0.5",
                "--n-max", "1000", "--replicates", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning before the refusal
            assert run_cli(args, tmp_path / "run") == EXIT_PARAMETER
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[parameter]" in err[0] and "overflow" in err[0]
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "args, spelled, nan",
        [
            (SLLN, '"c": 2.0', '"c": NaN'),
            ([*SLLN, "--theta-spec", "power:-0.3,-1.2,0.25"], '"scale": 0.25', '"scale": NaN'),
        ],
        ids=["slln-c", "theta-scale"],
    )
    def test_manifest_is_parameter_error(self, args, spelled, nan, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_cli(args, run) == EXIT_OK
        text = (run / "manifest.json").read_text()
        assert spelled in text
        (run / "manifest.json").write_text(text.replace(spelled, nan))
        replay = tmp_path / "replay"
        assert main(["rerun", "--manifest", str(run / "manifest.json"), "--outdir", str(replay)]) == EXIT_PARAMETER
        assert "[parameter]" in capsys.readouterr().err
        assert not (replay / "manifest.json").exists()


class TestNegativeExponentValues:
    @pytest.mark.parametrize(
        "p, mu, nu, plain_mu, plain_nu",
        [("1", "0.2", "-1.5e0", "0.2", "-1.5"), ("1.5", "-8.8e-05", "-1.5e0", "-0.000088", "-1.5")],
    )
    def test_exponent_form_parses_as_value(self, tmp_path, p, mu, nu, plain_mu, plain_nu):
        spellings = [
            ["--p", p, "--mu", mu, "--nu", nu],
            [f"--p={p}", f"--mu={mu}", f"--nu={nu}"],
            ["--p", p, "--mu", plain_mu, "--nu", plain_nu],
        ]
        outputs = []
        for i, args in enumerate(spellings):
            out = tmp_path / str(i)
            assert main(["condition", "check", "--kind", "nec12", "--N", "50", *args, "--outdir", str(out)]) == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert f'"mu": {float(mu)!r}'.encode() in outputs[0]["manifest.json"]


class TestFarParameters:
    """In-range parameters far from the worked example answer quietly, with no overflow warning."""

    @pytest.mark.parametrize("r", ["1e17", "1e300"])
    @pytest.mark.parametrize(
        "command",
        [
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "5"],
            ["condition", "check", "--kind", "l1", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "5"],
            ["report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "5"],
            ["bc", "bracket", "--alpha", "2", "--p", "1", "--theta-spec", "power:0.2,-1.5", "--k", "1", "--j", "3",
             "--eps", "2"],
        ],
        ids=["nec12", "l1", "report", "bracket"],
    )
    def test_huge_r_meets_the_support_edge(self, tmp_path, command, r):
        # b = r - 1/alpha past about 3e16 rounds the closed form's split point to 1, where the threshold 1 lies
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*command, "--r", r], tmp_path) == EXIT_OK

    @staticmethod
    def tiny_alpha_sum(alpha: str, outdir: Path) -> float:
        """The nec12 partial sum at N = 5, from a child interpreter with RuntimeWarnings fatal.

        Below alpha ~ 1e-16, r - 1/alpha is an integer-valued double, which the 2F1 sum once read as a
        terminating order of about 1/alpha terms: the child's timeout turns such a hang into a failure.
        """
        argv = ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "5"]
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "pqdslln.cli", *argv, "--alpha", alpha,
             "--outdir", str(outdir)],
            env=child_env(), capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == EXIT_OK, done.stderr
        return read_json(outdir / "result.json")["partial_sum"]

    @pytest.mark.parametrize("alpha", ["1e-17", "1e-20"])
    def test_tiny_alpha_matches_mpmath(self, tmp_path, alpha):
        got = self.tiny_alpha_sum(alpha, tmp_path)
        with mpmath.workdps(40):
            b = [mpmath_bracket(1.0, 1.0, k, float(alpha)) for k in range(1, 6)]
            k_part = [k ** mpmath.mpf(-0.8) * b[k - 1] for k in range(1, 6)]
            expected = mpmath.fsum(j ** mpmath.mpf(-2.5) * b[j - 1] * mpmath.fsum(k_part[: j - 1]) for j in range(2, 6))
            assert abs(got - expected) <= 1e-12 * expected

    def test_alpha_1e300_rounds_to_zero(self, tmp_path):
        # the true sum, about 1.9e-601, lies far below the smallest subnormal double
        assert self.tiny_alpha_sum("1e-300", tmp_path) == 0.0

    @pytest.mark.parametrize(
        "command, series_key",
        [
            (["condition", "check", "--kind", "cs11", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--N", "10"], None),
            (["report", "example", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--N", "10"], "series"),
        ],
        ids=["cs11", "report"],
    )
    def test_huge_alpha_answers(self, tmp_path, command, series_key):
        # alpha log u passes the largest double beyond u = e, where g = u^-alpha is 0 and F is 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*command, "--alpha", "1e308"], tmp_path) == EXIT_OK
        result = read_json(tmp_path / "result.json")
        assert (result[series_key] if series_key else result)["partial_sum"] == 0.0

    @pytest.mark.parametrize("r, s", [("1e308", "1"), ("1", "1e308")])
    def test_g_eval_near_the_largest_double(self, tmp_path, r, s):
        # B is about 1/(2 r^2) or below, far under the smallest subnormal double; the series' term
        # ratio once formed (1 + n)(b + n), which overflowed and spent the whole term budget
        args = ["g", "eval", "--theta", "1", "--r", r, "--s", s, "--u", "2", "--v", "3", "--method", "closed"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(args, tmp_path) == EXIT_OK
        assert read_json(tmp_path / "result.json")["methods"]["closed"] == 0.0

    @pytest.mark.parametrize(
        "rs, uv",
        [("1e308", ("2", "3")), ("1e308", ("1", "1e300")), ("5e307", ("2", "3"))],
        ids=["1e308", "1e308-edge", "5e307"],
    )
    def test_g_eval_with_both_exponents_near_the_largest_double(self, tmp_path, rs, uv):
        # B(inf) = Beta(s + 1, r - 1/alpha) / alpha underflows; lgamma(s + 1) once overflowed, and past
        # r = s ~ 9e307 so does a + b, where the series at u = 1 spent its whole term budget
        args = ["g", "eval", "--theta", "1", "--r", rs, "--s", rs, "--u", uv[0], "--v", uv[1], "--method", "closed"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(args, tmp_path) == EXIT_OK
        assert read_json(tmp_path / "result.json")["methods"]["closed"] == 0.0

    def test_condition_check_with_both_exponents_near_the_largest_double(self, tmp_path):
        args = ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--r", "1e308",
                "--s", "1e308", "--N", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(args, tmp_path) == EXIT_OK
        assert read_json(tmp_path / "result.json")["partial_sum"] == 0.0

    def test_bracket_with_both_exponents_near_the_largest_double(self, tmp_path):
        # the theta term, theta times the product of two factor differences, is 0: lhs is the
        # product of the survival integrals alone, as under the zero schedule
        args = ["bc", "bracket", "--alpha", "2", "--p", "1", "--r", "1e308", "--s", "1e308", "--k", "2", "--j", "3",
                "--eps", "1.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*args, "--theta-spec=power:0.2,-1.5"], tmp_path / "power") == EXIT_OK
        assert run_cli([*args, "--theta-spec=zero"], tmp_path / "zero") == EXIT_OK
        got, independent = (read_json(tmp_path / name / "result.json") for name in ("power", "zero"))
        assert got["lhs"] == independent["lhs"] and got["holds"] is True

    @pytest.mark.parametrize("spec, k, j", [("power:999999.9999999999,-1000000.0", "1000", "2"), ("power:1100,-1100.5", "2", "3")])
    def test_overflowing_power_of_k_in_the_window(self, tmp_path, spec, k, j):
        # k^mu alone passes the largest double, theta_{k,j} does not
        args = ["bc", "bracket", "--alpha", "2", "--p", "1", f"--theta-spec={spec}", "--k", k, "--j", j, "--eps", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(args, tmp_path) == EXIT_OK
        assert read_json(tmp_path / "result.json")["holds"] is True


class TestOverflowingPairSums:
    """Where the running sum of k^c w_k in a pair sum overflows a double, the run exits 3, with no overflow warning."""

    @pytest.mark.parametrize(
        "args",
        [
            ["bc", "ratio", "--alpha", "2", "--p", "1", "--theta-spec=power:999999,-1000000", "--n-grid", "10,100"],
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "999999", "--nu=-1e6", "--N", "5"],
            ["report", "example", "--p", "1", "--mu", "1000", "--nu=-1e6", "--N", "20"],
        ],
        ids=["bc-ratio", "condition", "report"],
    )
    def test_is_numeric_error(self, args, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(args, tmp_path / "run") == EXIT_NUMERIC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[numeric] pair sums overflow a double" in err[0]
        assert not (tmp_path / "run" / "manifest.json").exists()


class TestOverflowingSamples:
    """Where a replicate's running sum or centred sum passes the largest double, the run exits 3, with no
    overflow warning."""

    SUM = "[numeric] replicate 0's running sum overflows double precision"
    CENTRED = "[numeric] replicate 0's centred sum S_n - n*c overflows double precision at n="

    @pytest.mark.parametrize(
        "args, message",
        [
            # a Pareto(0.01) sample passes the largest double once 1 - U < 1e-3.08, so within 1024 draws
            (["--alpha", "0.01", "--n-max", "1024", "--replicates", "4", "--c", "2"], SUM),
            (["--alpha", "1e-300", "--n-max", "1024", "--replicates", "4", "--c", "2"], SUM),
            # n*c overflows at the first checkpoint, though M_n = S_n/n - c is finite at p = 1
            (["--alpha", "2", "--n-max", "256", "--replicates", "2", "--c", "1e307"], CENTRED + "128"),
            (["--alpha", "2", "--n-max", "131072", "--replicates", "2", "--c", "1e304"], CENTRED + "32768"),
            (["--alpha", "2", "--n-max", "256", "--replicates", "2", "--c", "-1e308"], CENTRED + "128"),
        ],
        ids=["0.01", "1e-300", "c-1e307", "c-1e304", "c-minus-1e308"],
    )
    def test_is_numeric_error(self, args, message, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["simulate", "slln", "--p", "1", *args], tmp_path / "run") == EXIT_NUMERIC
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (tmp_path / "run" / "manifest.json").exists()


class TestSizesTooLargeToAllocate:
    """A size whose arrays cannot be allocated exits 3 with one [numeric] line and no manifest."""

    @pytest.mark.parametrize(
        "args",
        [
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--N", "1000000000000000"],
            ["simulate", "slln", "--p", "1", "--alpha", "2", "--n-max", "1000000000000000", "--replicates", "2", "--c", "2"],
            ["bc", "ratio", "--alpha", "2", "--p", "1", "--n-grid", "log:10:1000000000000"],
        ],
        ids=["condition", "simulate", "bc-ratio"],
    )
    def test_is_numeric_error(self, args, tmp_path):
        # an 8 GiB address space refuses the TiB arrays at once, whatever the host's overcommit policy
        limit = 1 << 33
        done = subprocess.run(
            [sys.executable, "-m", "pqdslln.cli", *args, "--outdir", str(tmp_path / "run")],
            env=child_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == EXIT_NUMERIC, done.stderr
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("pqdslln: error: [numeric] Unable to allocate"), done.stderr
        assert not (tmp_path / "run" / "manifest.json").exists()


class TestSizesPastTwoTo53:
    """An integer size past 2^53, the largest integer that every double holds exactly, exits 2."""

    BIG = str(10**400)

    @pytest.mark.parametrize(
        "args",
        [
            ["bc", "bracket", "--alpha", "2", "--p", "1", "--k", BIG, "--j", "3", "--eps", "2", "--theta-spec=power:0.2,-1.5"],
            ["bc", "bracket", "--alpha", "2", "--p", "1", "--k", "3", "--j", BIG, "--eps", "2", "--theta-spec=power:0.2,-1.5"],
            ["bc", "ratio", "--alpha", "2", "--p", "1", "--n-grid", f"10,{BIG}"],
            ["bc", "ratio", "--alpha", "2", "--p", "1", "--n-grid", f"10,{2**53 + 1}"],
            ["bc", "ratio", "--alpha", "2", "--p", "1", "--n-grid", "log:100000000000000000000:3"],
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--N", "9223372036854775808"],
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--N", "10000000000000000000"],
            ["report", "example", "--p", "1", "--mu", "0.2", "--nu=-1.5", "--N", str(2**53 + 1)],
            ["simulate", "slln", "--p", "1", "--alpha", "2", "--c", "2", "--n-max", "100000000000000000000"],
            ["simulate", "slln", "--p", "1", "--alpha", "2", "--c", "2", "--n-max", "1024", "--replicates", "1000000000000000000"],
            [
                "simulate", "slln", "--p", "1", "--alpha", "2", "--c", "2", "--n-max", "1024",
                "--window", BIG, "--theta-spec=power:-0.3,-1.2",
            ],
        ],
        ids=[
            "bracket-k", "bracket-j", "ratio-list", "ratio-list-2^53+1", "ratio-log-max", "condition-2^63",
            "condition-1e19", "report-2^53+1", "slln-n-max", "slln-replicates", "slln-window",
        ],
    )
    def test_is_parameter_error(self, args, tmp_path, capsys):
        assert main([*args, "--outdir", str(tmp_path / "run")]) == EXIT_PARAMETER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pqdslln: error: [parameter] "), err
        assert "2^53" in err[0]
        assert not (tmp_path / "run").exists()


class TestSeriesComputedOnce:
    @pytest.mark.parametrize(
        "args",
        [
            ["condition", "check", "--kind", "cs11", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "100"],
            ["report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "100"],
        ],
    )
    def test_condition_terms_runs_once(self, args, tmp_path, monkeypatch):
        calls = []
        original = pqdslln.conditions.condition_terms

        def counting(*a, **k):
            calls.append(a)
            return original(*a, **k)

        monkeypatch.setattr(pqdslln.conditions, "condition_terms", counting)
        monkeypatch.setattr(pqdslln.cli, "condition_terms", counting)
        assert run_cli(args, tmp_path) == EXIT_OK
        assert len(calls) == 1


class TestNoQuadratureOnProductionPaths:
    """``condition check`` and ``bc bracket`` take the factor B in closed form at every r alpha."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])  # r alpha = 0.5 and 1 at r = 1: b = -1 and b = 0
    def test_commands_answer_without_quadrature(self, alpha, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a production path integrated by quadrature")

        original = pqdslln.quadrature.adaptive_quad_many
        for module in [m for n, m in sys.modules.items() if n.startswith("pqdslln")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
        series = ["--p", "1", "--mu", "0.2", "--nu", "-1.5", "--alpha", str(alpha), "--N", "300"]
        for kind in ("cs11", "nec12", "l1"):
            assert run_cli(["condition", "check", "--kind", kind, *series], tmp_path / kind) == EXIT_OK
        system = ["--alpha", str(alpha), "--p", "1", "--theta-spec", "power:0.2,-1.5"]
        # brackets across the split, and with both edges above it
        for k, j, eps in ((3, 7, 1.5), (30, 40, 1.1), (1, 2, 3.0)):
            args = ["bc", "bracket", *system, "--k", str(k), "--j", str(j), "--eps", str(eps)]
            assert run_cli(args, tmp_path / f"bc-{k}-{j}") == EXIT_OK


def count_calls(monkeypatch, names, modules=(pqdslln.gfun,)) -> dict:
    """Wrap each function in ``names`` where ``modules`` hold it, and return the tally of its calls."""
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*a, **k):
            calls[name] += 1
            return original(*a, **k)

        return wrapper

    for name in names:
        wrapper = counting(name, getattr(pqdslln.gfun, name))
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


class TestClosedFormOnePass:
    @pytest.mark.parametrize("kind", ["cs11", "nec12", "l1"])
    def test_one_series_and_one_limit_per_check(self, kind, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ["_hyp_series", "bracket_limit"])
        args = ["condition", "check", "--kind", kind, "--p", "1.3", "--mu", "0.2", "--nu", "-1.5", "--N", "300"]
        assert run_cli(args, tmp_path) == EXIT_OK
        # one series for each side of x* = (a + 1) / (a + b + 2) that holds a threshold
        # (a = s + 1 = 2, b = r - 1/alpha = 0.5 at the defaults)
        f = 1.0 - (np.arange(1, 301) ** (1.0 if kind == "l1" else 1.0 / 1.3)) ** -2.0
        below = f < 3.0 / 4.5
        assert calls == {"_hyp_series": int(below.any()) + int((~below).any()), "bracket_limit": 1}

    @pytest.mark.parametrize("u, v, series", [(1.5, 1.2, 1), (1.5, 3.0, 2), (3.0, 5.0, 1)])
    def test_g_eval_takes_one_limit_and_one_series_per_side(self, u, v, series, tmp_path, monkeypatch):
        # r = s = 1 at alpha = 2: the split x* = 3/4.5 lies at u = sqrt(3)
        calls = count_calls(monkeypatch, ["_hyp_series", "bracket_limit"])
        args = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", str(u), "--v", str(v), "--method", "closed"]
        assert run_cli(args, tmp_path) == EXIT_OK
        assert calls == {"_hyp_series": series, "bracket_limit": 1}

    def test_report_grid_takes_one_bracket_call(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, ["g_closed_bracket"], (pqdslln.gfun, pqdslln.conditions, pqdslln.cli))
        args = ["report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "100"]
        assert run_cli(args, tmp_path) == EXIT_OK
        # one call for the series, one for the 4 x 4 G grid
        assert calls == {"g_closed_bracket": 2}


class TestTableCells:
    @pytest.mark.parametrize(
        "argv",
        [
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "60"],
            ["bc", "ratio", "--alpha", "2", "--p", "1", "--theta-spec", "power:0.2,-1.5", "--n-grid", "10,100"],
            ["simulate", "slln", "--p", "1.2", "--alpha", "2", "--n-max", "256", "--replicates", "2", "--c", "2"],
            [
                "simulate", "slln", "--p", "1.2", "--alpha", "2", "--n-max", "256", "--replicates", "2",
                "--theta-spec", "power:-0.3,-1.2,0.25", "--c", "2",
            ],
            ["report", "example", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "40"],
        ],
    )
    def test_cells_are_python_scalars(self, argv):
        # every column is a 1-D int64 or float64 array: the str route writes the
        # cells of its .tolist(), Python ints and floats, and the numpy route
        # reads these two dtypes; a str cell would go unquoted
        subcommand = " ".join(argv[:2])
        handler, flags = pqdslln.cli._COMMANDS[subcommand]
        params = pqdslln.cli._parameters(flags, pqdslln.cli._build_parser().parse_args(argv))
        _, tables, _ = handler(params)
        assert tables
        for header, columns in tables.values():
            assert len(columns) == len(header)
            shapes = {column.shape for column in columns}
            assert len(shapes) == 1 and shapes != {(0,)}, shapes
            for column in columns:
                assert column.ndim == 1 and column.dtype in (np.int64, np.float64), column.dtype


# the float repr switches to exponent notation at 1e16 and below 1e-4
REPR_SWITCHES = [
    x
    for v in (1e16, 1e-4, -1e16, -1e-4)
    for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.copysign(math.inf, v)))
]
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, *REPR_SWITCHES]
# a column is a short drawn pattern repeated to the table's length
INT_PATTERN = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8)
FLOAT_PATTERN = st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=8)


# every power of two, every power of ten and its two neighbours, the
# subnormals t * 2^-1074 for t <= 1000, and the largest double, all signed
FLOAT_EDGES = np.array(
    [
        *(math.ldexp(1.0, k) for k in range(-1074, 1024)),
        *(x for k in range(-323, 309) for v in [float(f"1e{k}")] for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))),
        *np.arange(1, 1001, dtype=np.uint64).view(np.float64).tolist(),
        sys.float_info.max,
        1e23,
        2.0**53 + 2,
        2.0**50 + 0.25,  # halfway between the 17-digit 1125899906842624.2 and .3: the even one
        2.0**50 + 0.75,
    ]
)
FLOAT_EDGES = np.concatenate([FLOAT_EDGES, -FLOAT_EDGES, [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]])
INT_EDGES = np.array([0, 1, -1, 9, 10, -10, 99, 100, 2**53 + 1, 10**18, -(10**18), 2**63 - 1, -(2**63)], dtype=np.int64)


def numpy_cells(column: np.ndarray) -> list[str]:
    """The text the writer's numpy route gives each cell of a one-column table."""
    return pqdslln._csvtext.rows_bytes([column]).tobytes().decode().split("\n")[:-1]


class TestCsvWriter:
    # both sides of the switch from str() to numpy and of a numpy write chunk,
    # and sizes in between
    @pytest.mark.parametrize(
        "n_rows",
        [
            0,
            1,
            512,
            pqdslln.cli._CSV_NUMPY_ROWS - 1,
            pqdslln.cli._CSV_NUMPY_ROWS,
            pqdslln.cli._CSV_NUMPY_ROWS + 1,
            3079,
            pqdslln.cli._CSV_ROWS,
            pqdslln.cli._CSV_ROWS + 1,
        ],
    )
    @given(patterns=st.lists(st.one_of(INT_PATTERN, FLOAT_PATTERN), min_size=1, max_size=5))
    def test_bytes_match_csv_module(self, n_rows, patterns):
        columns = [list(itertools.islice(itertools.cycle(pattern), n_rows)) for pattern in patterns]
        header = [f"c{i}" for i in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            pqdslln.cli._write_csv(path, header, [np.array(column) for column in columns])
            assert path.read_bytes() == csv_module_bytes(header, zip(*columns))

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_float_text_is_repr(self, bits):
        floats = np.array(bits, dtype=np.uint64).view(np.float64)
        assert numpy_cells(floats) == [repr(x) for x in floats.tolist()]

    def test_float_text_is_repr_at_edges(self):
        got = numpy_cells(FLOAT_EDGES)
        assert len(got) == len(FLOAT_EDGES)
        assert [(x, text) for x, text in zip(FLOAT_EDGES.tolist(), got) if text != repr(x)] == []

    def test_int_text_is_str_at_edges(self):
        assert numpy_cells(INT_EDGES) == [str(n) for n in INT_EDGES.tolist()]


class TestConfigFile:
    """The run configuration besides the model: one process serving many requests, outdir and format."""

    def test_requests_in_one_process_match_separate_runs(self, tmp_path):
        commands = [
            ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "2", "--v", "2", "--method", "all"],
            # inherits no value of the request before it
            ["g", "eval", "--theta", "0.5", "--r", "1.5", "--s", "2.5", "--u", "7", "--v", "1.5", "--method", "closed"],
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "50"],
        ]
        env = child_env()
        for i, argv in enumerate(commands):
            assert run_cli(argv, tmp_path / f"same{i}") == EXIT_OK
        assert pqdslln.cli._build_parser() is pqdslln.cli._build_parser()
        for i, argv in enumerate(commands):
            separate = tmp_path / f"separate{i}"
            done = subprocess.run(
                [sys.executable, "-m", "pqdslln.cli", *argv, "--outdir", str(separate)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == EXIT_OK, done.stderr
            names = sorted(path.name for path in separate.iterdir())
            assert names == sorted(path.name for path in (tmp_path / f"same{i}").iterdir())
            for name in names:
                assert (tmp_path / f"same{i}" / name).read_bytes() == (separate / name).read_bytes(), (argv, name)
        assert read_json(tmp_path / "same1" / "manifest.json")["parameters"] == {
            "theta": 0.5, "r": 1.5, "s": 2.5, "u": 7.0, "v": 1.5, "method": "closed"
        }

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PQDSLLN_OUTDIR", str(tmp_path / "envbase"))
        code = main(G_CLOSED)
        assert code == EXIT_OK
        assert (tmp_path / "envbase" / "g-eval" / "result.json").exists()

    def test_format_json_only(self, tmp_path):
        code = run_cli(
            [
                "condition", "check", "--kind", "cs11", "--p", "1", "--mu", "0.2",
                "--nu", "-1.5", "--N", "50", "--format", "json",
            ],
            tmp_path,
        )
        assert code == EXIT_OK
        assert (tmp_path / "result.json").exists()
        assert not (tmp_path / "terms.csv").exists()


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["g", "eval", "--bogus", "1"]) == 2
        assert "[parameter]" in capsys.readouterr().err

    def test_unknown_flag_names_the_subcommand(self, capsys):
        argv = ["g", "eval", "--theta", "1", "--r", "1", "--s", "1", "--u", "2", "--v", "2", "--bogus", "1"]
        assert main(argv) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[parameter] g eval: unrecognized arguments: --bogus 1" in err

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["g", "eval", "--theta", "1"]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[parameter] g eval:" in err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "pqdslln" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--config", "a.cfg"), ("--quad-tol", "1e-9"), ("--max-panels", "2")])
    def test_retired_flag_is_unrecognized(self, tmp_path, capsys, monkeypatch, flag, value):
        # no command reads a config file, and g eval keeps one quadrature tolerance and panel budget
        monkeypatch.chdir(tmp_path)
        Path("a.cfg").write_text("u = 5\n")
        assert run_cli([*G_CLOSED, flag, value], tmp_path / "run") == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"[parameter] g eval: unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_closed_stdout_is_not_a_failure(self, tmp_path):
        # the reader goes away before the first line: every file is written by then
        child = subprocess.Popen(
            [sys.executable, "-m", "pqdslln.cli", *G_CLOSED, "--outdir", str(tmp_path)],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=30), err) == (EXIT_OK, b"")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["manifest.json", "result.json"]

    def test_warning_is_one_line(self, tmp_path):
        # the strengths of this schedule sum past 1 at n = 256, so the model is rescaled with a warning
        argv = ["simulate", "slln", "--p", "1.2", "--alpha", "2", "--theta-spec", "power:-0.3,-1.2,0.25",
                "--n-max", "256", "--replicates", "2", "--c", "2"]
        done = subprocess.run(
            [sys.executable, "-m", "pqdslln.cli", *argv, "--outdir", str(tmp_path)],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr.startswith("pqdslln: warning: pairwise strengths sum to ") and done.stderr.count("\n") == 1


class TestReadmeExamples:
    def test_every_cli_example_runs(self, tmp_path, monkeypatch):
        block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("pqdslln ")]
        assert len(commands) == 10
        monkeypatch.chdir(tmp_path)  # the rerun example reads runs/condition-check/manifest.json
        monkeypatch.delenv("PQDSLLN_OUTDIR", raising=False)
        for argv in commands:
            assert main(argv) == EXIT_OK, argv

    def test_exit_code_example_exits_3(self, tmp_path, monkeypatch):
        bullet = next(item for item in README.read_text().split("\n* ") if item.startswith("Exit codes:"))
        command = re.search(r"`(pqdslln [^`]+)`", bullet).group(1)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PQDSLLN_OUTDIR", raising=False)
        assert main(shlex.split(command)[1:]) == EXIT_NUMERIC
