"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.  Monte Carlo criteria are seeded and therefore deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from pqdslln.borel_cantelli import EventSystem, epsilon_bracket_check, renyi_lamperti_ratios
from pqdslln.cli import main
from pqdslln.conditions import condition_terms, decay_exponent, majorant_sum, tail_condition, verdict_from_terms
from pqdslln.copulas import GfmCopula, PowerSchedule
from pqdslln.gfun import g_closed_bracket, g_factor, g_numeric
from pqdslln.marginals import ParetoMarginal
from pqdslln.simulate import MultivariateFgmModel, SlnnRun, _uniform_blocks, replicate_rng, run_slln

SEED = 20260810
RS_GRID = ((1.0, 1.0), (2.0, 1.0), (1.5, 2.0), (3.0, 3.0))
UV_GRID = (1.5, 2.0, 5.0, 20.0)


def _pass(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def test_criterion_01_closed_form_oracle_equivalence():
    start = time.perf_counter()
    m = ParetoMarginal(2.0)
    for r, s in RS_GRID:
        for theta in (0.25, 1.0):
            copula = GfmCopula(theta=theta, r=r, s=s)
            numerics = iter(g_numeric(copula, m, [(u, v) for u in UV_GRID for v in UV_GRID]))
            for u in UV_GRID:
                for v in UV_GRID:
                    closed = theta * g_closed_bracket(r, s, m, u) * g_closed_bracket(r, s, m, v)
                    numeric = next(numerics)
                    assert abs(closed - numeric) <= 1e-6 * max(1.0, abs(numeric))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(1, "closed-form G oracle equivalence")


def test_criterion_02_r1s1_symbolic_check():
    m = ParetoMarginal(2.0)
    us = (1.1, 2.0, 10.0, 1e3)
    for u, factor in zip(us, g_factor(1.0, 1.0, m, us)):
        exact = 2.0 / 3.0 - 1.0 / u + 1.0 / (3.0 * u**3)
        assert abs(factor - exact) <= 1e-10
        assert abs(g_closed_bracket(1.0, 1.0, m, u) - exact) <= 1e-10
    _pass(2, "r=s=1 symbolic factor")


def test_criterion_03_moment_values():
    m = ParetoMarginal(2.0)
    for p in (1.0, 1.2, 1.5, 1.9):
        assert m.abs_moment(p) == pytest.approx(2.0 / (2.0 - p), rel=1e-14)
    assert m.abs_moment(2.0) == math.inf
    rng = replicate_rng(SEED, 0)
    x = m.quantile(rng.random(10**6))
    xp = x**0.9
    se = float(np.std(xp, ddof=1)) / math.sqrt(xp.size)
    assert abs(float(np.mean(xp)) - m.abs_moment(0.9)) <= 4.0 * se
    _pass(3, "moment values and Monte Carlo mean")


def test_criterion_04_example_convergence_chain():
    start = time.perf_counter()
    schedule = PowerSchedule(mu=0.2, nu=-1.5)
    schedule.check_window(1.0)
    m = ParetoMarginal(2.0)
    j_values, terms = condition_terms("nec12", 1.0, schedule, 1.0, 1.0, m, 2000)
    exponent = decay_exponent("nec12", 1.0, schedule, 1.0, m)
    assert verdict_from_terms(j_values, terms, exponent).verdict == "converges"
    bound = majorant_sum(1.0, 0.2, -1.5, 1.0, 1.0, m, 2000)
    assert bound.c_const == pytest.approx(4.0 / 9.0, rel=1e-12)
    partial_cum = np.cumsum(terms)
    majorant_cum = bound.c_const * np.cumsum(j_values.astype(float) ** bound.exponent)
    assert np.all(partial_cum <= majorant_cum + 1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(4, "example convergence chain with majorant")


def test_criterion_05_termwise_weight_domination():
    # j^(-2/p) G <= (kj)^(-1/p) G for all 1 <= k < j <= 500: with G >= 0 this
    # is the weight inequality j^(-1/p) <= k^(-1/p); checked on full pair grids
    for p, mu, nu in ((1.0, 0.2, -1.5), (1.5, -0.1, -1.0)):
        PowerSchedule(mu=mu, nu=nu).check_window(p)
        idx = np.arange(1, 501, dtype=float)
        b = np.array([g_closed_bracket(1.0, 1.0, ParetoMarginal(2.0), float(k) ** (1.0 / p)) if k > 1 else 0.0 for k in idx])
        theta = np.power.outer(idx**mu, idx**nu)  # theta[k-1, j-1] = k^mu j^nu
        g = theta * np.outer(b, b)
        k_col = idx[:, None]
        j_row = idx[None, :]
        lhs = j_row ** (-2.0 / p) * g
        rhs = (k_col * j_row) ** (-1.0 / p) * g
        upper = np.triu_indices(500, k=1)
        assert np.all(lhs[upper] <= rhs[upper] + 1e-18)
    _pass(5, "termwise necessary-weight domination")


def test_criterion_06_tail_moment_equivalence():
    for alpha in (0.8, 1.0, 1.5, 2.0, 3.0):
        m = ParetoMarginal(alpha)
        for p in (1.0, 1.2, 1.5, 1.9):
            verdict = tail_condition(p, m, 2000)
            assert (verdict.verdict == "converges") == math.isfinite(m.abs_moment(p))
    basel = tail_condition(1.0, ParetoMarginal(2.0), 10**6)
    zeta2 = math.pi**2 / 6.0
    assert abs(basel.partial_sum - zeta2) <= 1e-3
    assert abs(basel.partial_sum + basel.tail_estimate - zeta2) <= 1e-3
    _pass(6, "tail-sum / moment equivalence")


def test_criterion_07_proof_machinery_inequalities():
    m2 = ParetoMarginal(2.0)
    dependent = EventSystem(p=1.0, marginal=m2, schedule=PowerSchedule(mu=0.2, nu=-1.5))
    independent = EventSystem(p=1.0, marginal=m2)
    for es in (independent, dependent):
        for k in (2, 4, 9, 16):
            for j in (3, 8, 27):
                for eps in (1.25, 1.5, 2.0, 4.0):
                    assert epsilon_bracket_check(es, k, j, eps).holds

    # the ceiling-scaled tail-ratio chain
    # 1 <= sum_{k<=n} P{eps X > k^(1/p)} / sum_{k<=n} P{X > k^(1/p)} <= eps^p + eps^p / sum_{k<=n} P{X > k^(1/p)}
    for alpha in (1.0, 2.0):
        for p in (1.0, 1.5):
            m = ParetoMarginal(alpha)
            for eps in (1.5, 2.0, 3.0):
                for n in (10**2, 10**4):
                    t = np.arange(1, n + 1, dtype=float) ** (1.0 / p)
                    denom = math.fsum(m.survival(t))
                    ratio = math.fsum(m.survival(t / eps)) / denom
                    assert 1.0 <= ratio <= eps**p + eps**p / denom

    harmonic = EventSystem(p=1.0, marginal=ParetoMarginal(1.0))
    n = 10**4
    ks = np.arange(1, n + 1, dtype=float)
    h1 = math.fsum(1.0 / ks)
    h2 = math.fsum(1.0 / ks**2)
    expected = 1.0 + (h1 - h2) / h1**2
    ratio = renyi_lamperti_ratios(harmonic, [n])[0]
    assert abs(ratio - expected) <= 1e-10
    assert ratio <= 1.1
    _pass(7, "proof-machinery inequalities")


def test_criterion_08_slln_desk_scale():
    start = time.perf_counter()
    convergent = SlnnRun(
        p=1.0, marginal=ParetoMarginal(2.0), model=None, n_max=2**17, replicates=32, seed=SEED, c=2.0
    )
    report = run_slln(convergent)
    assert report.max_abs_m()[-1] < 0.2
    med = report.median_abs_m()
    from_idx = list(report.checkpoints).index(1024)
    violations = sum(1 for a, b in zip(med[from_idx:], med[from_idx + 1 :]) if b >= a)
    assert violations <= 1

    divergent = SlnnRun(
        p=1.0, marginal=ParetoMarginal(1.0), model=None, n_max=2**17, replicates=32, seed=SEED, c=0.0
    )
    assert np.max(np.abs(run_slln(divergent).m_values[:, -3:])) > 1.0  # the trailing checkpoints
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _pass(8, "seeded SLLN demonstration")


def test_criterion_09_sampler_fidelity():
    model = MultivariateFgmModel.from_power_schedule(2, PowerSchedule(0.0, 0.0, 1.0))
    rng = replicate_rng(SEED, 1)
    n_pairs = 10**5
    u = next(_uniform_blocks(model, [rng] * n_pairs, 2, np.empty((n_pairs, 2))))[1]
    copula = GfmCopula(theta=1.0, r=1.0, s=1.0)
    grid = (1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0, 4.0 / 6.0, 5.0 / 6.0)
    for ua in grid:
        for vb in grid:
            target = copula.cdf(ua, vb)
            hit = float(np.mean((u[:, 0] <= ua) & (u[:, 1] <= vb)))
            se = math.sqrt(target * (1.0 - target) / n_pairs)
            assert abs(hit - target) <= 3.0 * se

    m2 = ParetoMarginal(2.0)
    threshold = math.sqrt(-math.log(0.001 / 2.0) / 2.0) / math.sqrt(n_pairs)
    for col in (0, 1):
        stat = scipy.stats.kstest(m2.quantile(u[:, col]), m2.cdf).statistic
        assert stat < threshold

    n, replicates = 10**4, 1000
    for alpha in (1.0, 2.0):
        marginal = ParetoMarginal(alpha)
        expected = math.fsum(np.arange(1, n + 1, dtype=float) ** (-alpha))
        finals = np.empty(replicates)
        for rep in range(replicates):
            x = marginal.quantile(replicate_rng(SEED + 2, rep).random(n))
            finals[rep] = np.count_nonzero(x > np.arange(1, n + 1, dtype=float))  # E_n at p = 1
        se = float(np.std(finals, ddof=1)) / math.sqrt(replicates)
        assert abs(float(np.mean(finals)) - expected) <= 3.0 * se
    _pass(9, "sampler fidelity")


def test_criterion_10_cli_reproducibility(tmp_path):
    cases = [
        (
            "condition",
            ["condition", "check", "--kind", "nec12", "--p", "1", "--mu", "0.2", "--nu", "-1.5", "--N", "400"],
            ("manifest.json", "result.json", "terms.csv"),
        ),
        (
            "simulate",
            [
                "simulate", "slln", "--p", "1", "--alpha", "2", "--theta-spec", "power:-0.3,-1.2,0.25",
                "--n-max", "512", "--replicates", "4", "--seed", str(SEED), "--c", "2",
            ],
            ("manifest.json", "result.json", "paths.csv"),
        ),
    ]
    for label, args, files in cases:
        first = tmp_path / f"{label}-first"
        second = tmp_path / f"{label}-second"
        third = tmp_path / f"{label}-third"
        assert main([*args, "--outdir", str(first), "--workers", "1"]) == 0
        assert main([*args, "--outdir", str(second), "--workers", "4"]) == 0
        assert (
            main(["rerun", "--manifest", str(first / "manifest.json"), "--outdir", str(third), "--workers", "2"])
            == 0
        )
        for name in files:
            reference = (first / name).read_bytes()
            assert (second / name).read_bytes() == reference
            assert (third / name).read_bytes() == reference
    manifest = json.loads((tmp_path / "condition-first" / "manifest.json").read_text())
    assert "workers" not in manifest["parameters"]
    _pass(10, "CLI reproducibility")
