"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from verify import Verifier  # noqa: E402

CLI = run._import_program()
SCHEMA = Path(CLI.__file__).parent / "schemas" / "outputs.schema.json"


def _small_mix() -> list:
    """A few cheap requests of every subcommand the workloads send."""
    picked = []
    for name in workloads.WORKLOADS:
        requests = workloads.build(name, 3)
        by_op = {}
        for request in requests:
            size = run._size(request)
            if request.op not in by_op or size < by_op[request.op][0]:
                by_op[request.op] = (size, request)
        picked += [request for _, request in by_op.values() if request.op != "g eval"]
    nodes = workloads.load_pins()["g_eval_nodes"]
    picked.append(min(workloads.g_eval_catalogue(), key=lambda r: nodes[r.pin]))
    return picked


@pytest.fixture
def scratch():
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_gives_the_same_request_list(name):
    first = [r.argv for r in workloads.build(name, 7)]
    assert first == [r.argv for r in workloads.build(name, 7)]
    assert first != [r.argv for r in workloads.build(name, 8)]
    assert len(first) >= 100  # p90 needs ten samples above it


def test_seed_changes_only_the_schedule_of_quadrature_requests():
    """oracle-check's quadrature requests differ between seeds in (mu, nu) alone."""

    def quadrature(seed):
        requests = [r for r in workloads.build("oracle-check", seed) if r.op != "bc bracket"]
        return requests, sorted(str({k: v for k, v in r.params.items() if k not in ("mu", "nu")}) for r in requests)

    (first, cost_a), (second, cost_b) = quadrature(7), quadrature(8)
    assert cost_a == cost_b
    assert {r.argv for r in first} != {r.argv for r in second}


def test_count_metrics_repeat_across_traced_runs(scratch):
    requests = _small_mix()
    runs = []
    for i in range(2):
        metrics, info = run.run_traced(CLI, requests, scratch / f"run{i}", scratch / f"trace{i}.json")
        assert info["states"]["failed"] == 0, info["notes"]
        runs.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")})
    assert runs[0] == runs[1]
    assert runs[0]["quadrature.integrand_nodes"] > 0
    assert runs[0]["simulate.coord_steps"] > 0
    assert runs[0]["conditions.terms"] > 0


def _one(request, outdir: Path) -> tuple:
    client = run.Client(CLI, [request], outdir)
    result = client.run_pass("p")
    assert result["codes"][0] == 0
    return Verifier(SCHEMA, workloads.load_pins()), result["base"] / "000"


def _corrupt_last_row(path: Path, column: int) -> None:
    """Change one value of the last CSV row by a relative 1e-3."""
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-3))
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_verifier_flags_a_corrupted_terms_csv(scratch):
    request = next(r for r in workloads.build("series-scan", 3) if r.op == "condition check" and r.params["N"] > 10)
    verifier, outdir = _one(request, scratch)
    assert verifier.check(request, outdir, 0).status == "ok"
    _corrupt_last_row(outdir / "terms.csv", column=1)
    outcome = verifier.check(request, outdir, 0)
    assert outcome.status == "failed", outcome.notes


def test_verifier_flags_a_corrupted_simulate_path(scratch):
    request = workloads.simulate_catalogue()["exact"][0]
    verifier, outdir = _one(request, scratch)
    assert verifier.check(request, outdir, 0).status == "ok"
    _corrupt_last_row(outdir / "paths.csv", column=2)
    outcome = verifier.check(request, outdir, 0)
    assert outcome.status == "failed", outcome.notes


def test_verifier_fails_a_wrong_answer_unlike_the_seed_defect(scratch):
    request = workloads._request("g eval", dict(workloads.G_EVAL_FIXED[1]))
    verifier, outdir = _one(request, scratch)
    assert verifier.check(request, outdir, 0).status == "wrong"  # the seed's missed peak
    path = outdir / "result.json"
    result = json.loads(path.read_text())
    methods = result["methods"]
    methods["numeric"] = methods["closed"] * (1.0 + 1e-3)  # above the oracle: no missed peak does that
    result["max_discrepancy"] = max(methods.values()) - min(methods.values())
    path.write_text(json.dumps(result))
    outcome = verifier.check(request, outdir, 0)
    assert outcome.status == "failed", outcome.notes
    assert "not a missed peak" in outcome.notes[-1]
