"""Golden replay: every committed run reproduces its captured bytes.

Each directory under ``tests/golden/`` holds the ``manifest.json`` and every
output of one CLI run.  Two routes must reproduce those files byte for
byte: replaying the manifest through ``rerun``, and running the original
command line again (which also pins how flags become manifest parameters).

To add a case, add its command line to ``CASES`` and capture it from a
commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_golden.py <case>

Capture refuses a case whose directory already exists; to recapture one,
delete its directory first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqdslln.cli
from pqdslln.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

_SERIES = ["--p", "1", "--mu", "0.2", "--nu", "-1.5"]

CASES = {
    "g-eval-all": ["g", "eval", "--theta", "1", "--r", "2", "--s", "1", "--u", "3", "--v", "3"],
    "g-eval-closed": ["g", "eval", "--theta", "0.5", "--r", "1.5", "--s", "2.5", "--u", "7", "--v", "1.5", "--method", "closed"],
    "condition-cs11": ["condition", "check", "--kind", "cs11", *_SERIES, "--N", "300"],
    "condition-nec12": ["condition", "check", "--kind", "nec12", *_SERIES, "--r", "1.5", "--s", "2.5", "--N", "300"],
    "condition-l1": ["condition", "check", "--kind", "l1", "--p", "1.3", "--mu", "-0.1", "--nu", "-0.9", "--N", "300"],
    "condition-nec12-alpha": ["condition", "check", "--kind", "nec12", *_SERIES, "--alpha", "2.5", "--N", "40"],
    "condition-nec12-alpha1": ["condition", "check", "--kind", "nec12", *_SERIES, "--alpha", "1", "--N", "40"],
    "condition-csv-only": ["condition", "check", "--kind", "nec12", *_SERIES, "--N", "50", "--format", "csv"],
    "bc-ratio-zero": ["bc", "ratio", "--alpha", "1", "--p", "1", "--n-grid", "10,100,1000"],
    "bc-ratio-power": [
        "bc", "ratio", "--alpha", "2", "--p", "1.2", "--theta-spec", "power:0.1,-1.2",
        "--r", "1.5", "--s", "2.5", "--n-grid", "log:5000:9",
    ],
    "bc-bracket-zero": ["bc", "bracket", "--alpha", "2", "--p", "1", "--k", "2", "--j", "3", "--eps", "2"],
    "bc-bracket-power": [
        "bc", "bracket", "--alpha", "1.5", "--p", "1.2", "--theta-spec", "power:0.1,-1.2",
        "--r", "1.5", "--s", "2.5", "--k", "3", "--j", "7", "--eps", "1.5",
    ],
    "simulate-independent": [
        "simulate", "slln", "--p", "1", "--alpha", "2", "--n-max", "1024", "--replicates", "4", "--seed", "11",
    ],
    "simulate-exact": [
        "simulate", "slln", "--p", "1.2", "--alpha", "2", "--theta-spec", "power:-0.3,-1.2,0.25",
        "--n-max", "256", "--replicates", "3", "--seed", "5", "--c", "2",
    ],
    "simulate-window": [
        "simulate", "slln", "--p", "1.2", "--alpha", "2", "--theta-spec", "power:-0.3,-1.2",
        "--n-max", "512", "--replicates", "2", "--seed", "7", "--c", "2", "--window", "16",
    ],
    # the two cases below span several sampler blocks of 2^18 uniforms
    "simulate-window-blocks": [
        "simulate", "slln", "--p", "1.2", "--alpha", "2", "--theta-spec", "power:-0.3,-1.2,0.25",
        "--n-max", "8192", "--replicates", "40", "--window", "16", "--seed", "13", "--c", "2",
    ],
    # 64 dependent rows in one sampler block, each stepping through the recurrence on its own
    "simulate-exact-many": [
        "simulate", "slln", "--p", "1.2", "--alpha", "2", "--theta-spec", "power:-0.3,-1.2,0.25",
        "--n-max", "256", "--replicates", "64", "--seed", "23", "--c", "2",
    ],
    "simulate-independent-blocks": [
        "simulate", "slln", "--p", "1.5", "--alpha", "1.5", "--n-max", "16384", "--replicates", "40", "--seed", "17",
    ],
    "report-example": ["report", "example", *_SERIES, "--r", "1", "--s", "1", "--N", "200"],
}


def _assert_same_files(expected: Path, actual: Path) -> None:
    outputs = json.loads((expected / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in actual.iterdir()) == sorted(["manifest.json", *outputs])
    for name in ["manifest.json", *outputs]:
        assert (actual / name).read_bytes() == (expected / name).read_bytes(), name


def test_every_case_is_captured():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rerun_replays_golden_bytes(case, tmp_path):
    golden = GOLDEN / case
    assert main(["rerun", "--manifest", str(golden / "manifest.json"), "--outdir", str(tmp_path)]) == EXIT_OK
    _assert_same_files(golden, tmp_path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_line_reproduces_golden_bytes(case, tmp_path):
    assert main([*CASES[case], "--outdir", str(tmp_path)]) == EXIT_OK
    _assert_same_files(GOLDEN / case, tmp_path)


def test_rules_load_on_the_first_integral(tmp_path):
    # a process that never integrates loads neither numpy.polynomial nor fractions; g eval's
    # oracles make the Gauss-Legendre rules on first use, with the captured bytes
    code = (
        "import json, sys, pqdslln.cli\n"
        "loaded = lambda: sorted({'numpy.polynomial', 'fractions'} & set(sys.modules))\n"
        "before = loaded()\n"
        "status = pqdslln.cli.main([*json.loads(sys.argv[1]), '--outdir', sys.argv[2]])\n"
        "print(json.dumps([before, status, loaded()]))"
    )
    src = str(Path(pqdslln.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(CASES["g-eval-all"]), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], EXIT_OK, ["numpy.polynomial"]]
    _assert_same_files(GOLDEN / "g-eval-all", tmp_path)


if __name__ == "__main__":
    for name in sys.argv[1:]:
        if (GOLDEN / name).exists():
            raise SystemExit(f"{GOLDEN / name} exists; delete it to recapture {name}")
        if main([*CASES[name], "--outdir", str(GOLDEN / name)]) != EXIT_OK:
            raise SystemExit(f"capture of {name} failed")
