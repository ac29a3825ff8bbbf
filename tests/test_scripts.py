"""The experiment scripts run end to end as their own processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def test_slln_experiment(tmp_path):
    done = run_script("slln_experiment.py", "--n-max", "256", "--replicates", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "dependent regime" in done.stdout


def test_reproduce_example(tmp_path):
    done = run_script("reproduce_example.py", "--N", "50", "--outdir", str(tmp_path / "report"), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report" / "result.json").exists()
