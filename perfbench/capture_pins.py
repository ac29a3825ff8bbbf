"""Capture pins.json: simulate output digests and g eval cost ranks.

Run once, from the root of a checkout of the commit whose outputs are the
reference::

    python3 perfbench/capture_pins.py

For every simulate request in the catalogue it stores the sha256 of the
``paths.csv`` the CLI writes; the benchmark fails any later run whose paths
differ.  For every g eval request in the catalogue it stores the number of
integrand nodes the adaptive quadrature evaluates, which only ranks the
catalogue into cost strata (see workloads.py).  Re-capturing after a change
would hide the change: do it only when the catalogue itself changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from verify import digest  # noqa: E402


def _call(cli, request, outdir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([*request.argv, "--outdir", str(outdir)])


def main() -> int:
    cli = run._import_program()
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pins-", dir=work))
    pins = {"simulate": {}, "g_eval_nodes": {}}
    try:
        for regime, requests in workloads.simulate_catalogue().items():
            for i, request in enumerate(requests):
                outdir = scratch / f"{regime}-{i}"
                if _call(cli, request, outdir) != 0:
                    raise SystemExit(f"simulate catalogue entry failed: {' '.join(request.argv)}")
                pins["simulate"][request.pin] = digest(outdir / "paths.csv")
        tracer = Tracer()
        tracer.install()
        try:
            for i, request in enumerate(workloads.g_eval_catalogue()):
                before = tracer.counters["quadrature.integrand_nodes"]
                code = _call(cli, request, scratch / f"g-{i}")
                pins["g_eval_nodes"][request.pin] = int(tracer.counters["quadrature.integrand_nodes"] - before)
                print(f"g eval {i}: exit {code}, {pins['g_eval_nodes'][request.pin]} nodes", flush=True)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.PINS_PATH}: {len(pins['simulate'])} digests, {len(pins['g_eval_nodes'])} node counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
