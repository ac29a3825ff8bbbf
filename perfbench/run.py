"""Benchmark of the pqdslln CLI: three seeded request mixes, verified outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload series-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in its own process

Each workload is a closed loop with one client: this process calls
``pqdslln.cli.main(argv)`` in-process, one request after another, on the
request list that ``workloads.build`` generates from the seed.  Every request
writes its real result.json, CSV tables and manifest to a scratch directory
under ``.perfbench_work/``; the outputs are verified after the timed loop.

``--trace 0`` measures the end-to-end metrics with tracing off.  It sends
the list once, then every request but the slowest ``REPEAT_SKIP`` share
``REPEATS[workload]`` more times, alternately in reverse and list order.  Each
request's latency is the median of its sends, so that a slow or fast
stretch of a shared machine does not set the percentiles, and ``wall_s`` is
the sum of these latencies: the time the list takes with every request at
its median.
The list is sized so that the sends together take about
``run_seconds`` of BENCHMARK.json;
``--seconds`` is accepted but does not resize the run, so that two commits
always measure the same work.  Every send must write the same bytes as the
first.  The set-up probes (fresh
interpreters, see ``probe_setup``) are spread through the sends, between
requests, outside every request's timing.
``--trace 1`` runs the list once untraced, once traced (per-layer metrics,
spans written to ``.perfbench_out/``) and its simulate requests once more at
``--workers 1``; the three must write the same bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
when the run completed; nonzero, with no result line, when the
checkout holds no ``src/pqdslln``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# After one pass over the whole list, every request but the slowest
# REPEAT_SKIP share is sent REPEATS[workload] more times, so that every
# latency near the median and the p90 is the median of 1 + REPEATS sends.
# The lists whose repeated requests take longer are repeated fewer times.
REPEATS = {"series-scan": 4, "oracle-check": 3, "slln-sim": 2}
REPEAT_SKIP = 0.05


def _import_program():
    """Import pqdslln from this checkout's src/, never from an installed copy."""
    if not (SRC / "pqdslln" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'pqdslln'} is missing")
    sys.path.insert(0, str(SRC))
    import pqdslln.cli

    if Path(pqdslln.cli.__file__).resolve().parent != (SRC / "pqdslln").resolve():
        raise SystemExit(f"perfbench: imported pqdslln from {pqdslln.cli.__file__}, not from {SRC}")
    return pqdslln.cli


# ------------------------------------------------------------------ set-up time


def probe_setup(workload: str, seed: int) -> float:
    """Time from a fresh interpreter until the CLI is imported and the request list built."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
    return elapsed


# ------------------------------------------------------------------ client


def _size(request) -> float:
    """A rough work measure, for choosing small requests."""
    p = request.params
    return p.get("N") or p.get("n_max", 0) * p.get("replicates", 1) or p.get("u", 0) * p.get("v", 0)


class Client:
    """Sends a request list to the CLI one request at a time and records what happened."""

    def __init__(self, cli, requests, scratch: Path):
        self.cli, self.requests, self.scratch = cli, requests, scratch

    def warm_up(self) -> None:
        """Send the smallest request of each subcommand once, untimed, so lazy imports are done."""
        smallest = {}
        for i, request in enumerate(self.requests):
            size = _size(request)
            if request.op not in smallest or size < smallest[request.op][0]:
                smallest[request.op] = (size, i)
        self.run_pass("warmup", indices=sorted(i for _, i in smallest.values()))
        shutil.rmtree(self.scratch / "warmup", ignore_errors=True)

    def run_pass(self, tag: str, indices=None, extra=(), before_each=None) -> dict:
        """Send the requests once; time spent in ``before_each`` is left out of the wall time."""
        indices = range(len(self.requests)) if indices is None else indices
        base = self.scratch / tag
        latencies, codes, messages = {}, {}, {}
        start, paused = time.perf_counter(), 0.0
        for i in indices:
            if before_each is not None:
                t0 = time.perf_counter()
                before_each(i)
                paused += time.perf_counter() - t0
            argv = [*self.requests[i].argv, *extra, "--outdir", str(base / f"{i:03d}")]
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = self.cli.main(argv)
                except Exception:  # an untyped crash is a failed request, not a benchmark crash
                    traceback.print_exc(file=sink)
                    code = None
            latencies[i] = time.perf_counter() - t0
            codes[i] = code
            if code != 0:
                messages[i] = sink.getvalue()[-400:].strip()
        wall = time.perf_counter() - start - paused
        return {"wall": wall, "latencies": latencies, "codes": codes, "messages": messages, "base": base}


def _digests(base: Path) -> dict:
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(base.rglob("*")) if p.is_file()}


def _same_bytes(first: dict, later: dict, failed: set) -> None:
    """Mark requests whose outputs in a later pass differ from the first pass."""
    a, b = _digests(first["base"]), _digests(later["base"])
    for i in later["codes"]:
        prefix = f"{i:03d}/"
        if {k: v for k, v in a.items() if k.startswith(prefix)} != {k: v for k, v in b.items() if k.startswith(prefix)}:
            failed.add(i)
        if later["codes"][i] != first["codes"][i]:
            failed.add(i)


def _verify(cli, requests, first: dict, unstable: set) -> dict:
    """Classify each request of the first pass; see verify.py for the states."""
    import workloads
    from verify import Verifier

    schema = Path(cli.__file__).parent / "schemas" / "outputs.schema.json"
    verifier = Verifier(schema, workloads.load_pins())
    states = {"ok": 0, "wrong": 0, "refused": 0, "failed": 0}
    notes = []
    for i, request in enumerate(requests):
        outcome = verifier.check(request, first["base"] / f"{i:03d}", first["codes"][i])
        if i in unstable:
            outcome.status = "failed"
            outcome.notes.append("a later pass wrote different bytes or exit code")
        states[outcome.status] += 1
        if i in first["messages"]:
            outcome.notes.append(first["messages"][i])
        if outcome.status != "ok":
            notes.append(f"  [{outcome.status}] {' '.join(request.argv)}\n      " + "\n      ".join(outcome.notes))
    return {"states": states, "notes": notes}


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, so that it moves smoothly, instead of jumping, when
    two requests of neighbouring cost swap places."""
    from scipy import special

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = special.betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def _bytes_written(base: Path) -> int:
    return sum(p.stat().st_size for p in base.rglob("*") if p.is_file())


# ------------------------------------------------------------------ workloads


def run_end_to_end(cli, requests, scratch: Path, workload: str, seed: int) -> tuple[dict, dict]:
    client = Client(cli, requests, scratch)
    client.warm_up()
    probe_setup(workload, seed)  # warms the file cache; not counted
    order = list(range(len(requests)))
    skipped = math.ceil(REPEAT_SKIP * len(order))
    repeats = REPEATS[workload]
    # one probe every total / SETUP_PROBES requests sent, so that no slow
    # stretch of the machine covers them all
    total = len(order) + repeats * (len(order) - skipped)
    probe_at = {round(k * total / SETUP_PROBES) for k in range(SETUP_PROBES)}
    setup, sent = [], [0]

    def between(i: int) -> None:
        if sent[0] in probe_at:
            setup.append(probe_setup(workload, seed))
        sent[0] += 1

    def send(tag: str, indices: list, k: int) -> dict:
        return client.run_pass(tag, indices=indices[:: 1 if k % 2 == 0 else -1], before_each=between)

    first = send("pass", order, 0)
    # The slowest requests lie above the p90 whatever their later sends give,
    # so they are not sent again; sending them would double the run.
    repeated = sorted(order, key=first["latencies"].get)[: len(order) - skipped]
    sends = [first] + [send(f"repeat{k}", repeated, k + 1) for k in range(repeats)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unstable: set = set()
    for later in sends[1:]:
        _same_bytes(sends[0], later, unstable)
    check = _verify(cli, requests, sends[0], unstable)
    latency = [statistics.median(run["latencies"][i] for run in sends if i in run["latencies"]) for i in order]
    p50, p90 = quantile(latency, 0.5), quantile(latency, 0.9)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (math.fsum(latency), "s"),
        "latency_p50_s": (float(p50), "s"),
        "latency_p90_s": (float(p90), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verified_ratio": (check["states"]["ok"] / len(requests), "1"),
    }
    return metrics, dict(check, samples=len(requests))


def run_traced(cli, requests, scratch: Path, trace_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer

    client = Client(cli, requests, scratch)
    client.warm_up()
    plain = client.run_pass("plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = client.run_pass("traced", before_each=lambda i: setattr(tracer, "request", i))
    finally:
        tracer.uninstall()
    simulate = [i for i, r in enumerate(requests) if r.op == "simulate slln"]
    single = client.run_pass("workers1", indices=simulate, extra=("--workers", "1"))
    unstable: set = set()
    _same_bytes(plain, traced, unstable)
    _same_bytes(plain, single, unstable)
    check = _verify(cli, requests, plain, unstable)
    tracer.dump(trace_path)

    layers = tracer.layer_totals()
    counters = tracer.counters
    metrics = {}

    def calls_and_self(name: str, calls: bool = True) -> None:
        if calls:
            metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (layers[name]["self_s"], "s")

    for name in (
        "specfun.gauss_2f1",
        "specfun.gamma",
        "gfun.g_closed_bracket",
        "gfun.g_factor",
        "gfun.g_numeric",
        "quadrature.adaptive_quad",
        "quadrature.adaptive_quad_2d",
        "copulas.GfmCopula.cdf",
        "conditions.condition_terms",
        "borel_cantelli.renyi_lamperti_ratios",
        "borel_cantelli.epsilon_bracket_check",
        "simulate.sample_uniform_paths",
    ):
        calls_and_self(name)
    for name in (
        "marginals.ParetoMarginal.cdf",
        "marginals.ParetoMarginal.quantile",
        "conditions.classify_series",
        "simulate.from_power_schedule",
        "simulate.run_slln",
        "cli.main",
        "cli.dispatch",
    ):
        calls_and_self(name, calls=False)
    nodes = counters["quadrature.integrand_nodes"]
    quad_s = counters["quadrature.inclusive_ns"] * 1e-9
    steps = counters["simulate.coord_steps"]
    loop_s = counters["simulate.loop_ns"] * 1e-9
    default_s = sum(plain["latencies"][i] for i in simulate)
    metrics.update(
        {
            "quadrature.integrand_nodes": (nodes, "count"),
            "quadrature.nodes_per_s": (nodes / quad_s if quad_s else 0.0, "1/s"),
            "quadrature.bound_over_tol_max": (counters["quadrature.bound_over_tol_max"], "1"),
            "quadrature.errors": (counters["quadrature.errors"], "count"),
            "conditions.terms": (counters["conditions.terms"], "count"),
            "conditions.terms_useful_ratio": (tracer.condition_useful_ratio(), "1"),
            "simulate.coord_steps": (steps, "count"),
            "simulate.steps_per_s": (steps / loop_s if loop_s else 0.0, "1/s"),
            # 1.0 when the workload sends no simulate request: no thread can gain anything
            "simulate.thread_gain": (single["wall"] / default_s if simulate else 1.0, "1"),
            "cli.bytes_written": (_bytes_written(traced["base"]), "B"),
            "trace.overhead_s": (traced["wall"] - plain["wall"], "s"),
        }
    )
    return metrics, dict(check, samples=len(requests))


def run_workload(name: str, seed: int, trace: bool) -> dict:
    import workloads

    cli = _import_program()
    requests = workloads.build(name, seed)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        if trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            metrics, info = run_traced(cli, requests, scratch, out / f"trace-{name}-seed{seed}.json")
        else:
            metrics, info = run_end_to_end(cli, requests, scratch, name, seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    states = info["states"]
    return {
        "workload": name,
        "correct": states["failed"] == 0,
        "attempted": len(requests),
        "failed": states["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def _report(run: dict) -> None:
    info = run["info"]
    print(f"{run['workload']}: {run['attempted']} requests, {info['samples']} latency samples")
    print("  states: " + ", ".join(f"{k}={v}" for k, v in info["states"].items()))
    for line in info["notes"]:
        print(line)
    for name, metric in run["metrics"].items():
        print(f"  {name:58s} {metric['value']:.6g} {metric['unit']}")


def _run_all(args) -> int:
    """Every workload in a fresh process of its own, so that none inherits another's peak_rss_mb."""
    import workloads

    runs = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        runs.append((name, json.loads(lines[-1])))
    summary = {
        "correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": {f"{name}/{k}": v for name, r in runs for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="series-scan, oracle-check, slln-sim or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="accepted; a run is one pass over the list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:  # set-up probe: import the CLI, build the request list, say so
        _import_program()
        import workloads

        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    run = run_workload(args.workload, args.seed, bool(args.trace))
    _report(run)
    print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
