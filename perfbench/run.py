"""SGCL repository benchmark: four workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload graph_pretrain --seed 1 \
        --seconds 8 --trace 0

Each run starts one fresh process per repetition (``REPEATS`` without
tracing; with ``--trace 1`` one untraced and one traced repetition of the
same work), collects their raw samples and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is the host-noise
sentinel. See perfbench/README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("graph_pretrain", "node_pretrain", "fleet_embed",
                  "ingest_refresh")
REPEATS = 3
RUN_BUDGET_S = 170             # every repetition of a run ends by then
SCRATCH = ".perfbench_tmp"
TRACE_DIR = ".perfbench_out"
# Nominal cost of one unit of work on a 2-core x86 VM, and the units one
# repetition may do: each repetition does a fixed amount of work sized so
# that a run measures about ``--seconds`` seconds.
UNIT_SECONDS = {
    "graph_pretrain": 2.8,     # one epoch of 1113 PROTEINS graphs
    "node_pretrain": 0.7,      # one epoch of 8 batches x 8 walk subgraphs
    "fleet_embed": 0.0025,     # one 32-graph request
    "ingest_refresh": 0.9,     # three 64-graph ingests and one refresh
}
UNIT_RANGE = {
    "graph_pretrain": (1, 20),
    "node_pretrain": (1, 80),
    "fleet_embed": (340, 16000),   # >= 1000 requests per run for the p99
    "ingest_refresh": (1, 15),     # PROTEINS at scale 2.0 holds 34 batches
}
ENV = {"REPRO_WORKERS": "1", "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ----------------------------------------------------------------------
# Host-noise sentinel (no repro code involved)
# ----------------------------------------------------------------------
def _calibrate_ms() -> float:
    """Median time of a fixed Python + NumPy loop, in milliseconds."""
    import numpy as np

    matrix = np.random.default_rng(0).normal(size=(96, 96))
    samples = []
    for _ in range(7):
        started = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        product = matrix
        for _ in range(40):
            product = np.tanh(product @ matrix)
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Child: one repetition in a fresh process
# ----------------------------------------------------------------------
def child(workload: str, seed: int, work: int, traced: bool,
          trace_out: str | None) -> dict:
    calib_ms = _calibrate_ms()
    import workloads  # imports every repro module before the clocks start

    tracer = None
    if traced:
        from tracing import LayerTracer

        tracer = LayerTracer().install()
    session = workloads.Session(tracer)
    scratch = ROOT / SCRATCH
    scratch.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        started = time.perf_counter()
        result = workloads.WORKLOADS[workload](seed, work, root, session)
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(root, ignore_errors=True)
    result["wall_s"] = wall - session.check_s
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["host"] = {**session.host, "host.calib_ms": calib_ms}
    if tracer is not None:
        result["layers"] = tracer.metrics(result["served_rows"],
                                          result["cache_hits"],
                                          result["cache_lookups"])
        result["unattributed_s"] = result["wall_s"] - tracer.attributed_s()
        if trace_out:
            tracer.write_chrome_trace(trace_out)
    return result


# ----------------------------------------------------------------------
# Parent: orchestrate repetitions and aggregate
# ----------------------------------------------------------------------
def _run_child(workload: str, seed: int, work: int, traced: bool,
               trace_out: Path | None, deadline: float) -> dict:
    env = {**os.environ, **ENV, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--work", str(work), "--trace", str(int(traced))]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    completed = subprocess.run(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited with "
                           f"{completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _correctness(reps: list[dict]) -> list[str]:
    errors = [e for rep in reps for e in rep["errors"]]
    first = reps[0]["fingerprint"]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["fingerprint"] != first:
            errors.append(f"repetition {i} differs from repetition 0 "
                          f"(seeded outputs must be identical)")
    return errors


def end_to_end(reps: list[dict]) -> dict:
    latencies = [x for rep in reps for x in rep["latencies"]]
    golive = [x for rep in reps for x in rep["golive"]]
    values = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "throughput": (sum(r["items"] for r in reps)
                       / sum(r["busy_s"] for r in reps), "items/s"),
        "latency_p50_ms": (_percentile(latencies, 50) * 1e3, "ms"),
        "latency_p99_ms": (_percentile(latencies, 99) * 1e3, "ms"),
        "golive_p50_s": (_percentile(golive, 50), "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    from tracing import layer_metric_names

    values = dict(traced["layers"])
    for name in WORKLOAD_NAMES:
        values[f"{name}.unattributed_s"] = \
            traced["unattributed_s"] if name == workload else 0.0
    values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
    values.update(_host(traced, untraced))
    units = dict(layer_metric_names())
    units.update({f"{name}.unattributed_s": "s" for name in WORKLOAD_NAMES})
    units.update({"trace.overhead": "ratio", "host.steal_ms": "ms",
                  "host.cpu_per_wall": "ratio", "host.calib_ms": "ms"})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _host(*reps: dict) -> dict:
    return {
        "host.steal_ms": sum(r["host"]["host.steal_ms"] for r in reps),
        "host.cpu_per_wall": statistics.median(
            r["host"]["host.cpu_per_wall"] for r in reps),
        "host.calib_ms": statistics.median(
            r["host"]["host.calib_ms"] for r in reps),
    }


def parent(args) -> int:
    if args.workload not in WORKLOAD_NAMES:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    low, high = UNIT_RANGE[args.workload]
    work = round(args.seconds / REPEATS / UNIT_SECONDS[args.workload])
    work = min(max(work, low), high)
    trace_out = None
    if args.trace:
        (ROOT / TRACE_DIR).mkdir(exist_ok=True)
        trace_out = ROOT / TRACE_DIR / f"{args.workload}.trace.json"
        reps = [_run_child(args.workload, args.seed, work, False, None,
                           deadline),
                _run_child(args.workload, args.seed, work, True, trace_out,
                           deadline)]
        metrics = per_layer(args.workload, reps[0], reps[1])
    else:
        reps = [_run_child(args.workload, args.seed, work, False, None,
                           deadline) for _ in range(REPEATS)]
        metrics = end_to_end(reps)
    errors = _correctness(reps)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"host": _host(*reps), "work_per_repetition": work,
                      "repetitions": len(reps), "env": ENV}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        result = child(args.workload, args.seed, args.work,
                       bool(args.trace), args.trace_out)
        print(json.dumps(result))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
