"""pendular benchmark: one workload per process, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {curves,phase-scan,cli} --seed N --seconds S --trace {0,1}

The workloads and metrics are declared in ``BENCHMARK.json``.  The package
is imported from ``src/`` (it need not be installed); BLAS runs on one
thread.  A run sets up, then repeats the workload's job list until ``S``
seconds are used, checking every operation's output after each pass.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` and ``cpu_s``
of one pass, ``peak_rss_mib`` and ``setup_s`` (median of several fresh-process
set-ups).  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, the tracing overhead, and writes the
spans of one traced pass to ``perfbench/out/``.  The error rate is printed
in the summary line.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import LAYER_METRICS, Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("curves", "phase-scan", "cli")
#: Fresh processes that repeat the set-up; with the run's own set-up they
#: give the median ``setup_s``.
SETUP_PROBES = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one pendular benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 = reference inputs; others jitter them")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes for the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(args):
    """Imports, input generation and one untimed warm-up call."""
    start = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.small)
    workload.warm_up()
    return workload, perf_counter() - start


def probe_set_up(args) -> float:
    """Set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--small"] if args.small else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def measure(workload, args):
    """Run passes until the measuring time is used; check each pass.

    A traced run alternates untraced and traced passes.
    """
    passes = []
    attempted = failed = 0
    kept_spans = None
    start = perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
            tracer.install()
            workload.tracer = tracer
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            ops = workload.run()
        finally:
            wall = perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if traced:
                tracer.restore()
                workload.tracer = None
        record = {"wall": wall, "cpu": cpu, "traced": traced, "rss_kib": workload.peak_rss_kib(ops)}
        if traced:
            record["layers"] = layer_metrics(tracer.spans, tracer.counters)
            if kept_spans is None:
                kept_spans = (tracer.spans, tracer.counters)
        found = workload.check(ops, thorough=not passes)
        attempted += len(found)
        for op, problems in found.items():
            if problems:
                failed += 1
                print(f"FAILED {args.workload} {op}: " + "; ".join(problems[:5]), file=sys.stderr)
        passes.append(record)
        complete = not args.trace or len(passes) >= 2
        if complete and perf_counter() - start + median(p["wall"] for p in passes) > args.seconds:
            return passes, attempted, failed, kept_spans


def end_to_end(passes, setup_s: float) -> dict:
    return {
        "wall_s": {"value": median(p["wall"] for p in passes), "unit": "s"},
        "cpu_s": {"value": median(p["cpu"] for p in passes), "unit": "s"},
        "peak_rss_mib": {"value": max(p["rss_kib"] for p in passes) / 1024.0, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(passes, args, machine, spans) -> dict:
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name, unit in LAYER_METRICS:
        seen = [p["layers"][name] for p in traced]
        if unit in ("count", "bytes") and len(set(seen)) > 1:
            print(f"warning: {name} differs between traced passes: {seen}", file=sys.stderr)
        metrics[name] = {"value": median(seen), "unit": unit}
    untraced_wall = median(p["wall"] for p in passes if not p["traced"])
    traced_wall = median(p["wall"] for p in traced)
    metrics["trace.overhead"] = {"value": traced_wall / untraced_wall, "unit": "ratio"}
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    write_spans(
        path,
        *spans,
        {
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine,
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "metrics": metrics,
        },
    )
    print(f"spans of one traced pass written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pendular" / "__init__.py").is_file():
        print(f"run.py: no pendular package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args)[1]}))
        return 0

    probes = [] if args.trace else [probe_set_up(args) for _ in range(SETUP_PROBES)]
    workload, own_setup = set_up(args)
    machine = machine_record()
    passes, attempted, failed, spans = measure(workload, args)
    if args.trace:
        metrics = per_layer(passes, args, machine, spans)
    else:
        metrics = end_to_end(passes, median(probes + [own_setup]))

    print("machine " + json.dumps(machine, sort_keys=True))
    shown = {"trace.overhead": metrics["trace.overhead"]} if args.trace else metrics
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items())
        + f" error_rate={failed / attempted:.6g} ratio ({failed} failed of {attempted} operations)"
        + " pass_walls_s=" + ",".join(f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes)
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
