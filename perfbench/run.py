"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7_sparse --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics (and the
tracing overhead) and writes its spans under ``.perfbench/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names, units and the
workloads are declared in ``BENCHMARK.json``; ``perfbench/README.md``
says what each one measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _source_digest() -> str:
    """sha256 over the program's source files (the checkout may not be a
    git repository, so this is the fingerprint that always exists)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_fingerprint() -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def stop_children() -> None:
    """Stop the one helper process a run starts and wait for it to end.

    The thread backend's output arenas live in shared memory, and the first
    ``SharedMemory`` makes Python start its resource tracker, a process that
    would otherwise outlive the benchmark for a moment.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig7_sparse", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["paper", "tiny"], default="paper",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    ap.add_argument("--inject", choices=["corrupt-aggregate"], default=None,
                    help="deliberately corrupt one aggregate (tests the checks)")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    fingerprint = host_fingerprint()
    load_before = os.getloadavg()
    run = wl.Run(args.seed, args.seconds, bool(args.trace),
                 wl.SCALES[args.scale], inject=args.inject)
    t0 = time.perf_counter()
    with run.tracer.span("bench.run", workload=args.workload):
        wl.WORKLOADS[args.workload](run)
    wall = time.perf_counter() - t0
    load_after = os.getloadavg()

    metrics = wl.per_layer(run) if args.trace else wl.end_to_end(run)
    nan = [name for name, (value, _, _) in metrics.items() if not math.isfinite(value)]
    for name in nan:
        run.fail(f"metric {name} was not measured")
    busy = max(load_before[0], load_after[0]) > (fingerprint["affinity"] or 1)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
        "inputs": run.info,
        "host": fingerprint,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "host_busy": busy,
        "wall_s": wall,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "errors": run.errors,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record, default=str) + "\n")
    if args.trace:
        run.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} inputs={json.dumps(run.info)}")
    print(f"host={json.dumps(fingerprint)} loadavg={load_before[0]:.2f}->"
          f"{load_after[0]:.2f}" + (" HOST BUSY: load above CPU count" if busy else ""))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:44s} {value:16.6g} {unit:8s} n={n}")
    for err in run.errors:
        print(f"  FAILED: {err}")
    attempted = max(run.attempted, 1)
    print(f"  failed_ratio {run.failed / attempted:.6g} ({run.failed}/{attempted})")
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
