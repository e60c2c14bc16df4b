"""Run one dtanet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object whose metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer metrics, and the spans go to ``.bench_out/``. The line before
it holds the machine facts and the run's operation counts and times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in
                    THREAD_VARS + ("DTANET_NUM_THREADS",)},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-ecfp", "screen", "cv-cluster"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path on small inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dtanet" / "__init__.py").is_file():
        print(f"run.py: no dtanet package under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # BLAS reads its thread count once, when numpy loads it.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from spans import Tracer

    # A stopped run still removes its working files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tracer = Tracer() if args.trace else None
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds,
                        workloads.SIZES[args.size][args.workload], work, tracer)
    try:
        values, ops = workloads.RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    notes = {"workload": args.workload, "seed": args.seed,
             "operations": len(ops),
             "traced_operations": sum(op.traced for op in ops),
             "operation_s": [round(op.wall, 4) for op in ops],
             "setups": len(run.setup_times), "machine": facts}
    correct = run.failed == 0
    if tracer is None:
        values["setup_s"] = statistics.median(run.setup_times)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        listed = spec["end_to_end"]
    else:
        values = tracer.layer_metrics()
        values["trace.overhead_share"] = workloads.overhead_share(ops)
        self_sum = sum(tracer.self_times())
        notes["span_self_s"] = self_sum
        notes["traced_wall_s"] = run.traced_wall
        # Self times tile the root spans, which sit inside the traced wall.
        correct = correct and self_sum <= run.traced_wall
        path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, notes)
        notes["trace_file"] = str(path.relative_to(ROOT))
        listed = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps(notes))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
