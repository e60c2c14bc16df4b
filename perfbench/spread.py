"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload screen --seeds 1-10

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. Runs go one
after another, so they never compete for the cores. ``--out`` also writes
every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "bound": bounds.get(name),
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or str(spec["run_seconds"])
    runs = []
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    summary = summarize(runs, bounds)
    width = max(len(name) for name in summary)
    for name, row in summary.items():
        spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
        bound = "" if row["bound"] is None else f"  bound {row['bound']}"
        print(f"{name:<{width}}  median {row['median']:.6g} {row['unit']}"
              f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {spread}"
              f"{bound}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload,
                                        "summary": summary, "runs": runs},
                                       indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
