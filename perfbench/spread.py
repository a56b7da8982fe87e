"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py WORKLOAD [WORKLOAD ...] [--runs 10] [--out FILE]

For each workload, runs ``run.py`` once per seed (0, 1, ... runs-1) with the
``run_seconds`` of ``BENCHMARK.json`` and prints, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median next to the metric's bound.  ``--out``
writes every run's result and the summaries as JSON.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "bound": bound}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.runs):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall_s={result['metrics']['wall_s']['value']:.3f}", flush=True)
        summary = summarise(runs, bounds)
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:>14} {name:<20} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
