"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` lists exactly the workloads and metrics of ``spec.py``.
2. Count anchors: ``solve_ode`` makes 60001 RHS evaluations for the default
   2d verification state to t=100 on a 0.01 grid, and 1711 on a 0.5 grid.
3. Every traced workload succeeds, its layer self times account for its
   traced wall time, and every count metric repeats exactly across two runs.

Exits non-zero on the first failed check.  Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import spec  # noqa: E402

COUNT_UNITS = ("count", "bytes", "rhs/sample")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_contract() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check({w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS,
          "BENCHMARK.json workloads match spec.WORKLOADS")
    check({m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
          == spec.END_TO_END, "BENCHMARK.json end_to_end matches spec.END_TO_END")
    check({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
          == {k: v[:2] for k, v in spec.PER_LAYER.items()},
          "BENCHMARK.json per_layer matches spec.PER_LAYER")
    check(all(w in spec.WORKLOADS and m in spec.END_TO_END
              for _, _, _, moves in spec.PER_LAYER.values() for m, w in moves),
          "every per-layer metric points at a known end-to-end metric and workload")


def check_anchors() -> None:
    from fireball import IntegratorConfig, ModelKind, integrate
    from fireball.verification import default_initial_state

    kind = ModelKind.TWO_D
    state = default_initial_state(kind)
    for interval, expected in ((0.01, 60001), (0.5, 1711)):
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            recorder.job(lambda: integrate(state, kind, IntegratorConfig(
                t_end=100.0, sample_interval=interval)))
        finally:
            recorder.uninstall()
        got = recorder.layer_metrics(0, len(recorder.start))["integrate.solve_ode.rhs_evals"]
        check(got == expected, f"2d rhs_evals at sample_interval={interval}: {got} == {expected}")


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(spec.DEFAULT_SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    check(proc.returncode == 0, f"{workload} traced run exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_repeat() -> None:
    for workload in spec.WORKLOADS:
        first, second = traced(workload), traced(workload)
        for result in (first, second):
            check(result["correct"] and result["failed"] == 0, f"{workload} has no failed job")
        metrics = first["metrics"]
        check(set(metrics) == set(spec.PER_LAYER), f"{workload} reports every per-layer metric")
        counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}
        again = {k: second["metrics"][k]["value"] for k in counts}
        check(counts == again, f"{workload}: {len(counts)} count metrics repeat exactly")
        wall = metrics["trace.wall_s"]["value"]
        gap = metrics["trace.unaccounted_s"]["value"]
        check(0.0 <= gap < 0.01 * wall,
              f"{workload}: layer self times cover traced wall_s to {gap:.2e} of {wall:.2f} s")


if __name__ == "__main__":
    check_contract()
    check_anchors()
    check_repeat()
