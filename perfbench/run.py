"""End-to-end and per-layer benchmark of fireball.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  One client runs the workload's jobs in a closed loop, one after
another in this process, repeating whole passes (at least two) until
``--seconds`` have elapsed.  Every job's output is checked (see
``workloads.py``); a job that raises, exits non-zero or fails its check
counts as failed and the run goes on.  Times are reference seconds (see
``speed.py``).  The last line of standard output is the result as one JSON
object; the line before it records the run context, raw times and the raw
accuracy figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced, then traced passes with every layer wrapped (``spans.py``), and
reports the per-layer metrics of one pass: times as the median over traced
passes, counts from the first (they repeat exactly).
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so BLAS cannot start worker threads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
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

import spans
import spec
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_PER_PASS = 3  # set-up samples taken before each pass and after the last
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import fireball, fireball.cli; "
              "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_times(n: int) -> list[tuple[float, float]]:
    """(raw, reference) times to import fireball and its CLI in ``n`` fresh
    interpreters.  The interpreter runs on this process's CPU, between speed
    probes taken here."""
    times = []
    for _ in range(n):
        before = statistics.mean(speed.probe() for _ in range(5))
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        after = statistics.mean(speed.probe() for _ in range(5))
        raw = float(proc.stdout.strip())
        times.append((raw, raw * speed.REF_S / (0.5 * (before + after))))
    return times


def context(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed, "validation_seed": spec.VALIDATION_SEED, "commit": commit,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


class Run:
    """Accumulates job latencies, failures and accuracy over a run.

    Latencies are reference seconds (see ``speed.py``); the raw ones are kept
    for the record."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.raw: list[float] = []
        self.latencies: list[float] = []
        self.by_job: list[list[float]] = [[] for _ in jobs]
        self.pass_walls: list[float] = []
        self.pass_raw_walls: list[float] = []
        self.pass_bytes: list[int] = []
        self.probes: list[float] = []
        self.errors: dict[str, float] = {}

    def one_pass(self, recorder=None) -> None:
        from workloads import CheckFailed

        wall = raw_wall = 0.0
        out_bytes = 0
        with speed.SpeedSampler(periodic=recorder is None) as sampler:
            for job, latencies in zip(self.jobs, self.by_job):
                self.attempted += 1
                call = (lambda: recorder.job(job.call)) if recorder else job.call
                try:
                    result, raw, latency = sampler.measure(call)
                    errors = job.check(result)
                except CheckFailed as exc:
                    self._fail(job, str(exc))
                    continue
                except Exception:
                    self._fail(job, traceback.format_exc(limit=3))
                    continue
                self.raw.append(raw)
                self.latencies.append(latency)
                latencies.append(latency)
                raw_wall += raw
                wall += latency
                out_bytes += errors.pop("bytes", 0)
                for key, value in errors.items():
                    self.errors[key] = max(self.errors.get(key, 0.0), value)
        self.probes += sampler.samples
        self.pass_walls.append(wall)
        self.pass_raw_walls.append(raw_wall)
        self.pass_bytes.append(out_bytes)

    def _fail(self, job, why):
        self.failed += 1
        print(f"FAILED {job.name}: {why}", file=sys.stderr)

    def tail(self) -> tuple[float, float | None, int]:
        """(value, percentile, samples) of the tail over jobs, each job
        counted once at its median latency over passes, so the tail follows
        the inputs that take longest rather than a moment the machine
        stalled.  It is the highest percentile with at least ten jobs beyond
        it when that is p90 or higher (100 jobs or more); otherwise the
        slowest job (percentile None)."""
        medians = sorted(statistics.median(times) for times in self.by_job if times)
        n = len(medians)
        if n >= 100:
            return medians[n - 11], 100.0 * (n - 10) / n, n
        return medians[-1], None, n


def digits(error: float) -> float:
    """Correct decimal digits, -log10(error); errors below 1e-17 count as 1e-17."""
    return -math.log10(max(error, 1e-17))


def end_to_end(run: Run, setup_s: float) -> dict:
    tail, _, _ = run.tail()
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.pass_walls),
        "job_p50_s": statistics.median(run.latencies),
        "job_tail_s": tail,
        "closed_form_digits": digits(run.errors.get("closed_form", 1.0)),
        "drift_H_digits": digits(run.errors.get("H", 1.0)),
        "drift_I_digits": digits(run.errors.get("I", 1.0)),
        "drift_J_digits": digits(run.errors.get("J", 1.0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(per_pass: list[dict], untraced_wall: float, out_bytes: int) -> dict:
    first = per_pass[0]
    for later in per_pass[1:]:
        for key, value in first.items():
            if isinstance(value, int) and later[key] != value:
                print(f"WARNING: count {key} differs between traced passes: "
                      f"{value} vs {later[key]}", file=sys.stderr)
    merged = {key: (value if isinstance(value, int)
                    else statistics.median(p[key] for p in per_pass))
              for key, value in first.items()}
    merged["cli.self_s"] = merged["cli.main.self_s"]
    merged["integrate.self_s"] = merged["integrate.integrate.self_s"]
    merged["cli.bytes_out"] = out_bytes
    samples = merged["integrate.solve_ode.samples"]
    merged["integrate.solve_ode.rhs_per_sample"] = (
        merged["integrate.solve_ode.rhs_evals"] / samples if samples else 0.0)
    merged["trace.overhead_s"] = merged["trace.wall_s"] - untraced_wall
    return {name: merged[name] for name in spec.PER_LAYER}


def measure(args, workdir: str) -> tuple[Run, dict, dict]:
    import workloads

    for call in workloads.warmup(args.workload, workdir):
        try:
            call()
        except Exception:
            print(f"warm-up job raised:\n{traceback.format_exc(limit=3)}", file=sys.stderr)

    run = Run(workloads.build(args.workload, args.seed, workdir))
    start = time.perf_counter()
    if not args.trace:
        # Set-up samples are spread over the run, so they see the same
        # machine as the passes between them.
        import_times(1)  # caches compiled bytecode, as a user's earlier runs would
        setup = []
        while len(run.pass_walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            setup += import_times(SETUP_PER_PASS)
            run.one_pass()
        setup += import_times(SETUP_PER_PASS)
        metrics = end_to_end(run, statistics.median(scaled for _, scaled in setup))
        units = {k: v[0] for k, v in spec.END_TO_END.items()}
    else:
        setup = []
        run.one_pass()
        recorder = spans.SpanRecorder()
        recorder.install()
        per_pass = []
        try:
            while not per_pass or time.perf_counter() - start < args.seconds:
                lo = len(recorder.start)
                run.one_pass(recorder)
                per_pass.append(recorder.layer_metrics(lo, len(recorder.start)))
        finally:
            recorder.uninstall()
        metrics = per_layer(per_pass, run.pass_raw_walls[0], run.pass_bytes[-1])
        units = {k: v[0] for k, v in spec.PER_LAYER.items()}
    tail, pct, samples = run.tail()
    detail = {"passes": len(run.pass_walls), "jobs": len(run.latencies),
              "job_tail": {"value": tail, "percentile": pct, "samples": samples},
              "fail_frac": run.failed / run.attempted,
              "accuracy": dict(sorted(run.errors.items())),
              "probe_s": {"ref": speed.REF_S, "median": statistics.median(run.probes),
                          "min": min(run.probes), "max": max(run.probes)},
              "raw_s": {"setup": statistics.median(raw for raw, _ in setup) if setup else None,
                        "job_p50": statistics.median(run.raw)}}
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fireball" / "__init__.py").is_file():
        print(f"error: no fireball sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fireball

    if Path(fireball.__file__).resolve().parent != SRC / "fireball":
        print(f"error: imported fireball from {fireball.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {list(spec.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = spec.DEFAULT_SEED
    os.environ["FIREBALL_LOG"] = "warn"
    # One CPU for this process and the interpreters it starts, so the speed
    # probes taken here describe the CPU that set-up runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run, metrics, detail = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {"workload": args.workload, "trace": args.trace,
              "context": context(args.seed), **detail}
    for name, metric in metrics.items():
        print(f"{args.workload:>14} {name:<40} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
