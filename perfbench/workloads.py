"""The benchmark's jobs: seeded inputs, the timed call into fireball, and the
check of its output.

A job's timed part is only its call into fireball's public entry points
(``fireball.cli.main`` or ``fireball.integrate`` + ``invariant_report``); the
check runs afterwards, untimed, against the closed forms or the report's
verdict, and returns the job's errors for the accuracy metrics.  The checks
use functions bound here at import, before any tracing wrapper exists.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fireball
import fireball.cli
from fireball import IntegratorConfig, ModelKind, State
from fireball.analytic import RadialSolution, one_d_solution, radial, radial_3d
from fireball.dynamics import energies
from fireball.invariants import noether_invariant

KINDS = (ModelKind.ONE_D, ModelKind.TWO_D, ModelKind.THREE_D, ModelKind.ELLIPTIC_3D)
CLOSED_FORM_TOL = 1e-6   # the relative gate of `fireball verify`'s analytic checks
DRIFT_TOL = 1e-8         # `fireball verify`'s default drift gate; J is recorded only
ENSEMBLE_STATES = 300
DENSE_STATES = 4      # states per model in dense_grid; each runs to DENSE_T_END
DENSE_T_END = 25.0


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], dict]   # result -> {"closed_form", "H", "I", "J", "bytes"}


def random_state(kind: ModelKind, rng) -> State:
    """A state in the ranges `verification._random_states` draws from."""
    return State(t=0.0, q=rng.uniform(0.6, 1.8, size=kind.dim),
                 qdot=rng.uniform(-0.8, 0.8, size=kind.dim))


def _state_flags(state: State, kind: ModelKind) -> list[str]:
    flags = []
    for label, q, qdot in zip(kind.labels, state.q, state.qdot):
        flags += [f"--{label}", repr(float(q)), f"--{label}dot", repr(float(qdot))]
    return flags


def _drift(series: np.ndarray, floor: float) -> float:
    return float(np.max(np.abs(series - series[0])) / max(abs(series[0]), floor))


def closed_form_error(state: State, kind: ModelKind, times, qs) -> float:
    """Max relative error of sampled variances against the model's closed form
    (the exact 1-d solution, the radial law, or the 3-d law)."""
    qs = np.asarray(qs)
    if kind is ModelKind.ONE_D:
        H = energies(state, kind).hamiltonian
        t0 = state.t - state.q[0] * state.qdot[0] / (2.0 * H)
        exact, _ = one_d_solution(H, t0, times)
        numeric = qs[:, 0]
    elif kind is ModelKind.THREE_D:
        H = energies(state, kind).hamiltonian
        J = noether_invariant(state, kind)
        exact, _ = radial_3d(H, J, float(np.linalg.norm(state.q)), times - state.t)
        numeric = np.linalg.norm(qs, axis=1)
    else:
        exact, _ = radial(RadialSolution.from_state(state, kind), times)
        numeric = (np.linalg.norm(qs, axis=1) if kind is ModelKind.TWO_D
                   else np.sqrt(2.0 * qs[:, 0] ** 2 + qs[:, 1] ** 2))
    return float(np.max(np.abs(numeric - exact) / exact))


def _gate(errors: dict) -> dict:
    if not errors["closed_form"] <= CLOSED_FORM_TOL:
        raise CheckFailed(f"closed-form error {errors['closed_form']:.3e} > {CLOSED_FORM_TOL}")
    for key in ("H", "I"):
        if key in errors and not errors[key] <= DRIFT_TOL:
            raise CheckFailed(f"drift of {key} {errors[key]:.3e} > {DRIFT_TOL}")
    return errors


def read_table(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """(comment lines, column names, rows) of a fireball CSV; empty cells -> nan."""
    comments, columns, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(x) if x else math.nan for x in line.split(",")])
    if columns is None or not rows:
        raise CheckFailed(f"{path}: no table")
    return comments, columns, np.array(rows)


def _cli_call(argv: list[str]) -> Callable[[], int]:
    return lambda: fireball.cli.main(argv)


def _require_exit(code, path):
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    if not os.path.exists(path):
        raise CheckFailed(f"{path} not written")


def simulate_job(kind: ModelKind, state: State, t_end: float, out: str) -> Job:
    argv = (["simulate", "--model", kind.value] + _state_flags(state, kind)
            + ["--t-end", repr(t_end), "--sample-interval", "0.01", "--out", out])
    grid = np.linspace(0.0, t_end, round(t_end / 0.01) + 1)

    def check(code):
        _require_exit(code, out)
        _, columns, table = read_table(out)
        col = {c: table[:, i] for i, c in enumerate(columns)}
        if table.shape[0] != grid.size or np.max(np.abs(col["t"] - grid)) > 1e-9:
            raise CheckFailed(f"sample grid differs from 0:0.01:{t_end}")
        qs = np.column_stack([col[label] for label in kind.labels])
        errors = {"closed_form": closed_form_error(state, kind, col["t"], qs),
                  "H": _drift(col["H"], 1e-300), "J": _drift(col["J"], 1.0),
                  "bytes": os.path.getsize(out)}
        if kind.has_ermakov_invariant:
            errors["I"] = _drift(col["I"], 1e-300)
        return _gate(errors)

    return Job(f"simulate:{kind.value}", _cli_call(argv), check)


def analytic_job(kind: ModelKind, state: State, t_end: float, out: str) -> Job:
    argv = (["analytic", "--model", kind.value] + _state_flags(state, kind)
            + ["--t-end", repr(t_end), "--compare", "--out", out])

    def check(code):
        _require_exit(code, out)
        comments, columns, table = read_table(out)
        col = {c: table[:, i] for i, c in enumerate(columns)}
        phi = col["phi"]
        if not np.all((phi > 0.0) & (phi < math.pi / 2.0)):
            raise CheckFailed("phi leaves (0, pi/2)")
        delta = [float(c.partition("=")[2]) for c in comments
                 if c.startswith("max_delta_r=")]
        if len(delta) != 1:
            raise CheckFailed("no max_delta_r in the header")
        # Norm-wise relative error: max|delta r| over max r.
        errors = {"closed_form": delta[0] / float(np.max(col["r"])),
                  "bytes": os.path.getsize(out)}
        return _gate(errors)

    return Job(f"analytic:{kind.value}", _cli_call(argv), check)


def verify_job(kind: ModelKind, seed: int, out: str) -> Job:
    argv = ["verify", "--model", kind.value, "--seed", str(seed), "--out", out]

    def check(code):
        if code not in (0, 1):
            raise CheckFailed(f"exit code {code}")
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if code != 0 or not report["passed"] or failed:
            raise CheckFailed(f"verify failed: {failed}")
        values = {c["name"]: c["value"] for c in report["checks"]}
        errors = {"closed_form": max(v for k, v in values.items()
                                     if k.startswith("analytic_") and k.endswith("_match")),
                  "bytes": os.path.getsize(out)}
        for key in ("H", "I", "J"):
            if f"invariant_drift_{key}" in values:
                errors[key] = values[f"invariant_drift_{key}"]
        return errors

    return Job(f"verify:{kind.value}", _cli_call(argv), check)


def ensemble_job(kind: ModelKind, state: State) -> Job:
    q, qdot = state.q.copy(), state.qdot.copy()

    def call():
        # State and config are built inside the timed call: their validation
        # is part of the per-call overhead this workload measures.
        initial = State(t=0.0, q=q, qdot=qdot)
        traj = fireball.integrate(initial, kind,
                                  IntegratorConfig(t_end=1e4, sample_interval=1e3))
        return traj, fireball.invariant_report(traj)

    def check(result):
        traj, report = result
        if len(traj) != 11 or traj.times[-1] != 1e4:
            raise CheckFailed("trajectory does not sample 0:1e3:1e4")
        errors = {"closed_form": closed_form_error(state, kind, traj.times, traj.qs)}
        errors.update(report.drift)
        errors.pop("Itilde", None)
        return _gate(errors)

    return Job(f"integrate:{kind.value}", call, check)


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """The jobs of one pass; every pass repeats them in this order."""
    rng = np.random.default_rng(seed)

    def path(name):
        return os.path.join(workdir, name)

    if workload == "dense_grid":
        jobs = []
        for i in range(DENSE_STATES):
            for kind in KINDS:
                state = random_state(kind, rng)
                jobs.append(simulate_job(kind, state, DENSE_T_END,
                                         path(f"simulate_{kind.value}_{i}.csv")))
                if kind.has_ermakov_invariant:
                    jobs.append(analytic_job(kind, state, DENSE_T_END,
                                             path(f"analytic_{kind.value}_{i}.csv")))
        return jobs
    if workload == "ensemble_sweep":
        return [ensemble_job(KINDS[i % 4], random_state(KINDS[i % 4], rng))
                for i in range(ENSEMBLE_STATES)]
    if workload == "verify_suite":
        return [verify_job(kind, seed, path(f"verify_{kind.value}.json")) for kind in KINDS]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, workdir: str) -> list[Callable[[], object]]:
    """Small calls on the same code paths, run untimed before measuring."""
    state = {kind: State(t=0.0, q=[1.0] * kind.dim, qdot=[0.1] * kind.dim) for kind in KINDS}
    out = os.path.join(workdir, "warmup.out")
    if workload == "verify_suite":
        argvs = [["verify", "--model", k.value, "--t-end", "2", "--no-symmetry",
                  "--out", out] for k in KINDS]
    elif workload == "dense_grid":
        argvs = [["simulate", "--model", k.value] + _state_flags(state[k], k)
                 + ["--t-end", "1", "--out", out] for k in KINDS]
        argvs += [["analytic", "--model", k.value] + _state_flags(state[k], k)
                  + ["--t-end", "1", "--compare", "--out", out]
                  for k in (ModelKind.TWO_D, ModelKind.ELLIPTIC_3D)]
    else:
        return [ensemble_job(k, state[k]).call for k in KINDS]
    return [_cli_call(argv) for argv in argvs]
