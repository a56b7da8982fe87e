"""Composable verification checks behind the ``verify`` CLI command.

Each check integrates or evaluates something, compares against a bound and
returns a :class:`CheckResult`.  The ``op`` field says which way the
comparison goes: ``"<="`` for residual-style checks, ``">="`` for the
negative-control check that documents the elliptic polar-coefficient
mismatch (the measured discrepancy must be large).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .models import (ModelKind, PhysicalParams, State, dimensionalize,
                     radius, state_from_components, to_polar)
from .integrate import IntegratorConfig, integrate
from .dynamics import energies
from . import analytic, hydro, invariants, symmetry


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    op: str = "<="

    def as_dict(self) -> dict:
        return asdict(self)


def _result(name, value, threshold, op="<=") -> CheckResult:
    value = float(value)
    passed = value <= threshold if op == "<=" else value >= threshold
    return CheckResult(name=name, passed=passed, value=value,
                       threshold=threshold, op=op)


def default_initial_state(kind: ModelKind) -> State:
    """A generic (asymmetric) starting point for the verification runs."""
    values = {"X": 1.0, "Y": 1.3, "Z": 0.9, "Xdot": -0.2, "Ydot": 0.35, "Zdot": 0.15}
    kwargs = {}
    for label in kind.labels:
        kwargs[label] = values[label]
        kwargs[label + "dot"] = values[label + "dot"]
    return state_from_components(kind, **kwargs)


def _random_states(kind: ModelKind, rng, n, t_max=3.0) -> list[State]:
    states = []
    for _ in range(n):
        q = rng.uniform(0.6, 1.8, size=kind.dim)
        qdot = rng.uniform(-0.8, 0.8, size=kind.dim)
        states.append(State(t=rng.uniform(0.0, t_max), q=q, qdot=qdot))
    return states


def drift_checks(initial: State, kind: ModelKind, *, t_end, rel_tol, abs_tol,
                 sample_interval, drift_tol) -> list[CheckResult]:
    cfg = IntegratorConfig(t_end=t_end, sample_interval=sample_interval,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    report = invariants.invariant_report(integrate(initial, kind, cfg))
    return [_result(f"invariant_drift_{name}", drift, drift_tol)
            for name, drift in sorted(report.drift.items())]


def analytic_checks(initial: State, kind: ModelKind, *, rel_tol,
                    abs_tol) -> list[CheckResult]:
    """Closed-form solution vs. direct integration over t in [t0, t0+10]."""
    horizon = 10.0
    cfg = IntegratorConfig(t_end=initial.t + horizon, sample_interval=0.01,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(initial, kind, cfg)
    H = energies(initial, kind).hamiltonian
    r0, r_rdot0 = radius(initial.q, initial.qdot, kind)
    if kind is ModelKind.ONE_D:
        t0 = initial.t - float(r_rdot0) / (2.0 * H)
        X_exact, _ = analytic.one_d_solution(H, t0, traj.times)
        return [_result("analytic_solution_match",
                        np.max(np.abs(traj.qs[:, 0] - X_exact)), 1e-6)]
    if kind is ModelKind.THREE_D:
        J = invariants.noether_invariant(initial, kind)
        r_exact, _ = analytic.radial_3d(H, J, float(r0), traj.times - initial.t)
    else:
        sol = analytic.RadialSolution.from_state(initial, kind)
        r_exact, _ = analytic.radial(sol, traj.times)
    r_num, _ = radius(traj.qs, traj.qdots, kind)
    return [_result("analytic_radial_match",
                    np.max(np.abs(r_num - r_exact) / r_exact), 1e-6)]


def symmetry_checks(kind: ModelKind, rng, *, rel_tol, abs_tol) -> list[CheckResult]:
    states = _random_states(kind, rng, n=5)
    scal, ttrans = symmetry.scaling_symmetry(), symmetry.time_translation()

    res_scaling = max(abs(symmetry.noether_condition_residual(scal, kind, s))
                      for s in states)
    res_time = max(abs(symmetry.noether_condition_residual(ttrans, kind, s))
                   for s in states)
    j_match = max(abs(symmetry.noether_invariant_from(scal, kind, s)
                      - invariants.noether_invariant(s, kind)) for s in states)
    h_match = max(abs(symmetry.noether_invariant_from(ttrans, kind, s)
                      - energies(s, kind).hamiltonian) for s in states)
    out = [
        _result("noether_residual_scaling", res_scaling, 1e-10),
        _result("noether_residual_time_translation", res_time, 1e-10),
        _result("noether_invariant_match", j_match, 1e-12),
        _result("energy_invariant_match", h_match, 1e-12),
    ]

    if kind is ModelKind.TWO_D:
        def ermakov_field(t, q, qd):
            return float(invariants.ermakov_values(q, qd, kind))

        g1i = max(abs(symmetry.extended_generator_apply(scal, ermakov_field, s))
                  for s in states)
        out.append(_result("generator_annihilates_ermakov", g1i, 1e-6))

        taus = [lambda t, q, qd: 0.0, lambda t, q, qd: 1.0,
                lambda t, q, qd: q[0] * qd[1]]
        worst_res, worst_match = 0.0, 0.0
        for s in states:
            expected = invariants.ermakov_invariant(s, kind)
            for tau in taus:
                res, inv = symmetry.dynamical_symmetry_check(tau, s)
                worst_res = max(worst_res, abs(res))
                worst_match = max(worst_match, abs(inv - expected))
        out.append(_result("dynamical_symmetry_residual", worst_res, 1e-8))
        out.append(_result("dynamical_symmetry_invariant_match", worst_match, 1e-10))

    # Finite scaling map: the image trajectory must solve the same ODE.
    # The mapped grid spacing shrinks with beta < 1, where the image
    # solution's derivatives (hence the stencil truncation) grow.
    initial = default_initial_state(kind)
    worst = 0.0
    for beta in (0.5, 2.0, 5.0):
        span = 6.0 / beta ** 2
        mapped_dt = 1e-3 * min(1.0, beta ** 2)
        cfg = IntegratorConfig(t_end=span, sample_interval=mapped_dt / beta ** 2,
                               rel_tol=rel_tol, abs_tol=abs_tol)
        traj = integrate(initial, kind, cfg)
        worst = max(worst, symmetry.ode_residual(symmetry.scaled_trajectory(traj, beta)))
    out.append(_result("scaling_form_invariance", worst, 1e-5))

    # Near-identity form of the map against the generator coefficients
    # (2t, q): the difference is second order in beta - 1.
    eps = 1e-6
    cfg = IntegratorConfig(t_end=5.0, sample_interval=0.5,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(initial, kind, cfg)
    mapped = symmetry.scaled_trajectory(traj, 1.0 + eps)
    dev_t = np.max(np.abs(mapped.times - (traj.times + eps * 2.0 * traj.times)))
    dev_q = np.max(np.abs(mapped.qs - (traj.qs + eps * traj.qs)))
    out.append(_result("generator_near_identity", max(dev_t, dev_q), 1e-10))
    return out


def elliptic_checks(rng, *, rel_tol, abs_tol) -> list[CheckResult]:
    kind = ModelKind.ELLIPTIC_3D
    cfg = IntegratorConfig(t_end=20.0, sample_interval=0.1,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(default_initial_state(kind), kind, cfg)
    report = invariants.invariant_report(traj)
    out = [_result("itilde_twice_ermakov",
                   np.max(np.abs(report.values["Itilde"] - 2.0 * report.values["I"])),
                   1e-12)]

    states = _random_states(kind, rng, n=50)
    worst = 0.0
    for s in states:
        _, inv_polar = invariants.polar_invariants(to_polar(s, kind), kind)
        worst = max(worst, abs(inv_polar - invariants.itilde_invariant(s)))
    out.append(_result("polar_cartesian_consistency", worst, 1e-10))

    # The stretched-polar coefficient is 3*2^(-1/3); the naive 3/2 value
    # misses the substitution identity by order one (documented mismatch).
    ref = State(t=0.0, q=[1.0, 1.0], qdot=[0.0, 0.0])
    polar = to_polar(ref, kind)
    naive = 1.5 * (math.cos(polar.phi) ** 2 * math.sin(polar.phi)) ** (-2.0 / 3.0)
    out.append(_result("elliptic_polar_naive_coeff_mismatch",
                       abs(naive - invariants.itilde_invariant(ref)), 1.0, op=">="))
    return out


def hydro_checks(kind: ModelKind, rng, *, rel_tol, abs_tol) -> list[CheckResult]:
    params = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, Z0=1.0, m=1.0)
    initial = default_initial_state(kind)
    cfg = IntegratorConfig(t_end=2.0, sample_interval=1e-3,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(initial, kind, cfg)
    report = hydro.pde_residuals(params, traj)
    out = [_result("pde_residual_max", report.max_abs, 1e-5)]

    picks = np.linspace(0, len(traj) - 1, 9).astype(int)
    energies_along = [hydro.total_energy(params, dimensionalize(params, traj.state(i), kind), kind)
                      for i in picks]
    e0 = energies_along[0]
    out.append(_result("total_energy_drift",
                       max(abs(e - e0) for e in energies_along) / abs(e0), 1e-8))

    ratios = []
    for s in _random_states(kind, rng, n=10):
        h_dimless = energies(s, kind).hamiltonian
        ratios.append(hydro.total_energy(params, dimensionalize(params, s, kind), kind)
                      / h_dimless)
    ratios = np.array(ratios)
    out.append(_result("energy_ratio_spread",
                       np.std(ratios) / np.mean(ratios), 1e-8))
    return out


def run_verification(kind: ModelKind, initial: State | None = None, *,
                     t_end: float = 50.0, rel_tol: float = 1e-10,
                     abs_tol: float = 1e-12, sample_interval: float = 0.5,
                     drift_tol: float = 1e-8, seed: int = 0,
                     do_analytic: bool = True, do_symmetry: bool = True,
                     do_hydro: bool = True) -> list[CheckResult]:
    """Run every check applicable to ``kind`` and return the results."""
    rng = np.random.default_rng(seed)
    initial = default_initial_state(kind) if initial is None else initial
    results = drift_checks(initial, kind, t_end=t_end, rel_tol=rel_tol,
                           abs_tol=abs_tol, sample_interval=sample_interval,
                           drift_tol=drift_tol)
    if do_analytic:
        results += analytic_checks(initial, kind, rel_tol=rel_tol, abs_tol=abs_tol)
    if do_symmetry:
        results += symmetry_checks(kind, rng, rel_tol=rel_tol, abs_tol=abs_tol)
    if kind is ModelKind.ELLIPTIC_3D:
        results += elliptic_checks(rng, rel_tol=rel_tol, abs_tol=abs_tol)
    if do_hydro:
        results += hydro_checks(kind, rng, rel_tol=rel_tol, abs_tol=abs_tol)
    return results
