"""Composable verification checks behind the ``verify`` CLI command.

Each check evaluates its states as one batch of (n, dim) arrays, a run's
samples or random states, compares against a bound and returns a
:class:`CheckResult`.  Its ``op`` says which way the comparison goes:
``"<="`` for residuals, ``">="`` for the negative control that documents
the elliptic polar-coefficient mismatch (the discrepancy must be large).

Every integration lands a step on each sample: at long horizons the steps
outgrow the grid, and interpolation error would then dominate the drift of
the conserved quantities.  The drift and analytic checks integrate from the
state they are given.  The symmetry, elliptic and hydro checks test exact
identities of the model, so they read one fixed reference run, from
:func:`default_initial_state` to t = 20 on a 0.1 grid, which
:func:`run_verification` makes once and passes to them.  The reduction to
the variance ODEs and the finite scaling map are checked as exact
identities at states the checks already have, with the accelerations the
model's force gives them: the Euler equations by
:func:`fireball.hydro.pde_residuals`, the scaling map by
:func:`fireball.symmetry.ode_residual` on the image of a run and by the 2d
model's Ermakov invariant I, unchanged on the image of a state.  One call
of :func:`fireball.symmetry.noether_terms` serves the two point symmetries,
one the 2d Ermakov symmetry's three tau.  No check takes a numerical
derivative; these read rounding, so their bounds are 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import (ModelKind, PhysicalParams, State, polar_values, radius,
                     reference_scales, state_from_components)
from .integrate import IntegratorConfig, Trajectory, integrate
from .dynamics import accel
from . import analytic, hydro, invariants, symmetry


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    op: str = "<="

    def as_dict(self) -> dict:
        return dict(vars(self))  # every field is an immutable scalar


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


def _random_states(kind: ModelKind, rng, n, t_max=3.0):
    """(n,) ``ts`` and (n, dim) ``qs``, ``qdots`` of random states, each drawn
    as q in [0.6, 1.8) and qdot in [-0.8, 0.8) per axis, then t in [0, t_max)."""
    d = kind.dim
    draws = rng.uniform([0.6] * d + [-0.8] * d + [0.0], [1.8] * d + [0.8] * d + [t_max],
                        size=(n, 2 * d + 1))
    return draws[:, -1], draws[:, :d], draws[:, d:-1]


def _worst(values) -> float:
    return np.max(np.abs(values))


def drift_checks(initial: State, kind: ModelKind, config: IntegratorConfig,
                 drift_tol: float) -> list[CheckResult]:
    report = invariants.invariant_report(integrate(initial, kind, config))
    return [_result(f"invariant_drift_{name}", drift, drift_tol)
            for name, drift in sorted(report.drift.items())]


def analytic_checks(initial: State, kind: ModelKind, *, rel_tol,
                    abs_tol) -> list[CheckResult]:
    """Closed-form solution vs. direct integration over t in [t0, t0+10]."""
    horizon = 10.0
    cfg = IntegratorConfig(t_end=initial.t + horizon, sample_interval=0.01,
                           rel_tol=rel_tol, abs_tol=abs_tol)
    traj = integrate(initial, kind, cfg)
    r_exact, _ = analytic.radial(analytic.RadialSolution.from_state(initial, kind),
                                 traj.times)
    error = np.abs(radius(traj.qs, traj.qdots, kind)[0] - r_exact)
    if kind is ModelKind.ONE_D:  # r is X itself: the exact solution, absolutely
        return [_result("analytic_solution_match", np.max(error), 1e-6)]
    return [_result("analytic_radial_match", np.max(error / r_exact), 1e-6)]


def symmetry_checks(traj: Trajectory, rng) -> list[CheckResult]:
    kind = traj.kind
    ts, qs, qdots = _random_states(kind, rng, n=5)
    scal, ttrans = symmetry.scaling_symmetry(), symmetry.time_translation()
    (res_scal, inv_scal), (res_ttrans, inv_ttrans) = symmetry.noether_terms(
        [scal, ttrans], kind, ts, qs, qdots)
    out = [
        _result("noether_residual_scaling", _worst(res_scal), 1e-10),
        _result("noether_residual_time_translation", _worst(res_ttrans), 1e-10),
        _result("noether_invariant_match",
                _worst(inv_scal - invariants.noether_values(ts, qs, qdots, kind)), 1e-12),
        _result("energy_invariant_match",
                _worst(inv_ttrans - invariants.hamiltonian_values(qs, qdots, kind)), 1e-12),
    ]

    if kind is ModelKind.TWO_D:
        # The scaling generator annihilates I exactly when the finite map
        # (q, qdot) -> (beta q, qdot / beta) leaves it unchanged.
        ermakov = invariants.ermakov_values(qs, qdots, kind)
        g1i = max(_worst((invariants.ermakov_values(beta * qs, qdots / beta, kind)
                          - ermakov) / ermakov) for beta in (0.5, 2.0, 5.0))
        out.append(_result("generator_annihilates_ermakov", g1i, 1e-12))

        dynamical = [symmetry.ErmakovSymmetry(tau) for tau in (
            lambda t, q, qd: 0.0, lambda t, q, qd: 1.0, lambda t, q, qd: q[..., 0] * qd[..., 1])]
        checks = symmetry.noether_terms(dynamical, kind, ts, qs, qdots)
        out.append(_result("dynamical_symmetry_residual",
                           max(_worst(res) for res, _ in checks), 1e-12))
        out.append(_result("dynamical_symmetry_invariant_match",
                           max(_worst(inv - ermakov) for _, inv in checks), 1e-10))

    # Finite scaling map: the image of a run must solve the same ODE.  By the
    # chain rule its accelerations are accel(q) / beta^3, which equal the
    # force at the image's samples because the force is homogeneous of
    # degree -3.
    force = accel(traj.qs, kind)
    worst = max(symmetry.ode_residual(symmetry.scaled_trajectory(traj, beta),
                                      force / beta ** 3) for beta in (0.5, 2.0, 5.0))
    out.append(_result("scaling_form_invariance", worst, 1e-12))

    # Near-identity form of the map against the generator coefficients
    # (tau, eta) = (2t, q), which act sample by sample on the whole run: the
    # difference is second order in beta - 1.
    eps = 1e-6
    mapped = symmetry.scaled_trajectory(traj, 1.0 + eps)
    tau, eta = scal.tau(traj.times, traj.qs), scal.eta(traj.times, traj.qs)
    dev_t = np.max(np.abs(mapped.times - (traj.times + eps * tau)))
    dev_q = np.max(np.abs(mapped.qs - (traj.qs + eps * eta)))
    out.append(_result("generator_near_identity", max(dev_t, dev_q), 1e-10))
    return out


def elliptic_checks(traj: Trajectory, rng) -> list[CheckResult]:
    kind = traj.kind
    # The cartesian Itilde against its polar form (r^2 phidot)^2 / 2 + U(phi)
    # in the stretched variables, sample by sample and at random states.
    polar = analytic.polar_invariant_values(*polar_values(traj.qs, traj.qdots, kind), kind)[1]
    itilde = invariants.radial_invariant_values(traj.qs, traj.qdots, kind)
    out = [_result("itilde_twice_ermakov", _worst(itilde - polar), 1e-12)]
    _, qs, qdots = _random_states(kind, rng, n=50)
    polar = analytic.polar_invariant_values(*polar_values(qs, qdots, kind), kind)[1]
    out.append(_result("polar_cartesian_consistency",
                       _worst(polar - invariants.radial_invariant_values(qs, qdots, kind)), 1e-10))

    # The stretched-polar coefficient is 3*2^(-1/3); the naive 3/2 value
    # misses the substitution identity by order one (documented mismatch).
    q, qdot = np.ones((1, 2)), np.zeros((1, 2))
    phi = float(polar_values(q, qdot, kind)[1][0])
    naive = 1.5 * (math.cos(phi) ** 2 * math.sin(phi)) ** (-2.0 / 3.0)
    itilde = invariants.radial_invariant_values(q, qdot, kind)[0]
    out.append(_result("elliptic_polar_naive_coeff_mismatch", abs(naive - itilde), 1.0,
                       op=">="))
    return out


def hydro_checks(traj: Trajectory, rng) -> list[CheckResult]:
    """The Euler equations at every 25th sample of ``traj`` (t = 0, 2.5,
    ..., 20 on the reference run) and at 10 random states, with the model's
    accelerations; the total fluid energy at those samples, and its ratio
    to the dimensionless energy at the random states."""
    kind = traj.kind
    params = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, Z0=1.0, m=1.0)
    _, random_qs, random_qdots = _random_states(kind, rng, n=10)
    qs = np.vstack([traj.qs[::25], random_qs])
    qdots = np.vstack([traj.qdots[::25], random_qdots])
    report = hydro.pde_residuals(params, qs, qdots, accel(qs, kind), kind)
    out = [_result("pde_residual_max", report.max_abs, 1e-12)]

    # The fluid energy of every state, in the units of params
    length, time_scale = reference_scales(params, kind)
    _, energy = hydro.moment_values(params, qs * length, qdots * (length / time_scale), kind)
    along = energy[:-10]
    out.append(_result("total_energy_drift", _worst(along - along[0]) / abs(along[0]), 1e-8))
    ratios = energy[-10:] / invariants.hamiltonian_values(random_qs, random_qdots, kind)
    out.append(_result("energy_ratio_spread", np.std(ratios) / np.mean(ratios), 1e-8))
    return out


def run_verification(kind: ModelKind, config: IntegratorConfig,
                     initial: State | None = None, *, drift_tol: float = 1e-8,
                     seed: int = 0, do_analytic: bool = True, do_symmetry: bool = True,
                     do_hydro: bool = True) -> list[CheckResult]:
    """Run every check applicable to ``kind`` and return the results.

    ``config`` is the drift check's run from ``initial`` (by default
    :func:`default_initial_state`); its ``rel_tol`` and ``abs_tol`` apply
    to every run.  The analytic check integrates ``initial`` on its own
    grid.  The symmetry, elliptic and hydro checks share the reference run
    of the default state to t = 20 on a 0.1 grid, made only when one of
    them runs.  Raises :class:`DomainError` for a negative ``seed`` or a
    ``drift_tol`` that is not positive and finite.
    """
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if not 0.0 < drift_tol < math.inf:
        raise DomainError(f"drift_tol must be a positive finite number, got {drift_tol}")
    rng = np.random.default_rng(seed)
    initial = default_initial_state(kind) if initial is None else initial
    results = drift_checks(initial, kind, config, drift_tol)
    if do_analytic:
        results += analytic_checks(initial, kind, rel_tol=config.rel_tol,
                                   abs_tol=config.abs_tol)
    elliptic = kind is ModelKind.ELLIPTIC_3D
    if do_symmetry or elliptic or do_hydro:
        reference = integrate(default_initial_state(kind), kind, IntegratorConfig(
            t_end=20.0, sample_interval=0.1, rel_tol=config.rel_tol, abs_tol=config.abs_tol))
    if do_symmetry:
        results += symmetry_checks(reference, rng)
    if elliptic:
        results += elliptic_checks(reference, rng)
    if do_hydro:
        results += hydro_checks(reference, rng)
    return results
