"""What the benchmark measures: workloads, metrics and the links between them.

``BENCHMARK.json`` at the repository root is the contract the runner is
checked against; this module adds what that file has no room for: the layer
each metric belongs to and the end-to-end metric (and workload) a change to
that layer should move.  ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

# The default seed, and a second seed kept out of tuning so that a claimed
# gain can be confirmed on inputs the change was not developed against.
DEFAULT_SEED = 0
VALIDATION_SEED = 7919

# Why each workload exists.  A change that should speed up one of them should
# leave the one that bypasses its mechanism unchanged.
WORKLOADS = {
    "dense_grid": (
        "simulate on a 0.01 grid to t=25, four states per model, plus analytic "
        "--compare: steps set by grid landing, CLI writer and batch invariants busy"),
    "ensemble_sweep": (
        "hundreds of random states through integrate to t=1e4 at a 1e3 grid: steps "
        "set by error tolerance, per-call overhead counts, no CLI; long-horizon drift"),
    "verify_suite": (
        "fireball verify for all four models with default settings: the headline "
        "command, 90% symmetry checks; the only workload running hydro and symmetry"),
}

# name -> (unit, better, bound).  Accuracy is reported in decimal digits,
# -log10(error): the raw maxima of a few random states spread over a decade
# from seed to seed, their logarithms by a few percent.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.2),
    "job_p50_s": ("s", "lower", 0.2),
    "job_tail_s": ("s", "lower", 0.25),
    "closed_form_digits": ("digits", "higher", 0.15),
    "drift_H_digits": ("digits", "higher", 0.15),
    "drift_I_digits": ("digits", "higher", 0.15),
    "drift_J_digits": ("digits", "higher", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

# name -> (unit, better, layer, [(end-to-end metric, workload), ...]).
PER_LAYER = {
    "cli.main.s": ("s", "lower", "cli", [("wall_s", "dense_grid")]),
    "cli.main.calls": ("count", "lower", "cli", [("wall_s", "dense_grid")]),
    "cli.self_s": ("s", "lower", "cli", [("wall_s", "dense_grid")]),
    "cli.bytes_out": ("bytes", "lower", "cli", [("wall_s", "dense_grid")]),
    "verification.drift_checks.s": ("s", "lower", "verification", [("wall_s", "verify_suite")]),
    "verification.analytic_checks.s": ("s", "lower", "verification", [("wall_s", "verify_suite")]),
    "verification.symmetry_checks.s": ("s", "lower", "verification", [("wall_s", "verify_suite")]),
    "verification.elliptic_checks.s": ("s", "lower", "verification", [("wall_s", "verify_suite")]),
    "verification.hydro_checks.s": ("s", "lower", "verification", [("wall_s", "verify_suite")]),
    "integrate.integrate.s": ("s", "lower", "integrate", [("job_p50_s", "ensemble_sweep")]),
    "integrate.integrate.calls": ("count", "lower", "integrate", [("job_p50_s", "ensemble_sweep")]),
    "integrate.integrate.samples": ("count", "lower", "integrate", [("job_p50_s", "ensemble_sweep")]),
    "integrate.self_s": ("s", "lower", "integrate", [("job_p50_s", "ensemble_sweep")]),
    "integrate.solve_ode.s": ("s", "lower", "integrate", [
        ("wall_s", "dense_grid"), ("wall_s", "verify_suite"), ("job_p50_s", "ensemble_sweep")]),
    "integrate.solve_ode.calls": ("count", "lower", "integrate", [
        ("wall_s", "dense_grid"), ("wall_s", "verify_suite"), ("job_p50_s", "ensemble_sweep")]),
    "integrate.solve_ode.rhs_evals": ("count", "lower", "integrate", [
        ("wall_s", "dense_grid"), ("wall_s", "verify_suite"), ("job_p50_s", "ensemble_sweep"),
        ("drift_J_digits", "ensemble_sweep")]),
    "integrate.solve_ode.accepted_steps": ("count", "lower", "integrate", [
        ("wall_s", "dense_grid"), ("wall_s", "verify_suite"), ("job_p50_s", "ensemble_sweep"),
        ("drift_J_digits", "ensemble_sweep")]),
    "integrate.solve_ode.rejected_steps": ("count", "lower", "integrate", [
        ("wall_s", "dense_grid"), ("wall_s", "verify_suite"), ("job_p50_s", "ensemble_sweep")]),
    "integrate.solve_ode.rhs_per_sample": ("rhs/sample", "lower", "integrate", [
        ("wall_s", "dense_grid"), ("wall_s", "verify_suite"), ("job_p50_s", "ensemble_sweep")]),
    "dynamics.accel.s": ("s", "lower", "dynamics", [
        ("wall_s", "dense_grid"), ("wall_s", "ensemble_sweep"), ("wall_s", "verify_suite")]),
    "dynamics.accel.calls": ("count", "lower", "dynamics", [
        ("wall_s", "dense_grid"), ("wall_s", "ensemble_sweep"), ("wall_s", "verify_suite")]),
    "invariants.invariant_report.s": ("s", "lower", "invariants", [("wall_s", "dense_grid")]),
    "invariants.values.s": ("s", "lower", "invariants", [("wall_s", "dense_grid")]),
    "analytic.angular_quadrature.s": ("s", "lower", "analytic", [("wall_s", "dense_grid")]),
    "analytic.angular_quadrature.rhs_evals": ("count", "lower", "analytic", [("wall_s", "dense_grid")]),
    "analytic.radial.s": ("s", "lower", "analytic", [("wall_s", "dense_grid")]),
    "symmetry.ode_residual.s": ("s", "lower", "symmetry", [("wall_s", "verify_suite")]),
    "symmetry.scaled_trajectory.s": ("s", "lower", "symmetry", [("wall_s", "verify_suite")]),
    "symmetry.noether_condition_residual.s": ("s", "lower", "symmetry", [("wall_s", "verify_suite")]),
    "hydro.pde_residuals.s": ("s", "lower", "hydro", [("wall_s", "verify_suite")]),
    "hydro.pde_residuals.calls": ("count", "lower", "hydro", [("wall_s", "verify_suite")]),
    "hydro.total_energy.s": ("s", "lower", "hydro", [("wall_s", "verify_suite")]),
    "hydro.total_energy.calls": ("count", "lower", "hydro", [("wall_s", "verify_suite")]),
    "trace.wall_s": ("s", "lower", "trace", []),
    "trace.overhead_s": ("s", "lower", "trace", []),
    "trace.unaccounted_s": ("s", "lower", "trace", []),
}
