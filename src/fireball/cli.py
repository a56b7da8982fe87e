"""Command-line front end: simulate, verify, analytic.

Runs are configured by flags and/or a plain ``key = value`` config file
(``#`` starts a comment); flags override the file.  Trajectories are written
as CSV with run metadata in ``#``-prefixed header lines, verification
reports as JSON.  Exit codes: 0 success, 1 verification failure, 2 usage or
config error, 3 runtime/numeric failure (including any unexpected exception,
whose traceback is logged only at ``FIREBALL_LOG=debug``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys

import numpy as np

from .errors import (ConfigError, DomainError, FireballError, IntegrationError,
                     QuadratureError, UnsupportedModelError)
from .models import ModelKind, State, radius, state_from_components
from .integrate import IntegratorConfig, integrate, sample_grid
from . import analytic, invariants, verification

log = logging.getLogger("fireball.cli")

SCHEMA_VERSION = 1
CSV_COLUMNS = ("t", "X", "Y", "Z", "Xdot", "Ydot", "Zdot", "H", "I", "Itilde", "J")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

# Keys accepted in config files, with their coercions.
_CONFIG_TYPES = {
    "model": str, "X": float, "Y": float, "Z": float,
    "Xdot": float, "Ydot": float, "Zdot": float,
    "t_end": float, "rel_tol": float, "abs_tol": float, "max_step": float,
    "sample_interval": float, "out": str, "format": str, "jobs": int,
    "seed": int, "drift_tol": float, "analytic": bool, "symmetry": bool,
    "hydro": bool, "H": float, "I": float, "t0": float, "phi0": float,
    "sign0": int, "compare": bool,
}

_DEFAULTS = {
    "t_end": 10.0, "rel_tol": 1e-10, "abs_tol": 1e-12, "max_step": math.inf,
    "sample_interval": 0.01, "format": "csv", "jobs": 1, "seed": 0,
    "drift_tol": 1e-8, "analytic": True, "symmetry": True, "hydro": True,
    "t0": 0.0, "phi0": math.pi / 4.0, "sign0": 1, "compare": False,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_file(path: str) -> dict:
    """Read a UTF-8 ``key = value`` file into a typed dict."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        caster = _CONFIG_TYPES[key]
        try:
            values[key] = _parse_bool(text) if caster is bool else caster(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_settings(args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < config file < explicit flags."""
    merged = {k: _DEFAULTS.get(k) for k in keys}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        for key, value in file_values.items():
            if key in keys:
                merged[key] = value
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


_STATE_KEYS = ["model", "X", "Y", "Z", "Xdot", "Ydot", "Zdot"]
_INTEGRATOR_KEYS = ["t_end", "rel_tol", "abs_tol", "max_step", "sample_interval"]


def _model_kind(settings: dict) -> ModelKind:
    if not settings.get("model"):
        raise ConfigError("missing required setting: model")
    return ModelKind.from_name(settings["model"])


def _initial_state(settings: dict, kind: ModelKind) -> State:
    kwargs = {}
    for label in ("X", "Y", "Z"):
        if settings.get(label) is not None:
            kwargs[label] = settings[label]
        rate = settings.get(label + "dot")
        if rate is not None:
            kwargs[label + "dot"] = rate
    return state_from_components(kind, **kwargs)


def _integrator_config(settings: dict) -> IntegratorConfig:
    return IntegratorConfig(t_end=settings["t_end"],
                            sample_interval=settings["sample_interval"],
                            rel_tol=settings["rel_tol"],
                            abs_tol=settings["abs_tol"],
                            max_step=settings["max_step"])


def _fmt(value) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_text(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _trajectory_rows(traj, kind: ModelKind):
    """Rows in the fixed CSV column order, None for absent columns."""
    labels = kind.labels
    H = invariants.hamiltonian_values(traj.qs, traj.qdots, kind)
    J = invariants.noether_values(traj.times, traj.qs, traj.qdots, kind)
    I_vals = invariants.ermakov_values(traj.qs, traj.qdots, kind) \
        if kind.has_ermakov_invariant else None
    rows = []
    for i, t in enumerate(traj.times):
        coords = dict(zip(labels, traj.qs[i]))
        rates = dict(zip(labels, traj.qdots[i]))
        rows.append([
            float(t),
            coords.get("X"), coords.get("Y"), coords.get("Z"),
            rates.get("X"), rates.get("Y"), rates.get("Z"),
            float(H[i]),
            float(I_vals[i]) if I_vals is not None else None,
            2.0 * float(I_vals[i]) if kind is ModelKind.ELLIPTIC_3D else None,
            float(J[i]),
        ])
    return rows


def _meta_lines(command: str, settings: dict, keys: list[str]) -> list[str]:
    pairs = " ".join(f"{k}={settings[k]}" for k in keys if settings.get(k) is not None)
    return [f"# schema={SCHEMA_VERSION}", f"# command={command}", f"# {pairs}"]


def _emit_table(settings: dict, command: str, meta_keys: list[str],
                columns, rows, extra_comments=()) -> None:
    if settings["format"] == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "settings": {k: settings[k] for k in meta_keys if settings.get(k) is not None},
            "columns": list(columns),
            "rows": rows,
        }
        for comment in extra_comments:
            key, _, value = comment.partition("=")
            doc[key] = float(value)
        _write_text(settings.get("out"), json.dumps(doc, indent=2) + "\n")
    elif settings["format"] == "csv":
        lines = _meta_lines(command, settings, meta_keys)
        lines += [f"# {c}" for c in extra_comments]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        _write_text(settings.get("out"), "\n".join(lines) + "\n")
    else:
        raise ConfigError(f"unknown output format {settings['format']!r}")


def _run_simulate(settings: dict) -> int:
    kind = _model_kind(settings)
    initial = _initial_state(settings, kind)
    traj = integrate(initial, kind, _integrator_config(settings))
    meta = _STATE_KEYS + _INTEGRATOR_KEYS
    _emit_table(settings, "simulate", meta, CSV_COLUMNS,
                _trajectory_rows(traj, kind))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    keys = _STATE_KEYS + _INTEGRATOR_KEYS + ["out", "format", "jobs"]
    if not args.configs:
        return _run_simulate(_merge_settings(args, keys))
    # A sweep: each config file in turn, with the flags overriding it.
    runs = [_merge_settings(argparse.Namespace(**{**vars(args), "config": path}), keys)
            for path in args.configs]
    outs = set()
    for path, settings in zip(args.configs, runs):
        out = settings.get("out")
        if not out:
            raise ConfigError(f"config {path} does not set an output path")
        if out in outs:
            raise ConfigError(f"output path {out} used by more than one config")
        outs.add(out)
    jobs = min(args.jobs or _DEFAULTS["jobs"], len(runs), os.cpu_count() or 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_simulate, runs))
    else:
        codes = [_run_simulate(settings) for settings in runs]
    return max(codes)


def cmd_verify(args: argparse.Namespace) -> int:
    keys = _STATE_KEYS + _INTEGRATOR_KEYS + \
        ["out", "format", "seed", "drift_tol", "analytic", "symmetry", "hydro"]
    settings = _merge_settings(args, keys)
    kind = _model_kind(settings)
    initial = None
    if settings.get("X") is not None:
        initial = _initial_state(settings, kind)
    results = verification.run_verification(
        kind, initial, t_end=settings["t_end"], rel_tol=settings["rel_tol"],
        abs_tol=settings["abs_tol"], drift_tol=settings["drift_tol"],
        seed=settings["seed"], do_analytic=settings["analytic"],
        do_symmetry=settings["symmetry"], do_hydro=settings["hydro"])
    passed = all(r.passed for r in results)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "model": kind.value,
        "checks": [r.as_dict() for r in results],
        "passed": passed,
    }
    _write_text(settings.get("out"), json.dumps(doc, indent=2) + "\n")
    for r in results:
        log.info("%-42s %s  value=%.3e threshold=%.3e",
                 r.name, "pass" if r.passed else "FAIL", r.value, r.threshold)
    return 0 if passed else 1


def cmd_analytic(args: argparse.Namespace) -> int:
    keys = _STATE_KEYS + _INTEGRATOR_KEYS + \
        ["out", "format", "H", "I", "t0", "phi0", "sign0", "compare"]
    settings = _merge_settings(args, keys)
    kind = _model_kind(settings)
    if not kind.has_ermakov_invariant:
        raise ConfigError("the analytic command supports the 2d and elliptic models")

    initial = None
    if settings.get("X") is not None:
        initial = _initial_state(settings, kind)
        radial_sol = analytic.RadialSolution.from_state(initial, kind)
        angular_sol = analytic.AngularSolution.from_state(initial, kind)
        grid_start = initial.t
    elif settings.get("H") is not None and settings.get("I") is not None:
        radial_sol = analytic.RadialSolution(energy=settings["H"],
                                             invariant=settings["I"],
                                             t0=settings["t0"])
        angular_sol = analytic.AngularSolution(invariant=settings["I"],
                                               phi0=settings["phi0"],
                                               sign0=settings["sign0"])
        grid_start = settings["t0"]
    else:
        raise ConfigError("analytic needs either an initial state (--X ...) or --H and --I")

    cfg = _integrator_config({**settings, "t_end": grid_start + settings["t_end"]})
    grid = sample_grid(grid_start, cfg.t_end, cfg.sample_interval)
    r, rdot = analytic.radial(radial_sol, grid)
    ttilde = analytic.time_reparam(radial_sol, grid)
    phi, _ = analytic.angular_quadrature(angular_sol, kind, _relative(ttilde))

    extra = []
    if settings["compare"]:
        if initial is None:
            raise ConfigError("--compare requires an initial state (--X ...)")
        traj = integrate(initial, kind, cfg)
        r_num, _ = radius(traj.qs, traj.qdots, kind)
        n = min(len(r_num), len(r))
        extra.append(f"max_delta_r={np.max(np.abs(r_num[:n] - r[:n])):.17g}")

    rows = [[float(grid[i]), float(r[i]), float(rdot[i]), float(ttilde[i]),
             float(phi[i])] for i in range(len(grid))]
    meta = ["model", "H", "I", "t0", "t_end", "sample_interval"]
    settings["H"] = radial_sol.energy
    settings["I"] = radial_sol.invariant
    settings["t0"] = radial_sol.t0
    _emit_table(settings, "analytic", meta, ("t", "r", "rdot", "ttilde", "phi"),
                rows, extra_comments=extra)
    return 0


def _relative(ttilde: np.ndarray) -> np.ndarray:
    """Shift a reparametrized-time grid to start at zero (autonomous motion)."""
    return ttilde - ttilde[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fireball",
        description="Reduced fireball variance dynamics: simulation and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--model", choices=[k.value for k in ModelKind])
        for label in ("X", "Y", "Z"):
            p.add_argument(f"--{label}", type=float)
            p.add_argument(f"--{label}dot", type=float)
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--rel-tol", dest="rel_tol", type=float)
        p.add_argument("--abs-tol", dest="abs_tol", type=float)
        p.add_argument("--max-step", dest="max_step", type=float)
        p.add_argument("--sample-interval", dest="sample_interval", type=float)
        p.add_argument("--out", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=["csv", "json"])

    sim = sub.add_parser("simulate", help="integrate a model and write the trajectory")
    add_common(sim)
    sim.add_argument("configs", nargs="*",
                     help="config files for a parameter sweep (each sets its own out)")
    sim.add_argument("--jobs", type=int, help="concurrent sweep runs")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run the verification suite, emit a JSON report")
    add_common(ver)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--drift-tol", dest="drift_tol", type=float)
    ver.add_argument("--analytic", action=argparse.BooleanOptionalAction)
    ver.add_argument("--symmetry", action=argparse.BooleanOptionalAction)
    ver.add_argument("--hydro", action=argparse.BooleanOptionalAction)
    ver.set_defaults(func=cmd_verify)

    ana = sub.add_parser("analytic", help="evaluate the closed-form radial/angular solution")
    add_common(ana)
    ana.add_argument("--H", type=float, help="energy of the radial law")
    ana.add_argument("--I", type=float, help="invariant of the radial/angular law")
    ana.add_argument("--t0", type=float)
    ana.add_argument("--phi0", type=float)
    ana.add_argument("--sign0", type=int, choices=[-1, 1])
    ana.add_argument("--compare", action="store_true", default=None,
                     help="also integrate numerically and report max |delta r|")
    ana.set_defaults(func=cmd_analytic)
    return parser


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("FIREBALL_LOG", "warn").lower(),
                            logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, DomainError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: run 'fireball {args.command} --help' for accepted settings",
              file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, FireballError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 means only "a check failed"
        log.debug("unexpected failure", exc_info=True)
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
