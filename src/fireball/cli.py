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
import contextlib
import functools
import logging
import math
import os
import sys
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DomainError, FireballError, IntegrationError,
                     UnsupportedModelError)
from .models import ModelKind, State, radius, state_from_components
from .integrate import IntegratorConfig, integrate, sample_grid
from . import invariants

log = logging.getLogger("fireball.cli")

SCHEMA_VERSION = 1
CSV_COLUMNS = ("t", "X", "Y", "Z", "Xdot", "Ydot", "Zdot", "H", "I", "Itilde", "J")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class Setting(NamedTuple):
    """One setting: its config key, which is also its flag (``--`` + key,
    ``_`` written ``-``), its type, its default, the commands that take it,
    and further :meth:`argparse.ArgumentParser.add_argument` keywords."""

    name: str
    type: type
    default: object
    commands: tuple[str, ...]
    flag: dict = {}


_ALL = ("simulate", "verify", "analytic")
# Trajectory header order; the keywords of state_from_components and IntegratorConfig.
_STATE_KEYS = ("X", "Y", "Z", "Xdot", "Ydot", "Zdot")
_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorConfig))
# One row per setting, in the order the flags appear in --help.  Every key
# is accepted in any command's config file, since one file may serve all
# three commands; a command reads only the keys that name it.
_SETTINGS = (
    Setting("model", str, None, _ALL, {"choices": [k.value for k in ModelKind]}),
    *(Setting(label + rate, float, None, _ALL) for label in "XYZ" for rate in ("", "dot")),
    Setting("t_end", float, 10.0, _ALL),
    *(Setting(f.name, float, f.default, _ALL)
      for f in fields(IntegratorConfig) if f.name != "t_end"),
    Setting("out", str, None, _ALL, {"help": "output path ('-' for stdout)"}),
    Setting("format", str, "csv", ("simulate", "analytic"), {"choices": ["csv", "json"]}),
    Setting("seed", int, 0, ("verify",)),
    Setting("drift_tol", float, 1e-8, ("verify",)),
    Setting("analytic", bool, True, ("verify",)),
    Setting("symmetry", bool, True, ("verify",)),
    Setting("hydro", bool, True, ("verify",)),
    Setting("H", float, None, ("analytic",), {"help": "energy of the radial law"}),
    Setting("I", float, None, ("analytic",), {"help": "invariant of the radial/angular law"}),
    Setting("t0", float, 0.0, ("analytic",)),
    Setting("phi0", float, math.pi / 4.0, ("analytic",)),
    Setting("sign0", int, 1, ("analytic",), {"choices": [-1, 1]}),
    Setting("compare", bool, False, ("analytic",),
            {"action": "store_true",
             "help": "also integrate numerically and report max |delta r|"}),
)
# verify samples its drift check more coarsely than simulate writes rows.
# A command's own default outranks a config file, which may be shared with
# the other commands, and yields only to an explicit flag.
_COMMAND_DEFAULTS = {"verify": {"sample_interval": 0.5}}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_file(path: str) -> dict:
    """Read a UTF-8 ``key = value`` file into a typed dict, each value
    checked against its setting's choices as its flag is."""
    settings = {s.name: s for s in _SETTINGS}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in settings:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ, choices = settings[key].type, settings[key].flag.get("choices")
        try:
            value = _parse_bool(text) if typ is bool else typ(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}, "
                              f"expected one of {choices}")
        values[key] = value
    return values


def _merge_settings(args: argparse.Namespace, command: str) -> dict:
    """The settings ``command`` takes: defaults < config file < the command's
    own defaults < explicit flags."""
    merged = {s.name: s.default for s in _SETTINGS if command in s.commands}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        merged.update({k: v for k, v in file_values.items() if k in merged})
    merged.update(_COMMAND_DEFAULTS.get(command, {}))
    merged.update({k: v for k in merged if (v := getattr(args, k, None)) is not None})
    return merged


def _model_kind(settings: dict) -> ModelKind:
    if not settings.get("model"):
        raise ConfigError("missing required setting: model")
    return ModelKind.from_name(settings["model"])


def _initial_state(settings: dict, kind: ModelKind) -> State:
    state = state_from_components(
        kind, **{k: v for k in _STATE_KEYS if (v := settings.get(k)) is not None})
    with np.errstate(all="ignore"):
        H = float(invariants.hamiltonian_values(state.q, state.qdot, kind))
        C = float(invariants.radial_invariant_values(state.q, state.qdot, kind))
    for name, symbol, value in (("energy", "H", H), ("radial invariant", "C", C)):
        if not math.isfinite(value):
            raise DomainError(f"the initial state's {name} is not finite ({symbol}={value})")
    return state


def _integrator_config(settings: dict) -> IntegratorConfig:
    return IntegratorConfig(**{k: settings[k] for k in _INTEGRATOR_KEYS})


def _write(out: str | None, *chunks) -> None:
    """Write the bytes-like ``chunks`` in order to the file ``out``, or to
    standard output for None and ``-``."""
    if out not in (None, "-"):
        try:
            with open(out, "wb") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc
        return
    stream = sys.stdout
    try:
        stream.flush()
        if hasattr(stream, "buffer"):
            stream.buffer.writelines(chunks)
            stream.buffer.flush()
        else:  # a text stream, such as an io.StringIO
            stream.write(b"".join(chunks).decode())
    except OSError as exc:
        # A closed pipe or a full device: what stays buffered would fail,
        # and be reported, once more at exit, so it goes to the null device.
        with contextlib.suppress(OSError, ValueError):
            fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise ConfigError(f"cannot write standard output: {exc}") from exc


def _trajectory_columns(traj, kind: ModelKind) -> dict[str, np.ndarray]:
    """The CSV columns the model defines, by name."""
    columns = {"t": traj.times, **invariants.invariant_report(traj).values}
    for i, label in enumerate(kind.labels):
        columns[label] = traj.qs[:, i]
        columns[label + "dot"] = traj.qdots[:, i]
    return columns


@functools.cache
def _csv_writer():
    """The native CSV row writer (:func:`fireball.native.csv_writer`), or
    None where the Python rows serve, chosen on first use.  One info record
    says which, and why."""
    from . import native
    try:
        write, how = native.csv_writer()
    except native.Unavailable as exc:
        log.info("CSV rows: Python, %s", exc)
        return None
    log.info("CSV rows: native, %s", how)
    return write


def _emit_table(settings: dict, command: str, meta_keys: list[str],
                columns, data: dict, extra: dict[str, float] = {}) -> None:
    """Write the ``columns`` of ``data`` (name -> 1-d array) as one table.

    A column missing from ``data`` is an empty CSV field and a JSON null.
    Each ``extra`` value is a top-level JSON entry, or a ``# name=value``
    CSV comment line.
    """
    meta = {k: settings[k] for k in meta_keys if settings.get(k) is not None}
    present = [c for c in columns if c in data]
    block = np.column_stack([data[c] for c in present])
    if settings["format"] == "json":
        import json
        table = block.tolist()
        if len(present) < len(columns):
            slots = [present.index(c) if c in data else None for c in columns]
            table = [[None if j is None else row[j] for j in slots] for row in table]
        doc = {"schema": SCHEMA_VERSION, "command": command, "settings": meta,
               "columns": list(columns), "rows": table, **extra}
        _write(settings.get("out"), (json.dumps(doc, indent=2) + "\n").encode())
    else:
        pairs = " ".join(f"{k}={v}" for k, v in meta.items())
        lines = [f"# schema={SCHEMA_VERSION}", f"# command={command}", f"# {pairs}"]
        lines += [f"# {k}={v:.17g}" for k, v in extra.items()]
        lines.append(",".join(columns))
        # 17 significant digits round-trip every float.  The native writer
        # gives the same bytes, and hands each row it declines back here.
        row_format = ",".join("%.17g" if c in data else "" for c in columns) + "\n"
        write = _csv_writer()
        if write is None:
            body = ["".join([row_format % tuple(row) for row in block.tolist()]).encode()]
        else:
            body = write(block, bytes(c in data for c in columns),
                         lambda i: row_format % tuple(block[i].tolist()))
        _write(settings.get("out"), ("\n".join(lines) + "\n").encode(), *body)


def _run_simulate(settings: dict) -> int:
    kind = _model_kind(settings)
    initial = _initial_state(settings, kind)
    traj = integrate(initial, kind, _integrator_config(settings))
    meta = ("model", *_STATE_KEYS, *_INTEGRATOR_KEYS)
    _emit_table(settings, "simulate", meta, CSV_COLUMNS,
                _trajectory_columns(traj, kind))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if not args.configs:
        return _run_simulate(_merge_settings(args, "simulate"))
    if args.config:
        raise ConfigError("--config cannot be combined with sweep config files")
    # A sweep: each config file in turn, with the flags overriding it.
    runs = [_merge_settings(argparse.Namespace(**{**vars(args), "config": path}),
                            "simulate") for path in args.configs]
    outs = set()
    for path, settings in zip(args.configs, runs):
        out = settings.get("out")
        if not out:
            raise ConfigError(f"config {path} does not set an output path")
        # The file it names, however spelled; '-' (standard output) stands alone.
        key = out if out == "-" else os.path.realpath(out)
        if key in outs:
            raise ConfigError(f"output path {out} used by more than one config")
        outs.add(key)
    jobs = min(args.jobs or 1, len(runs), os.cpu_count() or 1)
    if jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_simulate, runs))
    else:
        codes = [_run_simulate(settings) for settings in runs]
    return max(codes)


def cmd_verify(args: argparse.Namespace) -> int:
    import json
    from . import verification
    settings = _merge_settings(args, "verify")
    kind = _model_kind(settings)
    initial = _initial_state(settings, kind) if settings.get("X") is not None else None
    results = verification.run_verification(
        kind, _integrator_config(settings), initial,
        drift_tol=settings["drift_tol"], seed=settings["seed"],
        do_analytic=settings["analytic"], do_symmetry=settings["symmetry"],
        do_hydro=settings["hydro"])
    passed = all(r.passed for r in results)
    doc = {"schema": SCHEMA_VERSION, "command": "verify", "model": kind.value,
           "checks": [r.as_dict() for r in results], "passed": passed}
    _write(settings.get("out"), (json.dumps(doc, indent=2) + "\n").encode())
    for r in results:
        log.info("%-42s %s  value=%.3e threshold=%.3e",
                 r.name, "pass" if r.passed else "FAIL", r.value, r.threshold)
    return 0 if passed else 1


def cmd_analytic(args: argparse.Namespace) -> int:
    from . import analytic
    settings = _merge_settings(args, "analytic")
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
        radial_sol = analytic.RadialSolution(settings["H"], settings["I"], settings["t0"])
        angular_sol = analytic.AngularSolution.from_angle(settings["I"], settings["phi0"],
                                                          settings["sign0"], kind)
        grid_start = settings["t0"]
    else:
        raise ConfigError("analytic needs either an initial state (--X ...) or --H and --I")

    cfg = _integrator_config({**settings, "t_end": grid_start + settings["t_end"]})
    grid = sample_grid(grid_start, cfg.t_end, cfg.sample_interval)
    r, rdot = analytic.radial(radial_sol, grid)
    ttilde = analytic.time_reparam(radial_sol, grid)
    # The angular motion is autonomous: its clock starts at 0.
    phi, _ = analytic.angular_quadrature(angular_sol, kind, ttilde - ttilde[0])

    extra = {}
    if settings["compare"]:
        if initial is None:
            raise ConfigError("--compare requires an initial state (--X ...)")
        traj = integrate(initial, kind, cfg)
        r_num, _ = radius(traj.qs, traj.qdots, kind)
        extra["max_delta_r"] = float(np.max(np.abs(r_num - r)))

    meta = ["model", "H", "I", "t0", "t_end", "sample_interval"]
    settings.update(H=radial_sol.energy, I=radial_sol.invariant, t0=radial_sol.t0)
    _emit_table(settings, "analytic", meta, ("t", "r", "rdot", "ttilde", "phi"),
                {"t": grid, "r": r, "rdot": rdot, "ttilde": ttilde, "phi": phi},
                extra=extra)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fireball",
        description="Reduced fireball variance dynamics: simulation and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
            ("simulate", cmd_simulate, "integrate a model and write the trajectory"),
            ("verify", cmd_verify, "run the verification suite, emit a JSON report"),
            ("analytic", cmd_analytic, "evaluate the closed-form radial/angular solution")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="key = value configuration file")
        for s in _SETTINGS:
            if command in s.commands:
                typed = {str: {}, bool: {"action": argparse.BooleanOptionalAction}}.get(
                    s.type, {"type": s.type})
                p.add_argument("--" + s.name.replace("_", "-"), default=None,
                               **{**typed, **s.flag})
        p.set_defaults(func=func)
    sim = sub.choices["simulate"]
    sim.add_argument("configs", nargs="*",
                     help="config files for a parameter sweep (each sets its own out)")
    sim.add_argument("--jobs", type=int, help="concurrent sweep runs")
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
    except FireballError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 means only "a check failed"
        log.debug("unexpected failure", exc_info=True)
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
