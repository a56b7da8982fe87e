"""Command-line front end: simulate, verify, analytic.

Runs are configured by flags and/or a plain ``key = value`` config file
(``#`` starts a comment); flags override the file.  Trajectories are written
as CSV with run metadata in ``#``-prefixed header lines, verification
reports as JSON.  Exit codes: 0 success, 1 verification failure, 2 usage or
config error, 3 runtime/numeric failure (including any unexpected exception,
whose traceback is logged only at ``FIREBALL_LOG=debug``).

CSV rows are Python's ``"%.17g" % x`` of each value (``_emit_table``'s
``row_format``), or the same bytes from the C twin of that format,
:data:`CSV_SOURCE`, one fixed source that :func:`_csv_writer` builds with
:mod:`fireball.native` and loads.  For ``x = m 2**e`` (``m`` the 53-bit
significand) the binary exponent gives ``k0``, which is ``floor(log10
|x|)`` or one more, and one exact scale settles it: the floor of ``|x|
10**s`` for ``s = 17 - k0`` has 18 digits where ``k0`` is right and 17
where it is one too high.  That floor is ``m 5**s`` shifted by ``e + s``
bits for ``s >= 0``, or ``m 2**e`` divided by ``10**-s``, in ``unsigned
__int128``, and the bits or the remainder it drops say whether the rest
is zero, below, at or above one half.  With 18 digits, the 18th and
whether anything below it is nonzero fold into that same comparison, one
digit down.  The 17 digits are then rounded half to even, as Python's
correctly rounded conversion does, and a carry to 10**17 moves the
exponent up one, as in C's ``%g``, which takes its exponent after
rounding.  ``m 5**s`` fits in 128 bits for ``s <= 32`` only; a larger
``s`` (``|x|`` near 1e-16 and below) is lowered to 32, where a value in
the range still gives 17 digits.  The layout is ``%g``'s: e-notation for
an exponent below -4 or from 17 up, fixed otherwise, trailing zeros
stripped, ``0`` and ``-0`` for the zeros.  The digits are laid out by
copies of fixed sizes (no ``memcpy`` call, which ``-fno-builtin`` would
make of a copy of variable length) in a local buffer, and the text goes
out in one fixed copy of 24 bytes; every text is 23 bytes at most, so a
field, its comma included, stays inside the 25 bytes per field that
:func:`_csv_writer` allocates.  The writer declines NaN, the infinities and
every value outside ``10**-16 <= |x| < 2**128``; the row with such a
value comes from Python instead, and the writer resumes at the row after
it.  It builds once per machine and cache, in 0.10-0.14 s, as a loop
kernel does.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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
from . import dynamics, invariants

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
        H, C = dynamics.evaluate(kind, ("H", "C"), state.q, state.qdot)
    for name, symbol, value in (("energy", "H", float(H)), ("radial invariant", "C", float(C))):
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


# The CSV row writer (_csv_writer): one fixed source.
CSV_SOURCE = r"""#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL, 2384185791015625ULL,
    11920928955078125ULL, 59604644775390625ULL, 298023223876953125ULL,
    1490116119384765625ULL, 7450580596923828125ULL};

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL

/* floor(m 2^e 10^s) into *q, for m < 2^53, e <= 75 and s >= -21, and
   in *rest how the fraction it drops compares with 1/2: 0 when it is zero,
   1 below, 2 equal, 3 above.  The floor is exact: m 5^s shifted by e + s
   bits, or m 2^e divided by 10^-s, in 128 bits.  m 5^s fits only for
   s <= 32 (5^32 < 2^75), so a larger s is lowered to 32, in *s too; the
   floor then has a digit fewer. */
static void scale(uint64_t m, int e, int *s, uint64_t *q, int *rest)
{
    u128 n, p;
    int shift;

    if (*s > 32)
        *s = 32;
    if (*s < 0) {
        for (p = 1, shift = *s; shift < 0; shift++)
            p *= 10;
        n = (u128)m << e; /* s < 0 only where |x| >= 2^59, so e > 0 */
        *q = (uint64_t)(n / p);
        n %= p; /* 2 n < 2 p < 2^128 */
        *rest = (n != 0) + (2 * n >= p) + (2 * n > p);
        return;
    }
    p = *s <= 27 ? (u128)POW5[*s] : (u128)POW5[27] * POW5[*s - 27];
    n = (u128)m * p;
    shift = e + *s; /* m 2^e 10^s = n 2^shift */
    if (shift >= 0) {
        *q = (uint64_t)(n << shift); /* an integer below 10^18 */
        *rest = 0;
    } else if (shift > -128) {
        shift = -shift;
        *q = (uint64_t)(n >> shift);
        n &= ((u128)1 << shift) - 1;
        p = (u128)1 << (shift - 1);
        *rest = (n != 0) + (n >= p) + (n > p);
    } else { /* |x| < 2^-107: 0, below the range */
        *q = 0;
        *rest = 1;
    }
}

/* x, finite and not zero, as C's %.17g writes it, at p.  Returns the end,
   or NULL outside 10^-16 <= |x| < 2^128.  Writes 24 bytes at p whatever
   the length of x's text (23 at most). */
static char *put_value(char *p, double x)
{
    uint64_t bits, m, q;
    uint32_t eight;
    int e, s, k, rest, digit, last, length, i, j;
    char digits[40], text[40], *t = text + 1;

    __builtin_memcpy(&bits, &x, sizeof bits);
    m = bits & ((1ULL << 52) - 1);
    e = (int)(bits >> 52) & 0x7ff;
    if (e) {
        m |= 1ULL << 52;
        e -= 1075;
    } else {
        e = -1074;
    }
    if (e > 75)
        return NULL; /* |x| >= 2^128 */
    /* 2^(b-1) <= |x| < 2^b for b = e + 64 - clz(m), so floor(b log10 2)
       (78913 / 2^18 gives it for |b| < 1100) is floor(log10 |x|) or one
       more, and |x| 10^(17 - it) has 17 or 18 digits before the point */
    k = (e + 64 - __builtin_clzll(m)) * 78913 >> 18;
    s = 17 - k;
    scale(m, e, &s, &q, &rest);
    if (q >= TEN17) {
        /* 18 digits: the 18th and the fraction below it decide the rounding */
        digit = (int)(q % 10);
        q /= 10;
        rest = digit != 5 ? (digit > 5 ? 3 : 1) : rest ? 3 : 2;
        k = 17 - s;
    } else if (q >= TEN16) {
        k = 16 - s;
    } else {
        return NULL; /* |x| < 10^-16 */
    }
    /* round half to even; a carry to 10^17 moves to the next decade */
    q += (rest + (q & 1)) > 2;
    if (q == TEN17) {
        q = TEN16;
        k++;
    }
    digits[0] = (char)('0' + q / TEN16);
    q %= TEN16;
    for (i = 0; i < 2; i++) {
        eight = (uint32_t)(i ? q % 100000000 : q / 100000000);
        for (j = 0; j < 4; j++) {
            __builtin_memcpy(digits + 8 * i + 7 - 2 * j, PAIRS + 2 * (eight % 100), 2);
            eight /= 100;
        }
    }
    for (last = 16; digits[last] == '0'; last--)
        ;
    /* %g: e-notation for an exponent below -4 or from the precision up,
       trailing zeros stripped either way.  The text is laid out at t with
       copies of a fixed size, which may run past its end (up to t + 34),
       and then copied to p in one fixed copy. */
    if (k < -4 || k >= 17) {
        t[0] = digits[0];
        t[1] = '.';
        __builtin_memcpy(t + 2, digits + 1, 16);
        length = last ? last + 2 : 1;
        t[length] = 'e';
        t[length + 1] = k < 0 ? '-' : '+';
        __builtin_memcpy(t + length + 2, PAIRS + 2 * (k < 0 ? -k : k), 2); /* |k| <= 38 */
        length += 4;
    } else if (k >= 0) {
        __builtin_memcpy(t, digits, 17);
        t[k + 1] = '.';
        __builtin_memcpy(t + k + 2, digits + k + 1, 16);
        length = last > k ? last + 2 : k + 1;
    } else {
        __builtin_memcpy(t, "0.000", 5);
        __builtin_memcpy(t + 1 - k, digits, 17);
        length = 2 - k + last;
    }
    text[0] = '-';
    i = (int)(bits >> 63);
    __builtin_memcpy(p, t - i, 24);
    return p + i + length;
}

/* The CSV lines of rows first.. of block, a C-contiguous (rows, fields)
   array, at out: a value where present[column] is set, an empty field
   where not.  Stops before a row holding a value that is not finite or
   that put_value declines.  Returns that row, or rows when every row is
   written, and the bytes written in *written.  Each field writes at most
   25 bytes from its comma on. */
long long fireball_csv_rows(const double *block, long long rows, long long first,
                            const unsigned char *present, long long columns, char *out,
                            long long *written)
{
    long long fields = 0, row, column;
    const double *value;
    char *p = out, *line;

    for (column = 0; column < columns; column++)
        fields += present[column] != 0;
    for (row = first; row < rows; row++) {
        value = block + row * fields;
        line = p;
        for (column = 0; column < columns; column++) {
            if (column)
                *p++ = ',';
            if (!present[column])
                continue;
            if (*value == 0.0) {
                if (signbit(*value))
                    *p++ = '-';
                *p++ = '0';
            } else if (!isfinite(*value) || !(p = put_value(p, *value))) {
                p = line;
                goto declined;
            }
            value++;
        }
        *p++ = '\n';
    }
declined:
    *written = p - out;
    return row;
}
"""
# The bytes a field may take: its comma and put_value's fixed copy of 24
# bytes, which holds the longest text, -0.00012345678901234567 (23 bytes).
_FIELD_BYTES = 25


@functools.cache
def _csv_writer():
    """The writer of CSV rows with the object of :data:`CSV_SOURCE`, or None
    where the Python rows serve, chosen on first use.  One info record says
    which, and why.

    ``write(block, present, python_row)`` returns the lines of the rows of
    ``block``, a (rows, fields) float array, as a list of bytes-like chunks
    to be written in order: for each byte of ``present`` a field,
    ``%.17g`` of the row's next value where the byte is set and empty where
    it is zero, joined by commas, and a newline.  ``python_row(i)`` gives
    the line (a str) of each row i the writer declines."""
    from . import native
    try:
        library, how = native._library(CSV_SOURCE)
    except native.Unavailable as exc:
        log.info("CSV rows: Python, %s", exc)
        return None
    rows = library.fireball_csv_rows
    rows.argtypes = [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong, ctypes.c_char_p,
                     ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p]
    rows.restype = ctypes.c_longlong

    def write(block, present: bytes, python_row) -> list:
        block = np.ascontiguousarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != len(present) - present.count(0):
            raise ValueError(f"a {block.shape} block for {len(present)} columns, "
                             f"{len(present) - present.count(0)} of them present")
        count = len(block)
        out = np.empty(count * (_FIELD_BYTES * len(present) + 1), dtype=np.uint8)
        base, view, written = out.ctypes.data, memoryview(out), ctypes.c_longlong()
        chunks, row, end = [], 0, 0
        while True:
            row = rows(block.ctypes.data, count, row, present, len(present), base + end,
                       ctypes.byref(written))
            chunks.append(view[end:end + written.value])
            end += written.value
            if row == count:
                return chunks
            chunks.append(python_row(row).encode("ascii"))
            row += 1

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


class _NegativeNumber:
    """argparse's test of whether an argument that starts with ``-`` is a
    value rather than an option: any text ``float`` takes (``-1e-3``,
    ``-.5e1``, ``-inf``), where Python 3.11's pattern takes only ``-5`` and
    ``-0.5``.  No option of the parsers looks like a number."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return text.startswith("-")


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
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NegativeNumber
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
