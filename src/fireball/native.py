"""The Dormand-Prince loop of :mod:`fireball.integrate` as native code, for
a declared field.

:func:`kernel` translates the loop that :func:`fireball.integrate.solve_ode`
would run in Python for a :class:`fireball.dynamics.FieldSource` into C,
builds it once with the system's ``cc`` and loads it with :mod:`ctypes`.
The stage sums, the error norm and the step control come from the same
expressions as the Python loop (:func:`fireball.integrate._step_parts`),
and the field's check, prelude and outputs are translated from the Python
AST of its declaration.  The translator takes only ``+ - * /``, ``**`` (as
the C library's ``pow``, which Python's float power calls), unary minus,
comparisons (chained ones too), ``and``/``or``, numeric constants and the
math functions of :data:`_LIBM` bound in the declaration's ``constants``.
Each of these rounds in C as in Python, so every sample, step decision,
count and error is the Python loop's, bit for bit.  Where Python would
raise instead (a division by zero, ``0.0 ** -1.0``, a negative number to a
fractional power, a power or math function overflowing or leaving its
domain), the C loop stops and the Python loop runs the solve again from
its start, so it raises as before.

The build flags, and why: ``-O2`` for speed; ``-fPIC -shared`` for an
object :mod:`ctypes` can load; ``-ffp-contract=off`` so that no ``a * b +
c`` becomes a fused multiply-add, which rounds once where Python rounds
twice; ``-fno-builtin`` so that ``pow``, ``sin``, ``cos`` and the rest stay
calls into the C library that Python's float power and :mod:`math` call
(GCC would otherwise fold or expand some of them, and the folded values
can differ from the library's in the last bit).  A source that would not
evaluate doubles in double precision (``FLT_EVAL_METHOD != 0``, as on x87)
fails to build.

Shared objects are cached in ``$XDG_CACHE_HOME/fireball`` (else
``~/.cache/fireball``; a per-process temporary directory when neither can
be written), named by a hash of the source, the flags and the platform,
beside the SHA-256 of their bytes: a file that does not match is rebuilt,
not loaded.  A build takes 0.12-0.34 s per kernel (gcc 12 on a 2-vCPU
x86-64 machine); a cached kernel loads in well under a millisecond.
Without a C compiler, or when a build fails, :class:`Unavailable` says why
and the Python loop serves.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import math
import os
import shutil
import sysconfig
import tempfile
import time
from array import array
from string import Template

import numpy as np

from .dynamics import FieldSource
from .integrate import _failure, _step_parts

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")

# The math functions a declaration may bind and call: Python computes each
# as the C library's function of one double, raising where the result is
# NaN from a number or infinite from a finite number.
_LIBM = {getattr(math, name): name for name in (
    "sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh", "exp", "log",
    "sqrt")}

# The C syntax of the forms _step_parts writes.  The error norm's quotient
# goes through py_divide, which stops the loop where Python would raise.
_C_FORMS = {"select": "({test} ? {yes} : {no})", "power": "pow({a}, {b})",
            "divide": "py_divide(&_py, {a}, {b})", "sqrt": "sqrt({x})"}

_STATUS_PYTHON = 4  # the loop met an operation that raises in Python

_PRELUDE = """\
#include <float.h>
#include <math.h>

#if FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision"
#endif

/* Python raises ZeroDivisionError. */
static inline double py_divide(int *py, double a, double b)
{
    if (b == 0.0)
        *py = 1;
    return a / b;
}
"""

_POWER = """
/* Python's float power: ZeroDivisionError for 0 to a negative power, a
   complex result for a negative number to a fractional power, and
   OverflowError for an infinite result from finite operands. */
static inline double py_power(int *py, double a, double b)
{
    double r = pow(a, b);
    if ((a == 0.0 && b < 0.0) || (a < 0.0 && isfinite(a) && isfinite(b) && b != floor(b))
            || (isinf(r) && isfinite(a) && isfinite(b)))
        *py = 1;
    return r;
}
"""

_FUNCTION = Template("""
/* math.$name: ValueError or OverflowError. */
static inline double py_$name(int *py, double x)
{
    double r = $name(x);
    if ((isnan(r) && !isnan(x)) || (isinf(r) && isfinite(x)))
        *py = 1;
    return r;
}
""")

# The loop of fireball.integrate._LOOP.  Status 0: done; 1-3: the codes of
# fireball.integrate._failure, with t, h and y left in scalars and state;
# 4: run the Python loop instead.
_LOOP = Template("""
int fireball_loop(const double *_times, long long _n_samples, double *_out, double *_state,
                  double *_scalars, long long *_counts)
{
    double $locals;
    double _t = _scalars[0], _h = _scalars[1], _abs_tol = _scalars[2];
    double _rel_tol = _scalars[3], _max_step = _scalars[4], _unit = _scalars[5];
    double _t_end = _times[_n_samples - 1], _t_stop, _t_new, _at, _tol, _a, _b, _err, _factor;
    long long _next_idx = _counts[0], _accepted = 0, _rejected = 0, _refused = 0;
    long long _refusals = 0, _row;
    int _py = 0, _status = 0;

$load
    _at = _t_end >= 0.0 ? _t_end : -_t_end;
    _t_stop = _t_end - 1e-14 * (_at > _unit ? _at : _unit);
    _at = _t >= 0.0 ? _t : -_t;
    _tol = 1e-14 * (_at > _unit ? _at : _unit);
    while (_t < _t_stop) {
        if (_max_step < _h)
            _h = _max_step;
        if (_t_end - _t < _h)
            _h = _t_end - _t;
        if (_next_idx < _n_samples && _times[_next_idx] - _t < _h)
            _h = _times[_next_idx] - _t;
        if (_h < _tol) {
            _status = _refusals > 0 ? 1 : 2;
            break;
        }
$stages
        _refusals = 0;
$norm
        if (_py) {
            _status = $python;
            break;
        }
        if (_err <= 1.0) {
            _t_new = _t + _h;
            _at = _t_new >= 0.0 ? _t_new : -_t_new;
            _tol = 1e-14 * (_at > _unit ? _at : _unit);
            while (_next_idx < _n_samples && _times[_next_idx] <= _t_new + _tol) {
$row
                _next_idx++;
            }
            _t = _t_new;
$accept
            _accepted++;
            _factor = $grow;
            if (_factor > 5.0)
                _factor = 5.0;
        } else {
            _rejected++;
            _factor = $shrink;
            if (!(_factor > 0.2))
                _factor = 0.2;
        }
        _h *= _factor;
        continue;
    _refused:
        if (_py) {
            _status = $python;
            break;
        }
        _refusals++;
        if (_refusals > 50) {
            _status = 3;
            break;
        }
        _rejected++;
        _refused++;
        _h *= 0.5;
    }
    if (_status == 0)
        for (_row = _next_idx; _row < _n_samples; _row++) {
$trail
        }
$store
    _scalars[0] = _t;
    _scalars[1] = _h;
    _counts[0] = _accepted;
    _counts[1] = _rejected;
    _counts[2] = _refused;
    return _status;
}
""")

class Unavailable(Exception):
    """The native loop cannot serve a kernel; the message says why."""


class _Translator:
    """C expressions and statements of a :class:`FieldSource`'s Python
    source.  Each value is typed int or float as in Python; arithmetic on
    two ints (Python's exact integers) is refused."""

    _ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
    _COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
                ast.NotEq: "!="}

    def __init__(self, source: FieldSource):
        self.constants = dict(source.constants)
        self.types = {name: float for name in source.args}  # the names assigned so far
        self.functions: set[str] = set()

    @staticmethod
    def parse(text: str, mode: str):
        try:
            return ast.parse(text, mode=mode)
        except SyntaxError as exc:
            raise Unavailable(f"cannot parse {text!r}") from exc

    def number(self, value, text: str) -> tuple[str, type]:
        if type(value) is float and math.isfinite(value):
            return f"({value!r})", float
        if type(value) is int and abs(value) <= 2 ** 53:
            return f"({float(value)!r})", int
        raise Unavailable(f"{text} is not a finite float or an exact integer")

    def value(self, node) -> tuple[str, type]:
        """C expression and Python type of a numeric expression."""
        if isinstance(node, ast.Constant):
            return self.number(node.value, repr(node.value))
        if isinstance(node, ast.Name):
            if node.id in self.types:
                return f"u_{node.id}", self.types[node.id]
            if node.id in self.constants and not callable(self.constants[node.id]):
                return self.number(self.constants[node.id], node.id)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            code, kind = self.value(node.operand)
            return f"(-{code})", kind
        elif isinstance(node, ast.BinOp):
            (a, left), (b, right) = self.value(node.left), self.value(node.right)
            if left is int and right is int:
                raise Unavailable(f"integer arithmetic in {ast.unparse(node)}")
            if type(node.op) in self._ARITHMETIC:
                return f"({a} {self._ARITHMETIC[type(node.op)]} {b})", float
            if isinstance(node.op, ast.Div):
                return f"py_divide(&_py, {a}, {b})", float
            if isinstance(node.op, ast.Pow):
                self.functions.add("pow")
                return f"py_power(&_py, {a}, {b})", float
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and len(node.args) == 1 and not node.keywords):
            function = self.constants.get(node.func.id)
            name = next((name for f, name in _LIBM.items() if f is function), None)
            if name is not None:
                self.functions.add(name)
                return f"py_{name}(&_py, {self.value(node.args[0])[0]})", float
        raise Unavailable(f"cannot translate {ast.unparse(node)}")

    def condition(self, node) -> str:
        """C condition of a comparison, a chain of them, or and/or of these."""
        if isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            return f"({op.join(self.condition(v) for v in node.values)})"
        if isinstance(node, ast.Compare) and all(type(op) in self._COMPARE for op in node.ops):
            terms = [self.value(v)[0] for v in [node.left, *node.comparators]]
            return "(" + " && ".join(f"{a} {self._COMPARE[type(op)]} {b}" for a, op, b
                                     in zip(terms, node.ops, terms[1:])) + ")"
        raise Unavailable(f"cannot translate the condition {ast.unparse(node)}")

    def assign(self, node) -> str:
        """C block of an assignment to a name or a tuple of names."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                targets, values = [target], [node.value]
            elif (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                  and len(target.elts) == len(node.value.elts)
                  and all(isinstance(t, ast.Name) for t in target.elts)):
                targets, values = target.elts, node.value.elts
            else:
                targets = None
            if targets is not None:
                # every value is computed before any name is bound, as in Python
                values = [self.value(v) for v in values]
                lines = []
                for i, (t, (code, kind)) in enumerate(zip(targets, values)):
                    if t.id in self.constants or t.id.startswith("_"):
                        raise Unavailable(f"the prelude assigns {t.id}")
                    lines.append(f"u_{t.id} = _p{i};")
                    self.types[t.id] = kind
                temps = ", ".join(f"_p{i} = {code}" for i, (code, _) in enumerate(values))
                return f"{{ double {temps}; {' '.join(lines)} }}"
        raise Unavailable(f"cannot translate the statement {ast.unparse(node)}")

    def field(self, source: FieldSource) -> tuple[str, list[str], list[str]]:
        """The check, the prelude statements and the outputs, in C."""
        check = self.condition(self.parse(source.positive, "eval").body)
        for name in ast.walk(self.parse(source.refusal, "eval")):
            if isinstance(name, ast.Name) and name.id not in self.types:
                raise Unavailable(f"the refusal reads {name.id}, not an argument")
        prelude = [self.assign(s) for line in source.prelude
                   for s in self.parse(line, "exec").body]
        outputs = []
        for text in source.outputs:
            code, kind = self.value(self.parse(text, "eval").body)
            if kind is int:
                raise Unavailable(f"the output {text} is an integer")
            outputs.append(code)
        return check, prelude, outputs


def c_source(n: int, source: FieldSource) -> str:
    """C source of the Dormand-Prince loop for ``source``, an n-component
    declared field.  Raises :class:`Unavailable` for a declaration the
    translator cannot take."""
    translator = _Translator(source)
    check, prelude, outputs = translator.field(source)
    comps = range(n)
    inputs, norm, grow, shrink = _step_parts(n, _C_FORMS)
    stages = []
    for s, values in enumerate(inputs, 2):
        if s == 7:
            stages += [f"_v_{i} = {x};" for i, x in enumerate(values)]
            values = [f"_v_{i}" for i in comps]
        stages += [f"u_{a} = {x};" for a, x in zip(source.args, values)]
        stages += [f"if (!{check})", "    goto _refused;", *prelude]
        stages += [f"_k{s}_{i} = {out};" for i, out in enumerate(outputs)]

    def block(lines, indent):
        return "\n".join(" " * indent + line for line in lines)

    local = sorted({f"u_{name}" for name in translator.types}
                   | {f"_{stem}_{i}" for stem in ("y", "v", "e", "k1", "k2", "k3", "k4",
                                                   "k5", "k6", "k7") for i in comps})
    helpers = [_PRELUDE] + [_POWER if name == "pow" else _FUNCTION.substitute(name=name)
                            for name in sorted(translator.functions)]
    loop = _LOOP.substitute(
        locals=", ".join(f"{name} = 0.0" for name in local),
        load=block([f"_y_{i} = _state[{i}];" for i in comps]
                   + [f"_k1_{i} = _state[{n + i}];" for i in comps], 4),
        python=_STATUS_PYTHON,
        stages=block(stages, 8),
        norm=block([f"{name} = {value};" for name, value in norm], 8),
        row=block([f"_out[{n} * _next_idx + {i}] = _v_{i};" for i in comps], 16),
        accept=block([f"_y_{i} = _v_{i};" for i in comps]
                     + [f"_k1_{i} = _k7_{i};" for i in comps], 12),
        grow=grow, shrink=shrink,
        trail=block([f"_out[{n} * _row + {i}] = _y_{i};" for i in comps], 12),
        store=block([f"_state[{i}] = _y_{i};" for i in comps], 4))
    return "".join(helpers) + loop


def _compiler() -> str | None:
    """Path of the C compiler, or None."""
    return shutil.which("cc")


@functools.cache
def _private_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory for this process, removed at exit."""
    return tempfile.TemporaryDirectory(prefix="fireball-")


def _cache_dirs():
    """The user cache directory when it can be made, then the process's own."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    user = os.path.join(base, "fireball")
    try:
        os.makedirs(user, exist_ok=True)
    except OSError:
        pass
    else:
        yield user
    yield _private_dir().name


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _intact(path: str) -> bool:
    """Whether ``path`` holds the bytes its ``.sha256`` names."""
    try:
        with open(path, "rb") as obj, open(path + ".sha256") as digest:
            return _digest(obj.read()) == digest.read()
    except OSError:
        return False


def _build(code: str, path: str) -> float:
    """Compile ``code`` into ``path`` beside its digest, in seconds.  Raises
    :class:`Unavailable` when the compiler is missing or fails, OSError when
    the directory cannot be written."""
    cc = _compiler()
    if cc is None:
        raise Unavailable("no C compiler (cc) on PATH")
    import subprocess

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        src, obj = os.path.join(tmp, "loop.c"), os.path.join(tmp, "loop.so")
        with open(src, "w") as f:
            f.write(code)
        try:
            proc = subprocess.run([cc, *FLAGS, "-o", obj, src, "-lm"], capture_output=True,
                                  text=True, timeout=60)
        except (OSError, subprocess.SubprocessError) as exc:
            raise Unavailable(f"{cc} could not run: {exc}") from None
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no message"])[0]
            raise Unavailable(f"{cc} failed ({proc.returncode}): {first}")
        with open(obj, "rb") as f:
            digest = _digest(f.read())
        with open(obj + ".sha256", "w") as f:
            f.write(digest)
        os.replace(obj, path)
        os.replace(obj + ".sha256", path + ".sha256")
    return time.perf_counter() - start


def _library(code: str) -> tuple[str, str]:
    """Path of the shared object of ``code``, from the cache or built, and
    how it was got."""
    key = _digest("\0".join((code, *FLAGS, sysconfig.get_platform())).encode())[:32]
    error = None
    for directory in _cache_dirs():
        path = os.path.join(directory, f"{key}.so")
        if _intact(path):
            return path, f"from the cache ({path})"
        try:
            return path, f"built in {_build(code, path):.2f} s ({path})"
        except OSError as exc:
            error = exc
    raise Unavailable(f"no cache directory could be written: {error}")


def kernel(n: int, source: FieldSource, python):
    """A runner of the native loop for ``source``, as
    :func:`fireball.integrate._run_python` runs the Python one, and how its
    object was got.  ``python`` is that runner, for the solves the C loop
    hands back.  Raises :class:`Unavailable` with the reason when there is
    none."""
    path, how = _library(c_source(n, source))
    try:
        library = ctypes.CDLL(path)
    except OSError as exc:
        raise Unavailable(f"{path} could not be loaded: {exc}") from None
    loop = library.fireball_loop
    loop.argtypes = [ctypes.c_void_p, ctypes.c_longlong] + [ctypes.c_void_p] * 4
    loop.restype = ctypes.c_int

    def run(f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit):
        count = len(times)
        grid = np.ascontiguousarray(grid, dtype=float)
        state = array("d", y)
        try:
            state.extend(f(t, y))
        except TypeError:  # not floats (a complex power): the Python loop raises
            return python(f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit)
        out = array("d", y) * count  # the rows before next_idx are y0
        scalars = array("d", (t, h, abs_tol, rel_tol, max_step, unit))
        counts = array("q", (next_idx, 0, 0))
        status = loop(grid.ctypes.data, count, out.buffer_info()[0], state.buffer_info()[0],
                      scalars.buffer_info()[0], counts.buffer_info()[0])
        if status == _STATUS_PYTHON:
            return python(f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit)
        if status:
            raise _failure(status, scalars[0], scalars[1], state[:n])
        accepted, rejected, refused = counts
        return np.frombuffer(out).reshape(-1, n), accepted, rejected, refused

    run.library = library  # the loaded object, which also marks the runner native
    return run, how
