"""Native code's common ground: the build flags, the translator of declared
Python source into C, and the cache of shared objects.  It imports no other
module of the package.  Only it writes a declaration's C
(:func:`field_function`, :func:`statement_block`); each C form that runs
that C lives beside its Python twin, in :mod:`fireball.integrate`,
:mod:`fireball.invariants` or :mod:`fireball.cli`, and loads its object
with :func:`_library`.

The build flags, and why: ``-O2`` for speed; ``-fPIC -shared`` for an
object :mod:`ctypes` can load; ``-ffp-contract=off`` so that no ``a * b +
c`` becomes a fused multiply-add, which rounds once where Python rounds
twice; ``-fno-builtin`` so that ``pow`` and ``sqrt`` stay calls into the C
library that Python's float power and :func:`math.sqrt` call (GCC would
otherwise fold or expand them, and the folded values can differ from the
library's in the last bit).  A source that would not evaluate doubles in
double precision (``FLT_EVAL_METHOD != 0``, as on x87) fails to build.

:class:`_Translator` turns the Python AST of a declaration into C, and
takes exactly the grammar the package's declarations use: finite float
constants, names (the arguments, and the names the prelude has assigned),
unary minus, ``+ - * /`` and ``**`` (as the C library's ``pow``, which
Python's float power calls) in the values; a ``<`` or ``>`` comparison of
two such values, or ``and`` over such comparisons, as a check; an
assignment to one name per statement.  A declaration outside it raises
:class:`Unavailable`, and the Python form serves it.  Each of these rounds
in C as in Python.  Where Python would raise (a division by zero, ``0.0 **
-1.0``, a negative number to a fractional power, a power overflowing), a
field's helpers (:data:`_PRELUDE`, :data:`_POWER`) set the caller's ``_py``
flag, so that the Python form can run and raise; a statement block's twin is numpy.

Shared objects are cached in ``$XDG_CACHE_HOME/fireball`` (else
``~/.cache/fireball``; a per-process temporary directory when neither can
be written), named by a hash of the source, the flags and the platform,
beside the SHA-256 of their bytes: a file that does not match is rebuilt,
not loaded.  A build takes 0.09-0.25 s (gcc 12 on a 2-vCPU x86-64 machine;
the 3d loop, of six components, takes longest); a cached object loads in
well under a millisecond.  Without a C compiler, or when a build fails,
:class:`Unavailable` says why.
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

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")

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
/* Python's float power stops only for finite operands: ZeroDivisionError
   for 0 to a negative power, a complex result for a negative number to a
   fractional power, and OverflowError for an infinite result. */
static inline double py_power(int *py, double a, double b)
{
    double r = pow(a, b);
    if (((a == 0.0 && b < 0.0) || (a < 0.0 && b != floor(b)) || isinf(r))
            && isfinite(a) && isfinite(b))
        *py = 1;
    return r;
}
"""


class Unavailable(Exception):
    """Native code cannot serve a kernel, the row writer or the report; the
    message says why."""


class _Translator:
    """C expressions and statements of Python source over the names
    ``args`` and its grammar: finite float constants, names, unary minus,
    ``+ - * /`` and ``**`` on floats (the last two setting a ``_py`` flag
    where ``raises``); a ``<`` or ``>`` comparison of two
    of these, or ``and`` over such comparisons, as the check; assignments
    of one name as the prelude.  Anything else raises :class:`Unavailable`."""

    _ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
    _COMPARE = {ast.Lt: "<", ast.Gt: ">"}

    def __init__(self, args, raises=True):
        self.names = set(args)  # the names assigned so far
        self.raises = raises
        self.power = False  # whether a value calls pow

    @staticmethod
    def parse(text: str, mode: str):
        try:
            return ast.parse(text, mode=mode)
        except SyntaxError as exc:
            raise Unavailable(f"cannot parse {text!r}") from exc

    def value(self, node) -> str:
        """C expression of a numeric expression."""
        if isinstance(node, ast.Constant):
            if type(node.value) is float and math.isfinite(node.value):
                return f"({node.value!r})"
        elif isinstance(node, ast.Name):
            if node.id in self.names:
                return f"u_{node.id}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self.value(node.operand)})"
        elif isinstance(node, ast.BinOp):
            a, b = self.value(node.left), self.value(node.right)
            if type(node.op) in self._ARITHMETIC:
                return f"({a} {self._ARITHMETIC[type(node.op)]} {b})"
            if isinstance(node.op, ast.Div):
                return f"py_divide(&_py, {a}, {b})" if self.raises else f"({a} / {b})"
            if isinstance(node.op, ast.Pow):
                self.power = True
                return f"py_power(&_py, {a}, {b})" if self.raises else f"pow({a}, {b})"
        raise Unavailable(f"cannot translate {ast.unparse(node)}")

    def condition(self, node) -> str:
        """C condition of a comparison, or of ``and`` over comparisons."""
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            return f"({' && '.join(self.condition(v) for v in node.values)})"
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and type(node.ops[0]) in self._COMPARE):
            a, b = self.value(node.left), self.value(node.comparators[0])
            return f"({a} {self._COMPARE[type(node.ops[0])]} {b})"
        raise Unavailable(f"cannot translate the condition {ast.unparse(node)}")

    def statements(self, lines) -> list[str]:
        """C blocks of the statements of ``lines``, each an assignment to one name."""
        blocks = []
        for node in (s for line in lines for s in self.parse(line, "exec").body):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                raise Unavailable(f"cannot translate the statement {ast.unparse(node)}")
            code, name = self.value(node.value), node.targets[0].id
            if name.startswith("_"):
                raise Unavailable(f"the prelude assigns {name}")
            self.names.add(name)
            blocks.append(f"{{ double _p0 = {code}; u_{name} = _p0; }}")
        return blocks


def field_function(source) -> tuple[str, str]:
    """The C of a declared field (:class:`fireball.dynamics.FieldSource`):
    the helper text it calls, and ``field(y, k)``, which writes the rates
    at the state ``y`` to ``k`` and returns 0, 1 where the check refuses
    the state, or 2 where Python would raise."""
    translator = _Translator(source.args)
    check = translator.condition(translator.parse(source.positive, "eval").body)
    for name in ast.walk(translator.parse(source.refusal, "eval")):
        if isinstance(name, ast.Name) and name.id not in translator.names:
            raise Unavailable(f"the refusal reads {name.id}, not an argument")
    prelude = translator.statements(source.prelude)
    outputs = [translator.value(translator.parse(text, "eval").body) for text in source.outputs]
    names = [f"u_{a} = y[{i}]" for i, a in enumerate(source.args)]
    names += [f"u_{x}" for x in sorted(translator.names - set(source.args))]
    lines = ["static inline __attribute__((always_inline)) int field(const double *y, double *k)",
             "{", "    int _py = 0;", f"    double {', '.join(names)};",
             f"    if (!{check})", "        return _py ? 2 : 1;",
             *(f"    {line}" for line in prelude),
             *(f"    k[{i}] = {out};" for i, out in enumerate(outputs)),
             "    return _py ? 2 : 0;", "}"]
    return _PRELUDE + (_POWER if translator.power else ""), "\n".join(lines)


def statement_block(inputs: dict[str, str], statements, outputs):
    """The C of one-name statements over named inputs, each given as a C
    expression: the helper text, the names of its locals, its body (the
    inputs' assignments, then the statements') and the names of ``outputs``.
    Its ``/`` and ``**`` are C's, with no flag: numpy's division and
    :func:`fireball.models.power`, ``pow`` per element, round as they do."""
    translator = _Translator(inputs, raises=False)
    body = [f"u_{x} = {code};" for x, code in inputs.items()]
    body += translator.statements(statements)
    return (_PRELUDE, ", ".join(f"u_{x}" for x in sorted(translator.names)), body,
            ", ".join(f"u_{x}" for x in outputs))


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


def _library(code: str) -> tuple[ctypes.CDLL, str]:
    """The shared object of ``code``, from the cache or built, loaded, and
    how it was got."""
    key = _digest("\0".join((code, *FLAGS, sysconfig.get_platform())).encode())[:32]
    error = None
    for directory in _cache_dirs():
        path = os.path.join(directory, f"{key}.so")
        if _intact(path):
            how = f"from the cache ({path})"
            break
        try:
            how = f"built in {_build(code, path):.2f} s ({path})"
            break
        except OSError as exc:
            error = exc
    else:
        raise Unavailable(f"no cache directory could be written: {error}")
    try:
        return ctypes.CDLL(path), how
    except OSError as exc:
        raise Unavailable(f"{path} could not be loaded: {exc}") from None
