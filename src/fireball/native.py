"""Native code: the Dormand-Prince loop of :mod:`fireball.integrate` for a
declared field, the CLI's CSV row writer and the invariant report's pass.

:func:`kernel` runs the Python stepper of
:func:`fireball.integrate.solve_ode` (:func:`fireball.integrate._run_python`)
as C for a :class:`fireball.dynamics.FieldSource`, built once with the
system's ``cc`` and loaded with :mod:`ctypes`.  The loop is one fixed C
source, :data:`_LOOP`, written line for line beside the Python stepper
over arrays of the state's components.  :func:`c_source` puts a header in
front of it: the component count, the stage sums and the error estimate
over the tableau, term for term as the stepper computes them, and the
field as ``field(y, k)``, translated from the Python AST of its
declaration.  The translator takes exactly the grammar the package's
declarations use: finite float constants, names (the arguments, and the
names the prelude has assigned), unary minus, ``+ - * /`` and ``**`` (as
the C library's ``pow``, which Python's float power calls) in the outputs
and the prelude; a ``<`` or ``>`` comparison of two such values, or
``and`` over such comparisons, as the check; an assignment to one name per
prelude statement.  A declaration outside it raises :class:`Unavailable`,
and the Python stepper serves it.  Each of these rounds in C as in
Python, so every sample, step decision, count and error is the Python
stepper's, bit for bit.  Where Python would raise instead (a division by
zero, ``0.0 ** -1.0``, a negative number to a fractional power, a power
overflowing), ``field`` returns 2 and the loop stops; the Python stepper
then runs the solve again from its start, so it raises as before.  The
loop evaluates the field at y0 too: a native solve never calls Python's
``f``.  The step control calls ``pow`` only where the step factor does not
cap, as the Python stepper does, and the package's declarations call at
most one ``pow`` per stage (none for the 1d and 2d fields).

The build flags, and why: ``-O2`` for speed; ``-fPIC -shared`` for an
object :mod:`ctypes` can load; ``-ffp-contract=off`` so that no ``a * b +
c`` becomes a fused multiply-add, which rounds once where Python rounds
twice; ``-fno-builtin`` so that ``pow`` and the error norm's ``sqrt``
stay calls into the C library that Python's float power and
:func:`math.sqrt` call (GCC would otherwise fold or expand them, and the
folded values can differ from the library's in the last bit).  A source that would not
evaluate doubles in double precision (``FLT_EVAL_METHOD != 0``, as on x87)
fails to build.

:func:`csv_writer` loads one fixed C source, :data:`CSV_SOURCE`, that
writes a float64 block as CSV lines, each value as Python's ``"%.17g" %
x`` writes it, byte for byte.  For ``x = m 2**e`` (``m`` the 53-bit
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
:func:`csv_writer` allocates.  The writer declines NaN, the infinities and
every value outside ``10**-16 <= |x| < 2**128``; the row with such a
value comes from Python instead, and the writer resumes at the row after
it.  It builds once per machine and cache, in 0.10-0.14 s, as a kernel
does.

:func:`report_kernel` loads :func:`report_source`, the invariants' one
declaration (:func:`fireball.invariants._declaration`) translated into a
pass per model over a trajectory's rows, in place through their strides: it
computes the report's series from numpy's V with numpy's bits (the
declaration uses only ``+ - *``), and their largest deviations.  An address
fetched from numpy costs 1.2-2 us (on the machine below), so a call fetches
three, those of the times and the two row arrays; its output block is an
:class:`array.array`, whose address is cheap.

Shared objects are cached in ``$XDG_CACHE_HOME/fireball`` (else
``~/.cache/fireball``; a per-process temporary directory when neither can
be written), named by a hash of the source, the flags and the platform,
beside the SHA-256 of their bytes: a file that does not match is rebuilt,
not loaded.  A build takes 0.10-0.25 s per kernel (gcc 12 on a 2-vCPU
x86-64 machine; the 3d loop, of six components, takes longest) and
0.09 s for the report's pass; a cached object loads in well under a
millisecond.
Without a C compiler, or when a build fails, :class:`Unavailable` says why
and the Python stepper, Python's row formatting or numpy's report serves.
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
from .integrate import _A, _CAPPED_ERR, _E, _failure
from .invariants import _SERIES, _declaration, _report_potential
from .models import ModelKind

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")

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

# The step loop of fireball.integrate._run_python, line for line, behind
# c_source's header.  Status 0: done; 1-3 and 5: the codes of
# fireball.integrate._failure, with t, h and y left in scalars and state;
# STATUS_PYTHON: an operation raises in Python, so the Python stepper runs
# the solve.  Without the unroll pragmas (GCC does not unroll the component
# loops fully at -O2) a step took up to twice the time.
_LOOP = """
int fireball_loop(const double *times, long long n_samples, double *out, double *state,
                  double *scalars, long long *counts)
{
    double y[N], y_new[N], stage[N], k1[N], k2[N], k3[N], k4[N], k5[N], k6[N], k7[N];
    double t = scalars[0], h = scalars[1], abs_tol = scalars[2], rel_tol = scalars[3];
    double max_step = scalars[4], unit = scalars[5], t_end = times[n_samples - 1];
    double t_stop, tol, t_new, at, u, v, e, sq, err, factor;
    long long next_idx = counts[0], accepted = 0, rejected = 0, refused = 0, refusals = 0;
    int i, fault, py = 0, status = 0;

    _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
        y[i] = state[i];
    at = t_end >= 0.0 ? t_end : -t_end;
    t_stop = t_end - 1e-14 * (at > unit ? at : unit);
    at = t >= 0.0 ? t : -t;
    tol = 1e-14 * (at > unit ? at : unit);
    if (field(y, k1))
        return STATUS_PYTHON; /* the Python stepper raises at y0 */
    while (t < t_stop) {
        if (max_step < h)
            h = max_step;
        if (t_end - t < h)
            h = t_end - t;
        if (next_idx < n_samples && times[next_idx] - t < h)
            h = times[next_idx] - t;
        if (h < tol) {
            status = refusals > 0 ? 1 : 2;
            break;
        }
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
            stage[i] = S2(i);
        if ((fault = field(stage, k2)))
            goto stage_refused;
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
            stage[i] = S3(i);
        if ((fault = field(stage, k3)))
            goto stage_refused;
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
            stage[i] = S4(i);
        if ((fault = field(stage, k4)))
            goto stage_refused;
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
            stage[i] = S5(i);
        if ((fault = field(stage, k5)))
            goto stage_refused;
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
            stage[i] = S6(i);
        if ((fault = field(stage, k6)))
            goto stage_refused;
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
            y_new[i] = S7(i);
        if ((fault = field(y_new, k7)))
            goto stage_refused;
        refusals = 0;
        sq = 0.0;
        _Pragma("GCC unroll 16") for (i = 0; i < N; i++) {
            u = y[i] >= 0.0 ? y[i] : -y[i];
            v = y_new[i] >= 0.0 ? y_new[i] : -y_new[i];
            e = py_divide(&py, ERR(i), abs_tol + rel_tol * (u > v ? u : v));
            sq += e * e;
        }
        if (py)
            return STATUS_PYTHON;
        err = sqrt(sq / N);
        if (err <= 1.0) {
            _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
                if (!isfinite(y_new[i]))
                    status = 5;
            if (status)
                break;
            t_new = t + h;
            at = t_new >= 0.0 ? t_new : -t_new;
            tol = 1e-14 * (at > unit ? at : unit);
            while (next_idx < n_samples && times[next_idx] <= t_new + tol) {
                _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
                    out[N * next_idx + i] = y_new[i];
                next_idx++;
            }
            t = t_new;
            _Pragma("GCC unroll 16") for (i = 0; i < N; i++) {
                y[i] = y_new[i];
                k1[i] = k7[i];
            }
            accepted++;
            factor = err > CAPPED_ERR ? 0.9 * pow(err, -0.2) : 5.0;
            if (factor > 5.0)
                factor = 5.0;
        } else {
            rejected++;
            factor = 0.9 * pow(err, -0.2);
            if (!(factor > 0.2))
                factor = 0.2;
        }
        h *= factor;
        continue;
    stage_refused:
        if (fault == 2)
            return STATUS_PYTHON;
        refusals++;
        if (refusals > 50) {
            status = 3;
            break;
        }
        rejected++;
        refused++;
        h *= 0.5;
    }
    if (status == 0)
        for (; next_idx < n_samples; next_idx++) {
            _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
                out[N * next_idx + i] = y[i];
        }
    _Pragma("GCC unroll 16") for (i = 0; i < N; i++)
        state[i] = y[i];
    scalars[0] = t;
    scalars[1] = h;
    counts[0] = accepted;
    counts[1] = rejected;
    counts[2] = refused;
    return status;
}
"""

# The CSV row writer (csv_writer): one fixed source.
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


# The function of the invariant report's source (report_source) for a model.
_REPORT = Template("""
void fireball_report_$model(long long n, const double *t, long long ts,
        const double *q, long long qr, long long qc,
        const double *v, long long vr, long long vc, double *out)
{
    double *deviation = out + ($count + 1) * n, *first = deviation + $count;
    double $locals, x;
    long long i, j;

    for (j = 0; j < $count; j++)
        deviation[j] = 0.0;
    for (i = 0; i < n; i++) {
$body
        double value[] = {$values};
        for (j = 0; j < $count; j++) {
            out[(j + 1) * n + i] = value[j];
            if (i == 0)
                first[j] = value[j];
            /* np.maximum.reduce: a NaN, once met, stays */
            x = __builtin_fabs(value[j] - first[j]);
            if (x > deviation[j] || x != x)
                deviation[j] = x;
        }
    }
}
""")


class Unavailable(Exception):
    """Native code cannot serve a kernel, the row writer or the report; the
    message says why."""


class _Translator:
    """C expressions and statements of Python source over the names
    ``args`` and its grammar: finite float constants, names, unary minus,
    ``+ - * /`` and ``**`` on floats; a ``<`` or ``>`` comparison of two
    of these, or ``and`` over such comparisons, as the check; assignments
    of one name as the prelude.  Anything else raises :class:`Unavailable`."""

    _ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
    _COMPARE = {ast.Lt: "<", ast.Gt: ">"}

    def __init__(self, args):
        self.names = set(args)  # the names assigned so far
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
                return f"py_divide(&_py, {a}, {b})"
            if isinstance(node.op, ast.Pow):
                self.power = True
                return f"py_power(&_py, {a}, {b})"
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

    def assign(self, node) -> str:
        """C block of an assignment to one name."""
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            code, name = self.value(node.value), node.targets[0].id
            if name.startswith("_"):
                raise Unavailable(f"the prelude assigns {name}")
            self.names.add(name)
            return f"{{ double _p0 = {code}; u_{name} = _p0; }}"
        raise Unavailable(f"cannot translate the statement {ast.unparse(node)}")

    def field(self, source: FieldSource) -> tuple[str, list[str], list[str]]:
        """The check, the prelude statements and the outputs, in C."""
        check = self.condition(self.parse(source.positive, "eval").body)
        for name in ast.walk(self.parse(source.refusal, "eval")):
            if isinstance(name, ast.Name) and name.id not in self.names:
                raise Unavailable(f"the refusal reads {name.id}, not an argument")
        prelude = [self.assign(s) for line in source.prelude
                   for s in self.parse(line, "exec").body]
        outputs = [self.value(self.parse(text, "eval").body) for text in source.outputs]
        return check, prelude, outputs


def c_source(n: int, source: FieldSource) -> str:
    """C source of the Dormand-Prince loop for ``source``, an n-component
    declared field: :data:`_LOOP` behind a header of N, the stage sums
    S2-S7 and the error estimate ERR, each component the plain sum ``y[i] +
    h * (a_s1 * k1[i] + ...)`` over the nonzero tableau entries in tableau
    order with exact float literals, and ``field(y, k)``, which writes the
    rates to k and returns 0, 1 where its check refuses the state, or 2
    where Python would raise.  Raises :class:`Unavailable` for a
    declaration the translator cannot take."""
    translator = _Translator(source.args)
    check, prelude, outputs = translator.field(source)

    def weighted(weights):
        return " + ".join(f"{w!r} * k{j}[i]" for j, w in enumerate(weights, 1) if w != 0.0)

    names = [f"u_{a} = y[{i}]" for i, a in enumerate(source.args)]
    names += [f"u_{x}" for x in sorted(translator.names - set(source.args))]
    header = [f"#define N {n}", f"#define CAPPED_ERR {_CAPPED_ERR!r}",
              f"#define STATUS_PYTHON {_STATUS_PYTHON}",
              *(f"#define S{s}(i) (y[i] + h * ({weighted(_A[s - 1])}))" for s in range(2, 8)),
              f"#define ERR(i) (h * ({weighted(_E)}))", "",
              "static inline __attribute__((always_inline)) int field(const double *y, double *k)",
              "{", "    int _py = 0;", f"    double {', '.join(names)};",
              f"    if (!{check})", "        return _py ? 2 : 1;",
              *(f"    {line}" for line in prelude),
              *(f"    k[{i}] = {out};" for i, out in enumerate(outputs)),
              "    return _py ? 2 : 0;", "}"]
    helpers = [_PRELUDE, _POWER] if translator.power else [_PRELUDE]
    return "".join(helpers) + "\n" + "\n".join(header) + "\n" + _LOOP


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


def _load(path: str) -> ctypes.CDLL:
    try:
        return ctypes.CDLL(path)
    except OSError as exc:
        raise Unavailable(f"{path} could not be loaded: {exc}") from None


def kernel(n: int, source: FieldSource, python):
    """A runner of the native loop for ``source``, called as
    :func:`fireball.integrate._run_python` is, and how its object was got.
    ``python`` is that stepper, for the solves the C loop hands back.
    Raises :class:`Unavailable` with the reason when there is none."""
    path, how = _library(c_source(n, source))
    library = _load(path)
    loop = library.fireball_loop
    loop.argtypes = [ctypes.c_void_p, ctypes.c_longlong] + [ctypes.c_void_p] * 4
    loop.restype = ctypes.c_int

    def run(f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit):
        count = len(times)
        grid = np.ascontiguousarray(grid, dtype=float)
        state = array("d", y)
        out = array("d", y) * count  # the rows before next_idx are y0
        scalars = array("d", (t, h, abs_tol, rel_tol, max_step, unit))
        counts = array("q", (next_idx, 0, 0))
        status = loop(grid.ctypes.data, count, out.buffer_info()[0], state.buffer_info()[0],
                      scalars.buffer_info()[0], counts.buffer_info()[0])
        if status == _STATUS_PYTHON:
            return python(f, t, h, y, grid, times, next_idx, abs_tol, rel_tol, max_step, unit)
        if status:
            raise _failure(status, scalars[0], scalars[1], state)
        accepted, rejected, refused = counts
        return np.frombuffer(out).reshape(-1, n), accepted, rejected, refused

    run.library = library  # the loaded object, which also marks the runner native
    return run, how


# The bytes a field may take: its comma and put_value's fixed copy of 24
# bytes, which holds the longest text, -0.00012345678901234567 (23 bytes).
_FIELD_BYTES = 25


def csv_writer():
    """A writer of CSV rows with the object of :data:`CSV_SOURCE`, and how
    that object was got.  Raises :class:`Unavailable` with the reason when
    there is none.

    ``write(block, present, python_row)`` returns the lines of the rows of
    ``block``, a (rows, fields) float array, as a list of bytes-like chunks
    to be written in order: for each byte of ``present`` a field,
    ``%.17g`` of the row's next value where the byte is set and empty where
    it is zero, joined by commas, and a newline.  ``python_row(i)`` gives
    the line (a str) of each row i the writer declines."""
    path, how = _library(CSV_SOURCE)
    rows = _load(path).fireball_csv_rows
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

    return write, how


def _doubles(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` and its address, or a C-ordered copy and the copy's where the
    address or a stride is not a whole number of doubles, which C cannot
    read in place."""
    address = a.ctypes.data
    if (address | a.strides[0] | a.strides[-1]) & 7:
        a = np.array(a, order="C")
        address = a.ctypes.data
    return a, address


def report_source() -> str:
    """C source of the invariant report: for each model the statements of
    :func:`fireball.invariants._declaration` translated into the row loop
    of ``fireball_report_<model>`` (``fireball_report_1d`` for ``1d``).
    Sample i reads t[i * ts], q[i * qr + k * qc] and v[i * vr + k * vc];
    ``out`` holds V in its first n values, and the function writes the
    report's series after them, n values each, then the largest
    |x - x(0)| of each series and each one's first value."""
    functions = []
    for kind, series in _SERIES.items():
        columns, statements = _declaration(kind, series)
        translator = _Translator(("t", "V", *(x for x, _, _ in columns)))
        body = ["u_t = t[i * ts];", "u_V = out[i];",
                *(f"u_{x} = {a}[i * {a}r + {k} * {a}c];" for x, a, k in columns),
                *(translator.assign(translator.parse(line, "exec").body[0]) for line in statements)]
        functions.append(_REPORT.substitute(
            model=kind.value, count=len(series),
            locals=", ".join(f"u_{name}" for name in sorted(translator.names)),
            body="\n".join(8 * " " + line for line in body),
            values=", ".join(f"u_{name}" for name in series)))
    return _PRELUDE + "".join(functions)


def report_kernel():
    """A runner of :func:`report_source`'s one pass over a trajectory, and
    how its object was got.  Raises :class:`Unavailable` with the reason
    when there is none.

    ``run(kind, times, qs, qdots)`` reads the (n,) ``times`` and the (n, d)
    ``qs`` and ``qdots`` of a model ``kind`` in place, through their strides
    (:func:`_doubles` says which arrays it copies first), and raises
    ValueError for arrays of other shapes or types.  It takes V from
    :func:`fireball.invariants._report_potential` and returns the series of
    :func:`fireball.invariants.invariant_report` in its order, as (n,)
    arrays, and the largest deviation and the first value of each, as lists
    of floats."""
    path, how = _library(report_source())
    library = _load(path)
    rows = [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong]  # q, qr, qc; v, vr, vc
    passes = {kind: getattr(library, f"fireball_report_{kind.value}") for kind in ModelKind}
    for report in passes.values():
        report.argtypes = [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_longlong, *rows, *rows,
                           ctypes.c_void_p]
        report.restype = None

    def run(kind, times, qs, qdots):
        n, d = len(times), kind.dim
        if not (times.shape == (n,) and qs.shape == qdots.shape == (n, d)
                and times.dtype == qs.dtype == qdots.dtype == np.float64):
            raise ValueError(f"times {times.shape} and rows {qs.shape}, {qdots.shape} are not "
                             f"(n,) and (n, {d}) float64 arrays")
        count = len(_SERIES[kind])
        (times, t), (qs, q), (qdots, v) = _doubles(times), _doubles(qs), _doubles(qdots)
        (ts,), (qr, qc), (vr, vc) = times.strides, qs.strides, qdots.strides
        out = array("d", bytes(8 * ((count + 1) * n + 2 * count)))
        block = np.frombuffer(out)
        _report_potential(qs, kind, block[:n])
        passes[kind](n, t, ts >> 3, q, qr >> 3, qc >> 3, v, vr >> 3, vc >> 3,
                     out.buffer_info()[0])
        tail = out[(count + 1) * n:].tolist()
        return ([block[(j + 1) * n:(j + 2) * n] for j in range(count)],
                tail[:count], tail[count:])

    return run, how
