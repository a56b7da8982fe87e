"""The raise contract of fireball.native's translated arithmetic: each
division and power that a field's C computes has the bits of Python's float
operation, or sets the caller's flag exactly where Python raises or returns
a complex number, so that the Python form runs and raises in its place.  A
statement block's C, whose twin is numpy, divides with numpy's bits and
raises to a power with the C library's pow element by element."""

import ctypes
import itertools
import math
import operator
import shutil
import struct
import subprocess

import numpy as np
import pytest

from fireball import native
from fireball.dynamics import FieldSource
from fireball.models import power

# Signed zeros and subnormals, the powers' integer and half-integer
# exponents, 2 ** 1030 (past overflow) and 2 ** -1075 (past underflow),
# the largest finite values, the infinities and NaN.
VALUES = (0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0, -2.0, 3.0, -3.0,
          1030.0, -1075.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
PAIRS = list(itertools.product(VALUES, repeat=2))
OPERATIONS = {"py_divide": operator.truediv, "py_power": operator.pow}

# Each operation on each pair: out[2 i + j] and flags[2 i + j] hold the
# result and the flag of operation j on pair i.
TABLE = """
static const double A[] = {%s}, B[] = {%s};

void table(double *out, int *flags)
{
    int i, py;

    for (i = 0; i < %d; i++) {
        py = 0;
        out[2 * i] = py_divide(&py, A[i], B[i]);
        flags[2 * i] = py;
        py = 0;
        out[2 * i + 1] = py_power(&py, A[i], B[i]);
        flags[2 * i + 1] = py;
    }
}
"""


# Each statement on each pair: out[2 i] = a[i] / b[i], out[2 i + 1] = a[i] ** b[i].
BLOCK = """
void block(int n, const double *a, const double *b, double *out)
{
    double %s;
    int i;

    for (i = 0; i < n; i++) {
%s
        out[2 * i] = u_q;
        out[2 * i + 1] = u_p;
    }
}
"""


def literal(x):
    """The exact C literal of a double."""
    if math.isnan(x):
        return "NAN"
    if math.isinf(x):
        return "INFINITY" if x > 0 else "-INFINITY"
    return x.hex()


def build(tmp_path, source, name):
    """The function ``name`` of C ``source``, built with the package's flags."""
    (tmp_path / f"{name}.c").write_text(source)
    proc = subprocess.run(["cc", *native.FLAGS, "-o", f"{name}.so", f"{name}.c", "-lm"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return getattr(ctypes.CDLL(str(tmp_path / f"{name}.so")), name)


def same(want, got):
    """The bits of floats ``want`` and ``got`` agree, or both are NaN."""
    return (math.isnan(want) and math.isnan(got)
            or struct.pack("<d", want) == struct.pack("<d", got))


def python(operation, a, b):
    """Python's result of ``operation``, or None where it raises or gives a
    complex number."""
    try:
        result = operation(a, b)
    except (ZeroDivisionError, OverflowError):
        return None
    return None if isinstance(result, complex) else result


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_division_and_power_raise_where_python_does(tmp_path):
    # the helpers as a declaration that divides and raises to a power gets them
    helpers, _ = native.field_function(FieldSource(
        args=("a", "b"), positive="a > 0.0", refusal='"refused"', outputs=("a / b", "a ** b")))
    table = build(tmp_path, helpers + TABLE % (", ".join(literal(a) for a, _ in PAIRS),
                                               ", ".join(literal(b) for _, b in PAIRS),
                                               len(PAIRS)), "table")
    out, flags = (ctypes.c_double * (2 * len(PAIRS)))(), (ctypes.c_int * (2 * len(PAIRS)))()
    table.argtypes, table.restype = [type(out), type(flags)], None
    table(out, flags)
    wrong = []
    for i, ((a, b), (name, operation)) in enumerate(
            (pair, op) for pair in PAIRS for op in OPERATIONS.items()):
        want, got, flagged = python(operation, a, b), out[i], bool(flags[i])
        if flagged != (want is None) or not (flagged or same(want, got)):
            wrong.append(f"{name}({a!r}, {b!r}): C {got!r}, flag {flagged}; Python {want!r}")
    assert len(PAIRS) * len(OPERATIONS) == 800
    assert not wrong, wrong


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_a_statement_block_divides_as_numpy_and_raises_as_pow(tmp_path):
    # C's own / and pow, with no flag: the division has numpy's bits on all
    # 400 pairs, and the power those of fireball.models.power (the C
    # library's pow per element) on bases >= 0, the axis products the
    # declarations raise to 2/3: zero, subnormal, near 1 and huge ones
    helpers, names, body, _ = native.statement_block(
        {"a": "a[i]", "b": "b[i]"}, ["q = a / b", "p = a ** b"], ["q", "p"])
    block = build(tmp_path, helpers + BLOCK % (names, "\n".join(8 * " " + line for line in body)),
                  "block")
    block.restype = None

    def run(a, b):
        a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
        out = np.empty((len(a), 2))
        block(ctypes.c_int(len(a)), *(ctypes.c_void_p(x.ctypes.data) for x in (a, b, out)))
        return out

    a, b = np.array(PAIRS).T
    with np.errstate(all="ignore"):
        want = np.divide(a, b)
    got = run(a, b)[:, 0]
    assert [(x, y) for x, y, w, g in zip(a, b, want, got) if not same(w, g)] == []
    rng = np.random.default_rng(0)
    bases = np.concatenate([[0.0, 5e-324, 1e-310, 0.5, 1.0, 2.0, 1e300, 1e308, math.inf],
                            rng.uniform(0.3, 30.0, 5000), 10.0 ** rng.uniform(-300, 300, 5000)])
    got = run(bases, np.full(len(bases), 2.0 / 3.0))[:, 1]
    assert got.tobytes() == power(bases, 2.0 / 3.0).tobytes()
