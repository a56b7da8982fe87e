"""The raise contract of fireball.native's translated arithmetic: each
division and power that C computes has the bits of Python's float
operation, or sets the caller's flag exactly where Python raises or returns
a complex number, so that the Python form runs and raises in its place."""

import ctypes
import itertools
import math
import operator
import shutil
import struct
import subprocess

import pytest

from fireball import native
from fireball.dynamics import FieldSource

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


def literal(x):
    """The exact C literal of a double."""
    if math.isnan(x):
        return "NAN"
    if math.isinf(x):
        return "INFINITY" if x > 0 else "-INFINITY"
    return x.hex()


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
    source = helpers + TABLE % (", ".join(literal(a) for a, _ in PAIRS),
                                ", ".join(literal(b) for _, b in PAIRS), len(PAIRS))
    (tmp_path / "table.c").write_text(source)
    proc = subprocess.run(["cc", *native.FLAGS, "-o", "table.so", "table.c", "-lm"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, flags = (ctypes.c_double * (2 * len(PAIRS)))(), (ctypes.c_int * (2 * len(PAIRS)))()
    table = ctypes.CDLL(str(tmp_path / "table.so")).table
    table.argtypes, table.restype = [type(out), type(flags)], None
    table(out, flags)
    wrong = []
    for i, ((a, b), (name, operation)) in enumerate(
            (pair, op) for pair in PAIRS for op in OPERATIONS.items()):
        want, got, flagged = python(operation, a, b), out[i], bool(flags[i])
        if flagged != (want is None) or not (flagged or math.isnan(want) and math.isnan(got)
                                             or struct.pack("<d", want) == struct.pack("<d", got)):
            wrong.append(f"{name}({a!r}, {b!r}): C {got!r}, flag {flagged}; Python {want!r}")
    assert len(PAIRS) * len(OPERATIONS) == 800
    assert not wrong, wrong
