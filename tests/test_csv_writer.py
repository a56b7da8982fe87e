"""The native CSV row writer (fireball.native.csv_writer) against Python's
``%.17g``, value by value and file by file."""

import logging
import math
import shutil
import subprocess
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fireball import cli, native
from fireball.cli import main
from fireball.integrate import _loop_kernel

HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


@pytest.fixture(scope="module")
def write():
    return native.csv_writer()[0]


def lines(write, values):
    """The writer's line of each value, one row per value, and None for
    each it declined."""
    declined = []
    body = write(np.asarray(values, dtype=float).reshape(-1, 1), b"\1",
                 lambda i: declined.append(i) or "declined\n")
    got = body.splitlines()
    for i in declined:
        got[i] = None
    return got


def covered(x):
    """Whether the writer's 128-bit path takes x: 1e-16 <= |x| < 2**128, or 0."""
    return x == 0.0 or (math.isfinite(x) and Fraction(1, 10 ** 16) <= Fraction(abs(x))
                        and abs(x) < 2.0 ** 128)


def assert_exact(write, values):
    """Every value as Python writes it, and declined only outside the range."""
    for x, got in zip(values, lines(write, values), strict=True):
        if got is None:
            assert not covered(x), repr(x)
        else:
            assert got == "%.17g" % x, repr(x)


@needs_cc
class TestValues:
    @settings(max_examples=500, deadline=None, phases=(Phase.explicit, Phase.generate))
    @given(st.floats())
    def test_any_float_matches_python_or_is_declined(self, write, x):
        # subnormals, +-0, +-inf and NaN included
        got, = lines(write, [x])
        assert got == "%.17g" % x if got is not None else not covered(x)

    @pytest.mark.parametrize("x,text", [
        (2.0 ** -25, "2.9802322387695312e-08"),    # a tie rounded down to even
        (211 * 2.0 ** -21, "0.00010061264038085938"),  # a tie rounded up to even
        (1e-14, "1e-14"),  # below 10**-14, its 17 digits carry to the next decade
        (0.0, "0"), (-0.0, "-0"), (1e16, "10000000000000000"), (1e17, "1e+17"),
        (1e-4, "0.0001"), (1e-5, "1.0000000000000001e-05"), (-2.5, "-2.5"),
    ])
    def test_explicit_values(self, write, x, text):
        assert lines(write, [x]) == [text] and "%.17g" % x == text

    def test_ties_of_dyadic_rationals(self, write):
        # every k 2**-j with an odd k: many are ties at the 18th digit
        assert_exact(write, [k * 2.0 ** -j for j in range(1, 80) for k in range(1, 400, 2)])

    def test_powers_of_ten_and_their_neighbours(self, write):
        # and the carries: 9999999999999999.5 is 1e16, 0.99999999999999994
        # lies between the doubles either side of 1
        tens = [float(f"1e{k}") for k in range(-30, 41)]
        assert_exact(write, [y for x in tens for y in (math.nextafter(x, 0.0), x,
                                                         math.nextafter(x, math.inf))]
                     + [9999999999999999.5, 0.99999999999999994, 0.9999999999999999])

    def test_extremes_are_declined(self, write):
        extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0 ** 128,
                    math.inf, -math.inf, math.nan]
        assert lines(write, extremes) == [None] * len(extremes)
        assert_exact(write, [math.nextafter(2.0 ** 128, 0.0), 1e38, 1.0000000000000001e-16])

    def test_random_values_in_bulk(self, write):
        rng = np.random.default_rng(23)
        count = 20_000
        for values in (rng.uniform(-50.0, 50.0, count),
                       rng.integers(0, 2 ** 64, count, dtype=np.uint64).view(float),
                       np.exp(rng.uniform(-40.0, 90.0, count)) * rng.choice([-1.0, 1.0], count)):
            assert_exact(write, values.tolist())

    def test_source_compiles_without_warnings(self, tmp_path):
        (tmp_path / "rows.c").write_text(native.CSV_SOURCE)
        proc = subprocess.run(["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-c",
                               "rows.c"], cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


@needs_cc
class TestTables:
    def test_rows_and_empty_fields(self, write):
        block = np.array([[0.5, -1e-5, 3.0], [1e20, 0.0, 1e-300], [2.0, math.nan, 7.0]])
        declined = []

        def python_row(i):
            declined.append(i)
            return "%.17g,,%.17g,%.17g\n" % tuple(block[i].tolist())

        body = write(block, b"\1\0\1\1", python_row)
        assert body == "".join("%.17g,,%.17g,%.17g\n" % tuple(row) for row in block.tolist())
        assert declined == [1, 2]
        assert write(np.empty((0, 2)), b"\1\1", None) == ""
        for shape in [(3,), (3, 2), (3, 4)]:
            with pytest.raises(ValueError, match="block for 4 columns, 3 of them present"):
                write(np.ones(shape), b"\1\0\1\1", None)

    @pytest.fixture
    def python_rows(self, monkeypatch, tmp_path):
        """Switches the CLI to the Python rows: no compiler, an empty cache."""
        def switch():
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
            monkeypatch.setattr(native, "_compiler", lambda: None)
            cli._csv_writer.cache_clear()

        cli._csv_writer.cache_clear()
        yield switch
        cli._csv_writer.cache_clear()
        _loop_kernel.cache_clear()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "1d", "--X", "1.3", "--Xdot", "-0.4"],
        ["simulate", "--model", "2d", "--X", "1", "--Y", "1.3", "--Xdot", "0.2"],
        ["simulate", "--model", "3d", "--X", "1", "--Y", "0.8", "--Z", "1.6", "--Zdot", "0.3"],
        ["simulate", "--model", "elliptic", "--X", "1.1", "--Y", "0.7", "--Xdot", "-0.5"],
        ["analytic", "--model", "2d", "--X", "1", "--Y", "1.3", "--Xdot", "0.2", "--compare"],
    ], ids=["1d", "2d", "3d", "elliptic", "analytic-2d"])
    def test_files_are_the_same_either_way(self, python_rows, tmp_path, argv):
        paths = [tmp_path / "native.csv", tmp_path / "python.csv"]
        assert main([*argv, "--t-end", "5", "--out", str(paths[0])]) == 0
        assert cli._csv_writer() is not None
        python_rows()
        assert main([*argv, "--t-end", "5", "--out", str(paths[1])]) == 0
        assert cli._csv_writer() is None
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_only_a_declined_row_goes_through_python(self, python_rows, monkeypatch, tmp_path):
        settings = {"format": "csv", "out": str(tmp_path / "native.csv"), "model": "2d"}
        column = np.linspace(0.0, 1.0, 6)
        data = {"t": column, "X": column + 1.0, "H": np.full(6, 2.0)}
        data["H"][3] = 1e-300
        native_write, rows = cli._csv_writer(), []
        assert native_write is not None

        def spy(block, present, python_row):
            return native_write(block, present, lambda i: rows.append(i) or python_row(i))

        monkeypatch.setattr(cli, "_csv_writer", lambda: spy)
        cli._emit_table(settings, "simulate", ["model"], cli.CSV_COLUMNS, data)
        assert rows == [3]
        monkeypatch.undo()
        python_rows()
        cli._emit_table({**settings, "out": str(tmp_path / "python.csv")}, "simulate",
                        ["model"], cli.CSV_COLUMNS, data)
        text = (tmp_path / "native.csv").read_text()
        assert text == (tmp_path / "python.csv").read_text()
        assert ",1e-300," in text

    def test_one_record_says_which_writer_serves(self, python_rows, monkeypatch, tmp_path,
                                                 caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cli._csv_writer.cache_clear()

        def records():
            caplog.clear()
            cli._csv_writer()
            cli._csv_writer()
            return [r.getMessage() for r in caplog.records]

        with caplog.at_level(logging.INFO, logger="fireball.cli"):
            built, = records()
            cli._csv_writer.cache_clear()
            cached, = records()
            python_rows()
            python, = records()
        assert built.startswith("CSV rows: native, built in ") and "fireball" in built
        assert cached.startswith("CSV rows: native, from the cache (")
        assert python == "CSV rows: Python, no C compiler (cc) on PATH"
