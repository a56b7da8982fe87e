"""The native invariant report (fireball.invariants._native_report) against the
numpy one that serves where no compiler works, bit for bit, and its
generated source under the compiler's warnings and the sanitizers."""

import contextlib
import logging
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fireball import (IntegratorConfig, ModelKind, State, Trajectory, dynamics, energies,
                      integrate, invariant_report, invariants, native, noether_invariant)
from fireball.symmetry import scaled_trajectory
import sanitizers

HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")

NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@contextlib.contextmanager
def numpy_path(no_cc):
    """The report as on a machine without a compiler: no cc, an empty cache."""
    with no_cc():
        assert invariants._native_report() is None
        yield


def assert_same_bits(traj, no_cc):
    """The native and the numpy report of ``traj`` agree in every bit of
    every value and drift, names and their order included; returns the
    native one."""
    with np.errstate(all="ignore"):  # numpy's own overflow on extreme rows
        got = invariant_report(traj)
        assert invariants._native_report() is not None
        with numpy_path(no_cc):
            want = invariant_report(traj)
    assert list(got.values) == list(want.values) == list(got.drift) == list(want.drift)
    for name, value in want.values.items():
        assert got.values[name].tobytes() == value.tobytes(), name
    assert (np.array(list(got.drift.values())).tobytes()
            == np.array(list(want.drift.values())).tobytes())
    assert got.times is traj.times and got.kind is traj.kind
    return got


def unaligned(a):
    """A copy of ``a`` at an odd address, which the kernel cannot read in place."""
    out = np.frombuffer(bytearray(a.nbytes + 1), dtype=float, count=a.size,
                        offset=1).reshape(a.shape)
    out[...] = a
    assert not out.flags.aligned
    return out


# How a trajectory may hold its arrays: integrate's views of one (n, 2d)
# block, arrays of its own (C or Fortran order, rows reversed in memory,
# at odd addresses), and times one in two of a wider array.
LAYOUTS = {
    "solve-block": lambda kind, t, q, v: Trajectory._of_solve(kind, t, np.hstack([q, v])),
    "owned": lambda kind, t, q, v: Trajectory(kind=kind, times=t, qs=q.copy(), qdots=v.copy()),
    "fortran": lambda kind, t, q, v: Trajectory(kind=kind, times=t, qs=np.asfortranarray(q),
                                                qdots=np.asfortranarray(v)),
    "reversed": lambda kind, t, q, v: Trajectory(kind=kind, times=t, qs=q[::-1].copy()[::-1],
                                                 qdots=v[::-1].copy()[::-1]),
    "unaligned": lambda kind, t, q, v: Trajectory(kind=kind, times=unaligned(t),
                                                  qs=unaligned(q), qdots=unaligned(v)),
    "strided-times": lambda kind, t, q, v: Trajectory(kind=kind, times=np.repeat(t, 2)[::2],
                                                      qs=q, qdots=v),
}


@needs_cc
class TestSameBits:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_drawn_trajectories(self, no_cc, kind, data):
        # 1, 2 and 11 rows in every layout; variances and rates near 1, or
        # from 1e-150 to 1e150, so that products overflow and underflow; and
        # maybe rates and a first time that are zeros of either sign, so
        # that a zero sum's sign counts
        n = data.draw(st.sampled_from([1, 2, 11]))
        spread = data.draw(st.sampled_from([0, 150]))
        shape = (n, kind.dim)

        def draw(mantissas):
            exponents = data.draw(hnp.arrays(float, shape, elements=st.integers(-spread, spread)))
            return data.draw(hnp.arrays(float, shape, elements=mantissas)) * 10.0 ** exponents

        qs, qdots = draw(st.floats(1.0, 10.0)), draw(st.floats(-10.0, 10.0))
        start = data.draw(st.floats(-1e3, 1e3))
        if data.draw(st.booleans()):
            zeros = st.sampled_from([1.0, 0.0, -0.0])
            qdots = qdots * data.draw(hnp.arrays(float, shape, elements=zeros))
            start = data.draw(st.sampled_from([0.0, -0.0]))
        times = start + data.draw(st.floats(0.01, 1e3)) * np.arange(n)
        times[0] = start  # -0.0 + 0.0 is +0.0
        layout = data.draw(st.sampled_from(sorted(LAYOUTS)))
        report = assert_same_bits(LAYOUTS[layout](kind, times, qs, qdots), no_cc)
        # and each row as a (d,) state gives its row's bits
        with np.errstate(all="ignore"):
            for i in range(n):
                single = dynamics.evaluate(kind, tuple(report.values), qs[i], qdots[i], times[i])
                assert [np.float64(x).tobytes() for x in single] == [
                    series[i:i + 1].tobytes() for series in report.values.values()], i

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("t_end,interval,rows", [(1.0, 1.0, 2), (1e4, 1e3, 11),
                                                     (25.0, 0.01, 2501)])
    def test_integrated_runs_and_their_scaled_images(self, no_cc, kind, t_end, interval,
                                                     rows):
        traj = integrate(State(t=0.0, q=[1.1, 0.8, 1.4][:kind.dim],
                               qdot=[0.3, -0.2, 0.1][:kind.dim]),
                         kind, IntegratorConfig(t_end=t_end, sample_interval=interval))
        assert len(traj) == rows and traj.qs.base is traj.qdots.base
        assert_same_bits(traj, no_cc)
        assert_same_bits(scaled_trajectory(traj, 1.7), no_cc)

    @pytest.mark.parametrize("kind", [ModelKind.THREE_D, ModelKind.ELLIPTIC_3D])
    def test_variances_near_1e200(self, no_cc, kind):
        # test_invariants' overflow rows: P = inf, so V = 0, and the kinetic
        # energy underflows to 0
        d = kind.dim
        qs = 1e200 * np.array([[1.0, 1.5, 2.0], [1.1, 1.6, 2.1], [1.2, 1.7, 2.2]])[:, :d]
        qdots = 1e-190 * np.array([[0.3, -0.2, 0.1], [0.2, -0.1, 0.3], [0.1, 0.2, -0.3]])[:, :d]
        for n in (1, 2, 3):
            assert_same_bits(Trajectory(kind=kind, times=np.array([0.0, 1.0, 2.0])[:n],
                                        qs=qs[:n], qdots=qdots[:n]), no_cc)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_a_single_state_rounds_as_its_batch_row(no_cc, kind):
    # 2,000 states in verify's ranges: on one (d,) state, energies,
    # noether_invariant and each batch form give the bits of the same form
    # on the state's row of one and of its row in the report, native and
    # numpy.  Every power is the C library's pow, element by element, so a
    # single state's V rounds as any row's.
    rng = np.random.default_rng(11)
    n, d = 2000, kind.dim
    times = np.sort(rng.uniform(0.0, 3.0, n))
    qs, qdots = rng.uniform(0.6, 1.8, (n, d)), rng.uniform(-0.8, 0.8, (n, d))
    traj = Trajectory(kind=kind, times=times, qs=qs, qdots=qdots)
    reports = [invariant_report(traj)]
    with numpy_path(no_cc):
        reports.append(invariant_report(traj))
    forms = {"H": lambda t, q, v: invariants.hamiltonian_values(q, v, kind),
             "L": lambda t, q, v: dynamics.evaluate(kind, ("L",), q, v)[0],
             "J": lambda t, q, v: invariants.noether_values(t, q, v, kind),
             "C": lambda t, q, v: invariants.radial_invariant_values(q, v, kind)}
    if kind.has_ermakov_invariant:
        forms["I"] = lambda t, q, v: invariants.ermakov_values(q, v, kind)
    for i, (t, q, v) in enumerate(zip(times, qs, qdots)):
        state = State(t=t, q=q, qdot=v)
        pair = energies(state, kind)
        values = {"H": [pair.hamiltonian], "L": [pair.lagrangian],
                  "J": [noether_invariant(state, kind)]}
        for name, form in forms.items():
            values.setdefault(name, []).extend(
                [form(t, q, v), form(times[i:i + 1], qs[i:i + 1], qdots[i:i + 1])[0]])
        for report in reports:
            for name, series in report.values.items():
                # the elliptic model's Itilde is its C
                values[{"Itilde": "C"}.get(name, name)].append(series[i])
        for name, got in values.items():
            assert len({np.float64(x).tobytes() for x in got}) == 1, (name, i, got)


@pytest.mark.parametrize("layout", ["unaligned", "fortran", "reversed", "strided-times"])
def test_only_arrays_at_odd_addresses_are_copied(layout):
    rng = np.random.default_rng(5)
    traj = LAYOUTS[layout](ModelKind.THREE_D, np.arange(4.0), rng.uniform(0.5, 2.0, (4, 3)),
                           rng.uniform(-1.0, 1.0, (4, 3)))
    for a in (traj.times, traj.qs, traj.qdots):
        got, address = invariants._doubles(a)
        assert address == got.ctypes.data and address % 8 == 0 and got.flags.aligned
        assert (got is a) == (layout != "unaligned") and got.tobytes() == a.tobytes()


@needs_cc
def test_rows_that_do_not_match_the_times_are_refused():
    # Trajectory's constructor makes the shapes agree; the kernel reads no
    # row past the arrays where they do not
    ys = np.ones((3, 4))
    for times, block in [(np.arange(2.0), ys), (np.arange(3.0), ys[:, :3]),
                         (np.arange(3.0).reshape(1, 3), ys), (np.arange(3, dtype=np.float32), ys)]:
        with pytest.raises(ValueError, match=r"not \(n,\) and \(n, 2\) float64 arrays"):
            invariant_report(Trajectory._of_solve(ModelKind.TWO_D, times, block))


def test_declarations_translate_with_c_division_and_pow():
    # with or without a compiler: V is computed in the report's row loop,
    # as C's division, and for 3d and elliptic one pow of the axis product;
    # neither is a helper with a flag, since numpy's twin raises nothing
    for kind, series in invariants._SERIES.items():
        columns, statements = dynamics.declaration(kind, series)
        assert "V" not in {x for x, _, _ in columns}
        inputs = {x: "0.0" for x in ("t", *(x for x, _, _ in columns))}
        _, _, code, _ = native.statement_block(inputs, statements, series)
        assert not any("py_divide" in line or "py_power" in line for line in code)
        assert sum(line.count("pow(") for line in code) == (kind.spatial_dim == 3)
        assert sum(" / " in line for line in code) == 1 + (kind.spatial_dim == 3)
        assert f"fireball_report_{kind.value}(" in invariants.report_source()


@pytest.mark.parametrize("statement", ["H = T % V", "H = T // V", "H = abs(T)",
                                       "H = T if V else V", "H = T < V", "H = T.real",
                                       "H = 2 * T"])
def test_a_statement_outside_the_grammar_is_refused(statement):
    # a remainder, a floor division, a call, a conditional, a comparison
    # as a value, an attribute or an integer constant: none has a C form
    # that rounds as numpy's does, so each is refused
    with pytest.raises(native.Unavailable, match="cannot translate"):
        native.statement_block({"T": "t[i]", "V": "v[i]"}, [statement], ["H"])


class TestChoice:
    @needs_cc
    def test_one_record_says_which_report_serves(self, fresh_cache, no_cc, caplog):
        def records():
            caplog.clear()
            invariants._native_report()
            invariants._native_report()
            return [r.getMessage() for r in caplog.records]

        with caplog.at_level(logging.INFO, logger="fireball.invariants"):
            built, = records()
            invariants._native_report.cache_clear()
            cached, = records()
            with no_cc():
                numpy, = records()
        assert built.startswith("invariant report: native, built in ") and "fireball" in built
        assert cached.startswith("invariant report: native, from the cache (")
        assert numpy == "invariant report: numpy, no C compiler (cc) on PATH"

    def test_without_a_compiler_numpy_serves_and_builds_nothing(self, no_cc):
        with no_cc() as cache:
            traj = integrate(State(t=0.0, q=[1.0, 1.3], qdot=[-0.2, 0.35]), ModelKind.TWO_D,
                             IntegratorConfig(t_end=5.0, sample_interval=0.5))
            report = invariant_report(traj)
            assert invariants._native_report() is None
        assert set(report.values) == {"H", "J", "I"}
        assert not list(cache.parent.rglob("*.so"))


# Reads n, d, the number of series and the model's place in ModelKind (four
# int64), then the times (n) and the (n, 2d) block of q and qdot rows, all
# float64, on stdin; runs the model's function on the block's two halves,
# as integrate's views, into a block of exactly the size the wrapper
# allocates, and writes that block to stdout.
RUNNER = r"""#include <stdio.h>
#include <stdlib.h>

typedef void report(long long, const double *, long long, const double *, long long, long long,
                    const double *, long long, long long, double *);
report fireball_report_1d, fireball_report_2d, fireball_report_3d, fireball_report_elliptic;
static report *const MODELS[] = {fireball_report_1d, fireball_report_2d, fireball_report_3d,
                                 fireball_report_elliptic};

int main(void)
{
    long long head[4], n, d, count, size;
    double *t, *y, *out;

    if (fread(head, sizeof head, 1, stdin) != 1 || head[3] < 0 || head[3] > 3)
        return 2;
    n = head[0];
    d = head[1];
    count = head[2];
    size = count * n + 2 * count;
    t = malloc(sizeof *t * n);
    y = malloc(sizeof *y * 2 * d * n);
    out = malloc(sizeof *out * size);
    if (fread(t, sizeof *t, n, stdin) != (size_t)n
            || fread(y, sizeof *y, 2 * d * n, stdin) != (size_t)(2 * d * n))
        return 2;
    MODELS[head[3]](n, t, 1, y, 2 * d, 1, y + d, 2 * d, 1, out);
    fwrite(out, sizeof *out, size, stdout);
    free(t);
    free(y);
    free(out);
    return 0;
}
"""


@needs_cc
class TestSource:
    def test_compiles_without_warnings(self, tmp_path):
        (tmp_path / "report.c").write_text(invariants.report_source())
        proc = subprocess.run(["cc", *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-c",
                               "report.c"], cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.fixture(scope="class")
    def sanitized(self, tmp_path_factory):
        """The runner, linked with the kernel under ASan and UBSan, or a skip."""
        return sanitizers.build(tmp_path_factory.mktemp("sanitized-report"), RUNNER,
                                invariants.report_source())

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("rows", [1, 2, 11])
    def test_sanitized_runs_give_the_numpy_values(self, sanitized, no_cc, kind, rows):
        rng = np.random.default_rng(rows)
        ys = np.hstack([rng.uniform(0.3, 3.0, (rows, kind.dim)),
                        rng.uniform(-2.0, 2.0, (rows, kind.dim))])
        times = np.cumsum(rng.uniform(0.1, 1.0, rows))
        traj = Trajectory(kind=kind, times=times, qs=ys[:, :kind.dim], qdots=ys[:, kind.dim:])
        with numpy_path(no_cc):
            want = invariant_report(traj)
        series = np.array(list(want.values.values()))
        head = np.array([rows, kind.dim, len(series), list(ModelKind).index(kind)],
                        dtype=np.int64)
        got = np.frombuffer(sanitizers.run(sanitized, head.tobytes() + np.concatenate(
            [times, ys.ravel()]).tobytes()))
        tail = np.concatenate([np.max(np.abs(series - series[:, :1]), axis=1), series[:, 0]])
        assert got.size == len(series) * rows + 2 * len(series)
        assert got[:len(series) * rows].tobytes() == series.tobytes()
        assert got[len(series) * rows:].tobytes() == tail.tobytes()
