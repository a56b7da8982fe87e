"""Random batches of states for the tests that compare a batch form with
its single-State function row by row, a trajectory's samples as States,
and the run that verify's structural checks read."""

from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fireball import IntegratorConfig, State, integrate
from fireball.verification import default_initial_state


def draw_states(data, kind, n=6):
    """``(ts, qs, qdots, states)``: t in [0, 5], q in [0.3, 3], qdot in
    [-2, 2], as (n,) and (n, dim) arrays and as ``State`` objects."""
    ts = data.draw(hnp.arrays(float, n, elements=st.floats(0.0, 5.0)))
    qs = data.draw(hnp.arrays(float, (n, kind.dim), elements=st.floats(0.3, 3.0)))
    qdots = data.draw(hnp.arrays(float, (n, kind.dim), elements=st.floats(-2.0, 2.0)))
    return ts, qs, qdots, [State(t=t, q=q, qdot=qd) for t, q, qd in zip(ts, qs, qdots)]


def reference_run(kind):
    """The run that verify's symmetry, elliptic and hydro checks read: the
    default state to t = 20 on a 0.1 grid."""
    return integrate(default_initial_state(kind), kind,
                     IntegratorConfig(t_end=20.0, sample_interval=0.1))


def sample_state(traj, i):
    """The trajectory's i-th sample as a ``State``."""
    return State(t=float(traj.times[i]), q=traj.qs[i], qdot=traj.qdots[i])
