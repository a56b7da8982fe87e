"""Random batches of states for the tests that compare a batch form with
its single-State function row by row, and a trajectory's samples as States."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fireball import State

# The single-State symmetry checks run numpy's scalar power (the C
# library's pow) where a batch runs numpy's vector loops, and the two differ
# by up to an ulp; 4 ulp of the terms' size bounds every difference seen on
# 60,000 states per model (at most 2.0).  total_energy, to_polar and
# polar_invariants run their batch forms on a row of one and match exactly.
ULP_BOUND = 4 * np.finfo(float).eps


def draw_states(data, kind, n=6):
    """``(ts, qs, qdots, states)``: t in [0, 5], q in [0.3, 3], qdot in
    [-2, 2], as (n,) and (n, dim) arrays and as ``State`` objects."""
    ts = data.draw(hnp.arrays(float, n, elements=st.floats(0.0, 5.0)))
    qs = data.draw(hnp.arrays(float, (n, kind.dim), elements=st.floats(0.3, 3.0)))
    qdots = data.draw(hnp.arrays(float, (n, kind.dim), elements=st.floats(-2.0, 2.0)))
    return ts, qs, qdots, [State(t=t, q=q, qdot=qd) for t, q, qd in zip(ts, qs, qdots)]


def radial_invariant_reference(qs, qdots, kind, V):
    """C as ``fireball.invariants`` summed it over the full (n, d, d) matrix
    M_i M_j c_ij^2 (each pair i < j twice, a zero diagonal): the reference
    the pairwise sum must match bit for bit."""
    M = kind.weights
    qqd = qs[..., :, None] * qdots[..., None, :]
    cross = qqd - np.swapaxes(qqd, -1, -2)
    return (0.25 * np.sum(M[:, None] * M * cross * cross, axis=(-2, -1))
            + np.sum(M * qs * (qs * V[..., None]), axis=-1))


def sample_state(traj, i):
    """The trajectory's i-th sample as a ``State``."""
    return State(t=float(traj.times[i]), q=traj.qs[i], qdot=traj.qdots[i])
