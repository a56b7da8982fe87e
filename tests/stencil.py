"""The finite-difference form of a trajectory's accelerations, kept as a
reference for the exact residuals: a trajectory sampled on a fine uniform
grid must satisfy them to the stencil's truncation error."""

import numpy as np

from fireball import Trajectory


def stencil_accelerations(traj):
    """``(interior, qdds)``: the trajectory without its first and last
    samples, and their accelerations by second differences.  The grid must
    be uniform to 1e-9 relative."""
    dt = np.diff(traj.times)
    assert len(traj) >= 3 and np.max(np.abs(dt - dt[0])) <= 1e-9 * dt[0]
    qdds = (traj.qs[2:] - 2.0 * traj.qs[1:-1] + traj.qs[:-2]) / dt[0] ** 2
    interior = Trajectory(kind=traj.kind, times=traj.times[1:-1],
                          qs=traj.qs[1:-1], qdots=traj.qdots[1:-1])
    return interior, qdds
