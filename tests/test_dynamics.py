import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fireball import DomainError, ModelKind, State, energies, pseudo_potential, rhs
from fireball.dynamics import (POSITIVITY_FLOOR, accel, canonical_momenta, kinetic,
                               potential, vector_field)

positive = st.floats(min_value=0.2, max_value=5.0)
rate = st.floats(min_value=-2.0, max_value=2.0)


class TestRhs:
    def test_2d_unit_point(self):
        s = State(t=0, q=[1.0, 1.0], qdot=[0.0, 0.0])
        assert rhs(s, ModelKind.TWO_D).tolist() == [1.0, 1.0]

    def test_2d_values(self):
        s = State(t=0, q=[2.0, 1.0], qdot=[0.0, 0.0])
        assert rhs(s, ModelKind.TWO_D) == pytest.approx([0.25, 0.5], rel=1e-15)

    def test_elliptic_values(self):
        s = State(t=0, q=[1.0, 8.0], qdot=[0.0, 0.0])
        assert rhs(s, ModelKind.ELLIPTIC_3D) == pytest.approx([0.25, 1.0 / 32.0],
                                                              rel=1e-14)

    def test_1d_value(self):
        s = State(t=0, q=[2.0], qdot=[0.0])
        assert rhs(s, ModelKind.ONE_D) == pytest.approx([0.125], rel=1e-15)

    def test_singular_force_raises(self):
        with pytest.raises(DomainError):
            accel(np.array([1.0, 0.0]), ModelKind.TWO_D)

    def test_2d_reduces_to_1d_on_the_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, v = rng.uniform(0.3, 3.0), rng.uniform(-1, 1)
            a2 = rhs(State(t=0, q=[x, x], qdot=[v, v]), ModelKind.TWO_D)
            a1 = rhs(State(t=0, q=[x], qdot=[v]), ModelKind.ONE_D)
            assert a2 == pytest.approx([a1[0], a1[0]], rel=1e-14)

    def test_elliptic_equals_3d_at_z_equals_x(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.uniform(0.3, 3.0, 2)
            ae = rhs(State(t=0, q=[x, y], qdot=[0, 0]), ModelKind.ELLIPTIC_3D)
            a3 = rhs(State(t=0, q=[x, y, x], qdot=[0, 0, 0]), ModelKind.THREE_D)
            assert ae == pytest.approx([a3[0], a3[1]], rel=1e-14)


    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_batch_matches_rows(self, kind):
        qs = np.random.default_rng(2).uniform(0.3, 3.0, (50, kind.dim))
        rows = np.stack([accel(q, kind) for q in qs])
        np.testing.assert_allclose(accel(qs, kind), rows, rtol=1e-15, atol=0.0)


class TestVectorField:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_is_qdot_and_accel(self, kind, data):
        q = [data.draw(positive) for _ in range(kind.dim)]
        qdot = [data.draw(rate) for _ in range(kind.dim)]
        got = vector_field(kind)(0.0, q + qdot)
        assert list(got[:kind.dim]) == qdot
        np.testing.assert_allclose(got[kind.dim:], accel(np.array(q), kind),
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_raises_at_or_below_the_floor(self, kind, data):
        q = [data.draw(positive) for _ in range(kind.dim)]
        i = data.draw(st.integers(0, kind.dim - 1))
        q[i] = data.draw(st.floats(min_value=-5.0, max_value=POSITIVITY_FLOOR)
                         | st.just(math.nan))
        with pytest.raises(DomainError):
            vector_field(kind)(0.0, q + [0.0] * kind.dim)


class TestPotential:
    def test_values(self):
        assert pseudo_potential(State(t=0, q=[1, 1], qdot=[0, 0]),
                                ModelKind.TWO_D) == 1.0
        assert pseudo_potential(State(t=0, q=[1, 1, 1], qdot=[0, 0, 0]),
                                ModelKind.THREE_D) == 1.5
        assert pseudo_potential(State(t=0, q=[2], qdot=[0]),
                                ModelKind.ONE_D) == 0.125

    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_force_is_minus_gradient(self, kind, data):
        # Euler-Lagrange form M qdd = -grad V, against a central finite
        # difference of V; M = (2, 1) for elliptic, unit otherwise.
        q = np.array([data.draw(positive) for _ in range(kind.dim)])
        grad_fd = np.empty(kind.dim)
        for i in range(kind.dim):
            h = 1e-5 * q[i]
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            grad_fd[i] = (potential(qp, kind) - potential(qm, kind)) / (2 * h)
        force = kind.weights * accel(q, kind)
        assert np.all(np.abs(force + grad_fd) <= 1e-6 * np.abs(force))


class TestEnergies:
    def test_2d_rest_point(self):
        pair = energies(State(t=0, q=[1, 1], qdot=[0, 0]), ModelKind.TWO_D)
        assert pair.hamiltonian == 1.0 and pair.lagrangian == -1.0

    def test_elliptic_rest_point(self):
        pair = energies(State(t=0, q=[1, 1], qdot=[0, 0]), ModelKind.ELLIPTIC_3D)
        assert pair.hamiltonian == 1.5 and pair.lagrangian == -1.5

    def test_3d_unit_velocities(self):
        pair = energies(State(t=0, q=[1, 1, 1], qdot=[1, 1, 1]), ModelKind.THREE_D)
        assert pair.hamiltonian == pytest.approx(3.0, rel=1e-15)

    def test_elliptic_momenta(self):
        s = State(t=0, q=[1.0, 1.0], qdot=[0.3, 0.5])
        assert canonical_momenta(s, ModelKind.ELLIPTIC_3D).tolist() == [0.6, 0.5]

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(list(ModelKind)),
           data=st.data())
    def test_h_plus_l_is_twice_kinetic(self, kind, data):
        q = np.array([data.draw(positive) for _ in range(kind.dim)])
        qdot = np.array([data.draw(rate) for _ in range(kind.dim)])
        s = State(t=0.0, q=q, qdot=qdot)
        pair = energies(s, kind)
        twice_kinetic = 2.0 * float(kinetic(qdot, kind))
        assert pair.hamiltonian + pair.lagrangian == pytest.approx(
            twice_kinetic, rel=1e-12, abs=1e-12)
