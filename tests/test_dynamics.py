import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fireball import DomainError, ModelKind, State, energies
from fireball.dynamics import POSITIVITY_FLOOR, accel, potential, vector_field

positive = st.floats(min_value=0.2, max_value=5.0)
rate = st.floats(min_value=-2.0, max_value=2.0)


class TestRhs:
    def test_2d_unit_point(self):
        assert accel([1.0, 1.0], ModelKind.TWO_D).tolist() == [1.0, 1.0]

    def test_2d_values(self):
        assert accel([2.0, 1.0], ModelKind.TWO_D) == pytest.approx([0.25, 0.5], rel=1e-15)

    def test_elliptic_values(self):
        assert accel([1.0, 8.0], ModelKind.ELLIPTIC_3D) == pytest.approx(
            [0.25, 1.0 / 32.0], rel=1e-14)

    def test_1d_value(self):
        assert accel([2.0], ModelKind.ONE_D) == pytest.approx([0.125], rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("form", [accel, potential])
    def test_singular_force_raises(self, form, bad):
        # a zero, negative or NaN variance, in one state or in a batch row
        for q in ([1.0, bad], [[1.0, 1.3], [1.0, bad]]):
            with pytest.raises(DomainError, match="singular force: non-positive variance"):
                form(np.array(q), ModelKind.TWO_D)

    def test_2d_reduces_to_1d_on_the_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, v = rng.uniform(0.3, 3.0), rng.uniform(-1, 1)
            a2 = accel([x, x], ModelKind.TWO_D)
            a1 = accel([x], ModelKind.ONE_D)
            assert a2 == pytest.approx([a1[0], a1[0]], rel=1e-14)

    def test_elliptic_equals_3d_at_z_equals_x(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.uniform(0.3, 3.0, 2)
            ae = accel([x, y], ModelKind.ELLIPTIC_3D)
            a3 = accel([x, y, x], ModelKind.THREE_D)
            assert ae == pytest.approx([a3[0], a3[1]], rel=1e-14)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_batch_matches_rows(self, kind):
        qs = np.random.default_rng(2).uniform(0.3, 3.0, (50, kind.dim))
        rows = np.stack([accel(q, kind) for q in qs])
        assert accel(qs, kind).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_is_the_fields_accelerations_bit_for_bit(self, kind):
        # one declaration of the force: numpy with the C library's pow per
        # element gives what the field gives on Python floats, on 20,000 rows
        qs = np.random.default_rng(3).uniform(0.3, 3.0, (20000, kind.dim))
        field = vector_field(kind).function
        want = [field(0.0, q + [0.0] * kind.dim)[kind.dim:] for q in qs.tolist()]
        assert accel(qs, kind).tobytes() == np.array(want).tobytes()


class TestVectorField:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_is_qdot_and_accel(self, kind, data):
        q = [data.draw(positive) for _ in range(kind.dim)]
        qdot = [data.draw(rate) for _ in range(kind.dim)]
        got = vector_field(kind)(0.0, q + qdot)
        assert list(got[:kind.dim]) == qdot
        assert list(got[kind.dim:]) == accel(np.array(q), kind).tolist()

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
        assert potential([1, 1], ModelKind.TWO_D) == 1.0
        assert potential([1, 1, 1], ModelKind.THREE_D) == 1.5
        assert potential([2], ModelKind.ONE_D) == 0.125

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_a_single_state_rounds_as_its_batch_row(self, kind):
        qs = np.random.default_rng(4).uniform(0.3, 3.0, (2000, kind.dim))
        rows = np.array([potential(q, kind) for q in qs])
        assert potential(qs, kind).tobytes() == rows.tobytes()

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

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(list(ModelKind)),
           data=st.data())
    def test_h_plus_l_is_twice_kinetic(self, kind, data):
        q = np.array([data.draw(positive) for _ in range(kind.dim)])
        qdot = np.array([data.draw(rate) for _ in range(kind.dim)])
        s = State(t=0.0, q=q, qdot=qdot)
        pair = energies(s, kind)
        twice_kinetic = float(np.sum(kind.weights * qdot ** 2))
        assert pair.hamiltonian + pair.lagrangian == pytest.approx(
            twice_kinetic, rel=1e-12, abs=1e-12)
