import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fireball import (DomainError, ModelKind, PhysicalParams, State,
                      UnsupportedModelError, reference_scales, state_from_components)
from fireball.models import polar_values, row_sum
from reference import dimensionalize, nondimensionalize, to_cartesian

positive = st.floats(min_value=0.05, max_value=10.0)
rate = st.floats(min_value=-3.0, max_value=3.0)


class TestState:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            State(t=0.0, q=[1.0, 0.0], qdot=[0.0, 0.0])
        with pytest.raises(DomainError):
            State(t=0.0, q=[-0.5], qdot=[0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            State(t=0.0, q=[1.0, 2.0], qdot=[0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            State(t=0.0, q=[np.nan], qdot=[0.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_time(self, t):
        with pytest.raises(DomainError):
            State(t=t, q=[1.0], qdot=[0.0])

    # Each refusal's message, and which wins where two faults coincide: q's
    # shape and entries, then qdot's, then the lengths, the signs, and t.
    @pytest.mark.parametrize("t,q,qdot,message", [
        (0.0, [1.0, math.nan], [0.0, 0.0], "q contains non-finite entries: [ 1. nan]"),
        (0.0, [[1.0]], [0.0], "q must be a 1-d sequence, got shape (1, 1)"),
        (0.0, [1.0], [[0.0]], "qdot must be a 1-d sequence, got shape (1, 1)"),
        (0.0, [1.0, 2.0], [0.0, -math.inf], "qdot contains non-finite entries: [  0. -inf]"),
        (0.0, [1.0, 2.0], [0.0], "q and qdot lengths differ: (2,) vs (1,)"),
        (0.0, [1.0, 0.0], [0.0, 0.0], "variances must be strictly positive, got [1. 0.]"),
        (0.0, [-0.0], [1.0], "variances must be strictly positive, got [-0.]"),
        (math.nan, [1.0], [0.0], "t must be finite, got nan"),
        (0.0, [math.nan, -1.0], [math.nan, 0.0], "q contains non-finite entries: [nan -1.]"),
        (0.0, [-1.0, math.inf], [0.0, 0.0], "q contains non-finite entries: [-1. inf]"),
        (0.0, [1.0, 2.0], [math.nan], "qdot contains non-finite entries: [nan]"),
        (0.0, [-1.0, 2.0], [0.0], "q and qdot lengths differ: (2,) vs (1,)"),
        (math.nan, [-1.0], [0.0], "variances must be strictly positive, got [-1.]"),
        (math.inf, [1.0], [math.inf], "qdot contains non-finite entries: [inf]"),
    ], ids=["q-nan", "q-2d", "qdot-2d", "qdot-inf", "lengths", "zero-q", "negative-zero-q",
            "t-nan", "q-and-qdot-nan", "q-negative-and-inf", "qdot-nan-and-lengths",
            "lengths-and-negative-q", "negative-q-and-t-nan", "qdot-inf-and-t-inf"])
    def test_each_refusal_says_what_is_wrong(self, t, q, qdot, message):
        with pytest.raises(DomainError) as info:
            State(t=t, q=q, qdot=qdot)
        assert str(info.value) == message

    def test_immutable_arrays(self):
        s = State(t=0.0, q=[1.0], qdot=[0.0])
        with pytest.raises(ValueError):
            s.q[0] = 2.0

    def test_does_not_freeze_caller_arrays(self):
        q = np.array([1.0, 2.0])
        State(t=0.0, q=q, qdot=np.zeros(2))
        q[0] = 5.0  # caller's array stays writable

    def test_from_components(self):
        s = state_from_components(ModelKind.THREE_D, X=1.0, Y=2.0, Z=3.0, Ydot=0.5)
        assert s.q.tolist() == [1.0, 2.0, 3.0]
        assert s.qdot.tolist() == [0.0, 0.5, 0.0]

    def test_from_components_missing_or_extra(self):
        with pytest.raises(DomainError):
            state_from_components(ModelKind.TWO_D, X=1.0)
        with pytest.raises(DomainError):
            state_from_components(ModelKind.ONE_D, X=1.0, Y=2.0)


class TestModelKind:
    def test_dims(self):
        assert [k.dim for k in ModelKind] == [1, 2, 3, 2]

    def test_facts_are_set_once_per_member(self):
        kind = ModelKind("elliptic")
        assert kind is ModelKind.ELLIPTIC_3D and kind.axes == (0, 1, 0)
        assert (kind.dim, kind.spatial_dim, kind.labels) == (2, 3, ("X", "Y"))
        assert kind.weights is kind.weights and kind.weights.tolist() == [2.0, 1.0]
        with pytest.raises(ValueError):  # shared by every caller: read-only
            kind.weights[0] = 5.0

    def test_from_name(self):
        assert ModelKind.from_name("elliptic") is ModelKind.ELLIPTIC_3D
        with pytest.raises(UnsupportedModelError):
            ModelKind.from_name("4d")


class TestRescaling:
    def test_identity_scaling_2d(self):
        params = PhysicalParams(n0=1.0, T0=1.0, X0=1.0, Y0=1.0, m=1.0)
        s = State(t=3.0, q=[2.0, 1.0], qdot=[0.0, 0.0])
        bar = nondimensionalize(params, s, ModelKind.TWO_D)
        assert bar.t == pytest.approx(3.0, abs=0)
        assert bar.q[0] == pytest.approx(2.0, abs=0)

    def test_2d_length_scale(self):
        params = PhysicalParams(X0=4.0, Y0=1.0, T0=1.0, m=1.0)
        s = State(t=0.0, q=[2.0, 1.0], qdot=[0.0, 0.0])
        bar = nondimensionalize(params, s, ModelKind.TWO_D)
        assert bar.q[0] == pytest.approx(1.0, rel=1e-15)

    def test_1d_scaling(self):
        params = PhysicalParams(X0=2.0, T0=4.0, m=1.0)
        s = State(t=1.0, q=[2.0], qdot=[0.0])
        bar = nondimensionalize(params, s, ModelKind.ONE_D)
        assert bar.q[0] == pytest.approx(1.0, rel=1e-15)
        assert bar.t == pytest.approx(1.0, rel=1e-15)

    def test_missing_reference_value(self):
        params = PhysicalParams(X0=1.0)
        with pytest.raises(DomainError):
            reference_scales(params, ModelKind.TWO_D)

    def test_nonpositive_reference_value(self):
        with pytest.raises(DomainError):
            PhysicalParams(T0=-1.0)

    @pytest.mark.parametrize("name", ["n0", "T0", "X0", "Y0", "Z0", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_reference_value(self, name, value):
        with pytest.raises(DomainError):
            PhysicalParams(**{name: value})

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_round_trip(self, kind):
        params = PhysicalParams(n0=2.0, T0=3.5, X0=1.2, Y0=0.7, Z0=2.1, m=1.8)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = State(t=rng.uniform(0, 5), q=rng.uniform(0.1, 8, kind.dim),
                      qdot=rng.uniform(-2, 2, kind.dim))
            back = dimensionalize(params, nondimensionalize(params, s, kind), kind)
            assert abs(back.t - s.t) <= 1e-14 * max(1.0, abs(s.t))
            assert np.all(np.abs(back.q - s.q) <= 1e-14 * np.maximum(1.0, s.q))
            assert np.all(np.abs(back.qdot - s.qdot) <= 1e-14)

    def test_velocity_scale_is_sqrt_T0_over_m(self):
        # the time and length scales always combine to sqrt(T0/m)
        params = PhysicalParams(T0=9.0, X0=5.0, Y0=0.3, Z0=1.1, m=4.0)
        for kind in ModelKind:
            length, time = reference_scales(params, kind)
            assert length / time == pytest.approx(math.sqrt(9.0 / 4.0), rel=1e-14)


class TestPolar:
    def test_symmetric_point_2d(self):
        s = State(t=0.0, q=[1.0, 1.0], qdot=[0.0, 0.0])
        r, phi, rdot, phidot = polar_values(s.q, s.qdot, ModelKind.TWO_D)
        assert r == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert phi == pytest.approx(math.pi / 4.0, rel=1e-15)
        assert rdot == 0.0 and phidot == 0.0

    def test_elliptic_stretched_map(self):
        s = State(t=0.0, q=[1.0, 1.0], qdot=[0.0, 0.0])
        r, phi, _, _ = polar_values(s.q, s.qdot, ModelKind.ELLIPTIC_3D)
        assert r == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert math.tan(phi) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_axis_is_rejected(self):
        with pytest.raises(DomainError):
            State(t=0.0, q=[1.0, 0.0], qdot=[0.0, 0.0])

    def test_unsupported_kinds(self):
        s1 = State(t=0.0, q=[1.0], qdot=[0.0])
        with pytest.raises(UnsupportedModelError):
            polar_values(s1.q, s1.qdot, ModelKind.ONE_D)
        s3 = State(t=0.0, q=[1.0, 1.0, 1.0], qdot=[0.0, 0.0, 0.0])
        with pytest.raises(UnsupportedModelError):
            polar_values(s3.q, s3.qdot, ModelKind.THREE_D)

    @settings(max_examples=200, deadline=None)
    @given(X=positive, Y=positive, Xd=rate, Yd=rate,
           kind=st.sampled_from([ModelKind.TWO_D, ModelKind.ELLIPTIC_3D]))
    def test_round_trip(self, X, Y, Xd, Yd, kind):
        s = State(t=0.5, q=[X, Y], qdot=[Xd, Yd])
        back = to_cartesian(*polar_values(s.q, s.qdot, kind), kind, t=s.t)
        assert np.all(np.abs(back.q - s.q) <= 1e-12 * np.maximum(1.0, np.abs(s.q)))
        assert np.all(np.abs(back.qdot - s.qdot)
                      <= 1e-12 * np.maximum(1.0, np.abs(s.qdot)))


# ±0, the smallest subnormal, the smallest normal, the largest magnitudes,
# ±inf and NaN, beside any float
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
          1.7976931348623157e308, math.inf, -math.inf, math.nan]
_sum_terms = st.one_of(st.sampled_from(_EDGES), st.floats())


class TestRowSum:
    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 3), n=st.one_of(st.none(), st.integers(0, 6)), data=st.data())
    def test_matches_add_reduce_bit_for_bit(self, d, n, data):
        shape = (d,) if n is None else (n, d)
        values = np.array(data.draw(st.lists(_sum_terms, min_size=math.prod(shape),
                                             max_size=math.prod(shape)))).reshape(shape)
        with np.errstate(all="ignore"):
            expected, got = np.add.reduce(values, axis=-1), row_sum(values)
        assert type(got) is type(expected)
        expected, got = np.atleast_1d(expected), np.atleast_1d(got)
        # a NaN's sign bit follows the operand order, which reads nowhere
        nan = np.isnan(expected)
        assert np.array_equal(nan, np.isnan(got))
        assert np.array_equal(expected[~nan].view(np.uint64), got[~nan].view(np.uint64))
