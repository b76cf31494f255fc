import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from lyaplab.fuchsian import _crossing_candidates
from lyaplab.hypgeo import (
    GeodesicArc,
    HPoint,
    Mobius,
    UnitTangent,
    _carrier_from_tangent,
    _carrier_param,
    ball_euclidean,
    ball_volume,
    geodesic_flow,
    hyp_dist,
    side_clearance,
)

I = HPoint(0.0, 1.0)

finite = st.floats(-3.0, 3.0, allow_nan=False)
ypos = st.floats(0.2, 4.0, allow_nan=False)
angles = st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False)


def rand_mobius(seed):
    rng = np.random.default_rng(seed)
    while True:
        a = rng.normal(size=(2, 2))
        if np.linalg.det(a) > 0.1:
            return Mobius(a)


class TestMobius:
    def test_identity(self):
        assert Mobius.identity().apply(I) == I

    def test_translation(self):
        m = Mobius(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert m.apply(I) == HPoint(1.0, 1.0)

    def test_rotation_fixes_i(self):
        m = Mobius(np.array([[0.0, -1.0], [1.0, 0.0]]))
        w = m.apply(I)
        assert abs(w.z - 1j) < 1e-15

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            HPoint(0.0, 0.0)

    def test_rotation_angle_convention(self):
        # derivative of the rotation about i at i is e^{i theta}
        m = Mobius.rotation_at_i(0.7)
        assert abs(m.deriv_arg(1j) - 0.7) < 1e-12

    @given(st.integers(0, 1000), finite, ypos, finite, ypos)
    @settings(max_examples=60, deadline=None)
    def test_isometry(self, seed, x1, y1, x2, y2):
        m = rand_mobius(seed)
        z, w = HPoint(x1, y1), HPoint(x2, y2)
        assert abs(hyp_dist(m.apply(z), m.apply(w)) - hyp_dist(z, w)) < 1e-10

    @given(st.integers(0, 1000), st.integers(0, 1000), finite, ypos)
    @settings(max_examples=60, deadline=None)
    def test_group_law(self, s1, s2, x, y):
        m1, m2 = rand_mobius(s1), rand_mobius(s2)
        z = HPoint(x, y)
        lhs = (m1 @ m2).apply(z)
        rhs = m1.apply(m2.apply(z))
        assert abs(lhs.z - rhs.z) < 1e-10 * max(1.0, abs(lhs.z))


class TestDistance:
    def test_zero(self):
        assert hyp_dist(I, I) == 0.0

    def test_vertical_quadrature_oracle(self):
        # ds = |dz|/y along the segment from i to 2i
        oracle, _ = quad(lambda y: 1.0 / y, 1.0, 2.0)
        assert abs(hyp_dist(I, HPoint(0.0, 2.0)) - oracle) < 1e-10
        assert abs(oracle - 0.693147) < 1e-6

    @given(finite, ypos, finite, ypos, finite, ypos)
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms(self, x1, y1, x2, y2, x3, y3):
        a, b, c = HPoint(x1, y1), HPoint(x2, y2), HPoint(x3, y3)
        assert hyp_dist(a, b) == pytest.approx(hyp_dist(b, a), abs=1e-12)
        assert hyp_dist(a, c) <= hyp_dist(a, b) + hyp_dist(b, c) + 1e-10


def geodesic_ode_oracle(ut, t):
    """Integrate the geodesic equations x'' = 2x'y'/y, y'' = (y'^2 - x'^2)/y."""

    def rhs(_, s):
        x, y, vx, vy = s
        return [vx, vy, 2 * vx * vy / y, (vy * vy - vx * vx) / y]

    v0 = [ut.base.x, ut.base.y,
          ut.base.y * math.cos(ut.angle), ut.base.y * math.sin(ut.angle)]
    sol = solve_ivp(rhs, (0.0, t), v0, rtol=1e-11, atol=1e-12, dense_output=True)
    x, y, vx, vy = sol.y[:, -1]
    return HPoint(x, y), math.atan2(vy, vx)


class TestFlow:
    def test_time_zero_identity(self):
        ut = UnitTangent(I, 1.234)
        assert geodesic_flow(ut, 0.0) == ut

    def test_vertical_ode_oracle(self):
        out = geodesic_flow(UnitTangent(I, math.pi / 2), math.log(2.0))
        pt, ang = geodesic_ode_oracle(UnitTangent(I, math.pi / 2), math.log(2.0))
        assert abs(out.base.z - 2j) < 1e-12
        assert abs(out.base.z - pt.z) < 1e-8
        assert abs(out.angle - math.pi / 2) < 1e-12

    @pytest.mark.parametrize("angle", [0.3, 2.0, 4.4])
    def test_generic_ode_oracle(self, angle):
        ut = UnitTangent(HPoint(0.4, 1.3), angle)
        out = geodesic_flow(ut, 1.7)
        pt, ang = geodesic_ode_oracle(ut, 1.7)
        assert abs(out.base.z - pt.z) < 1e-7
        assert abs((out.angle - ang + math.pi) % (2 * math.pi) - math.pi) < 1e-7

    @given(finite, ypos, angles, st.floats(0.01, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_flow_inverse(self, x, y, a, t):
        ut = UnitTangent(HPoint(x, y), a)
        fwd = geodesic_flow(ut, t)
        back = geodesic_flow(fwd, -t)
        assert abs(back.base.z - ut.base.z) < 1e-9
        assert abs((back.angle - ut.angle + math.pi) % (2 * math.pi) - math.pi) < 1e-9

    @given(finite, ypos, angles, st.floats(0.01, 2.5), st.floats(0.01, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_flow_property_and_unit_speed(self, x, y, a, s, t):
        ut = UnitTangent(HPoint(x, y), a)
        two = geodesic_flow(geodesic_flow(ut, t), s)
        one = geodesic_flow(ut, s + t)
        assert abs(two.base.z - one.base.z) < 1e-9
        assert abs(hyp_dist(ut.base, one.base) - (s + t)) < 1e-9


class TestBallVolume:
    def test_zero(self):
        assert ball_volume(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ball_volume(-1.0)

    def test_monte_carlo_area_oracle(self):
        # rejection sampling of the hyperbolic measure dx dy / y^2 over D_2(i)
        rng = np.random.default_rng(12345)
        ec, er = ball_euclidean(I, 2.0)
        n = 400_000
        xs = rng.uniform(ec.real - er, ec.real + er, n)
        ys = rng.uniform(ec.imag - er, ec.imag + er, n)
        inside = (xs - ec.real) ** 2 + (ys - ec.imag) ** 2 <= er * er
        est = (2 * er) ** 2 * np.mean(np.where(inside, 1.0 / ys**2, 0.0))
        assert abs(est - ball_volume(2.0)) / ball_volume(2.0) < 0.01

    def test_exponential_growth(self):
        assert abs(ball_volume(20.0) / ball_volume(10.0) / math.exp(10.0) - 1) < 0.05

    def test_increasing_and_convex(self):
        t = np.linspace(0.05, 6.0, 200)
        v = np.array([ball_volume(x) for x in t])
        assert np.all(np.diff(v) > 0)
        assert np.all(np.diff(v, 2) > -1e-12)


def ray(ut):
    return _carrier_from_tangent(ut.base.x, ut.base.y, ut.angle)


def raw_side(p, q, inside):
    """Side p -> q as FundamentalDomain stores it for tracing, with the
    polygon interior on the side of `inside`."""
    car = GeodesicArc.segment(p, q).carrier
    u0, u1 = _carrier_param(car, p.x, p.y), _carrier_param(car, q.x, q.y)
    sign = 1.0 if side_clearance(car, inside.x, inside.y) > 0 else -1.0
    return car, min(u0, u1), max(u0, u1), sign


class TestCrossing:
    def setup_method(self):
        self.up = UnitTangent(I, math.pi / 2)
        self.side = raw_side(HPoint(-1.2, 1.6), HPoint(1.2, 1.6), I)

    def test_far_side_missed(self):
        far = raw_side(HPoint(10.0, 1.0), HPoint(11.0, 1.0), HPoint(10.5, 0.5))
        assert _crossing_candidates(ray(self.up), far, 1e-12) == []

    def test_start_on_side_flagged(self):
        # the unit semicircle passes through i; a vertical ray from i starts
        # on it, and that crossing is not reported
        side = raw_side(HPoint(-0.6, 0.8), HPoint(0.6, 0.8), HPoint(0.0, 0.5))
        assert _crossing_candidates(ray(self.up), side, 1e-12) == []
        # a ray along the side's own geodesic is flagged as a tangency
        along = ray(UnitTangent(I, 0.0))
        assert _crossing_candidates(along, side, 1e-12) == "tangent"

    def test_bisection_oracle(self):
        ((t, _, xx, yy),) = _crossing_candidates(ray(self.up), self.side, 1e-12)
        # bisection on the sign of the side-carrier clearance along the ray
        car = self.side[0]

        def val(tt):
            p = geodesic_flow(self.up, tt).base
            return side_clearance(car, p.x, p.y)

        lo, hi = 1e-6, 3.0
        assert val(lo) * val(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if val(lo) * val(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(t - 0.5 * (lo + hi)) < 1e-10
        assert abs(complex(xx, yy) - geodesic_flow(self.up, t).base.z) < 1e-12

    def test_crossing_angles(self):
        # oblique ray against a vertical side, leaving the interior on the left
        ut = UnitTangent(HPoint(-0.5, 1.0), 0.4)
        side = raw_side(HPoint(0.0, 0.5), HPoint(0.0, 3.0), HPoint(-0.5, 1.0))
        ((t, _, xx, _),) = _crossing_candidates(ray(ut), side, 1e-12)
        assert abs(xx) < 1e-12
        assert abs(geodesic_flow(ut, t).base.x) < 1e-12
        # with the interior on the right the ray enters there: no exit
        entering = raw_side(HPoint(0.0, 0.5), HPoint(0.0, 3.0), HPoint(0.5, 1.0))
        assert _crossing_candidates(ray(ut), entering, 1e-12) == []
