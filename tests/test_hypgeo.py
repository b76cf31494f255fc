import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from lyaplab.fuchsian import FundamentalDomain, ResourceError, SidePairing, iter_crossings
from lyaplab.hypgeo import (
    HPoint,
    Mobius,
    UnitTangent,
    ball_volume,
    geodesic_flow,
    hyp_dist,
)

from conftest import deriv_arg

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
        assert abs(deriv_arg(m, 1j) - 0.7) < 1e-12

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
    @example(0.0, 1.5, 1.192092896e-07, 1.5, 1.5, 0.5)
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms(self, x1, y1, x2, y2, x3, y3):
        a, b, c = HPoint(x1, y1), HPoint(x2, y2), HPoint(x3, y3)
        assert hyp_dist(a, b) == pytest.approx(hyp_dist(b, a), abs=1e-12)
        assert hyp_dist(a, c) <= hyp_dist(a, b) + hyp_dist(b, c) + 1e-10


def carrier_flow(ut, t):
    """The closed-form flow that `geodesic_flow` replaced, kept as its oracle.

    The geodesic is carried by a vertical line x = x0, where the point at arc
    length t is x0 + i exp(u0 + s t), or by a semicircle |z - c| = r, where
    it has polar angle phi = 2 atan(e^u) about c with u = u0 + s t
    (u = log tan(phi/2) is arc length along the semicircle); s = +-1 is the
    sense of travel.
    """
    if t < 0.0:
        out = carrier_flow(UnitTangent(ut.base, ut.angle + math.pi), -t)
        return UnitTangent(out.base, out.angle + math.pi)
    x, y, theta = ut.base.x, ut.base.y, ut.angle
    ct = math.cos(theta)
    if abs(ct) < 1e-13:
        s = 1.0 if math.sin(theta) > 0 else -1.0
        return UnitTangent(HPoint(x, math.exp(math.log(y) + s * t)), s * math.pi / 2.0)
    c = x + y * math.tan(theta)
    r = y / abs(ct)
    phi0 = math.atan2(y, x - c)
    # increasing phi moves with tangent angle phi + pi/2
    s = 1.0 if math.cos(theta - phi0 - math.pi / 2.0) > 0 else -1.0
    phi = 2.0 * math.atan(math.exp(math.log(math.tan(phi0 / 2.0)) + s * t))
    return UnitTangent(HPoint(c + r * math.cos(phi), r * math.sin(phi)), phi + s * math.pi / 2.0)


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

    @pytest.mark.parametrize("eps", [1e-12, -1e-12])
    def test_near_vertical_stays_near_the_axis(self, eps):
        # the true point is 3e-12 from i e; the carrier flow, whose circle
        # has radius 1e12 here, put it 1.2e-4 and 1.9e-4 away
        out = geodesic_flow(UnitTangent(I, math.pi / 2 + eps), 1.0)
        assert abs(out.base.z - 1j * math.e) < 1e-9

    @given(finite, ypos, angles, st.floats(-4.0, 4.0))
    @example(0.0, 1.0, math.acos(1e-3), 4.0)
    @example(-3.0, 0.2, math.acos(-1e-3), -4.0)
    @example(3.0, 4.0, 2.0 * math.pi - math.acos(1e-3), 4.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_carrier_flow_oracle(self, x, y, a, t):
        assume(abs(math.cos(a)) >= 1e-3)
        ut = UnitTangent(HPoint(x, y), a)
        new, old = geodesic_flow(ut, t), carrier_flow(ut, t)
        assert abs(new.base.z - old.base.z) <= 1e-10 * new.base.y
        assert abs(math.remainder(new.angle - old.angle, 2 * math.pi)) <= 1e-10

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
        # rejection sampling of the hyperbolic measure dx dy / y^2 over D_2(i),
        # the Euclidean disk of centre i cosh 2 and radius sinh 2
        rng = np.random.default_rng(12345)
        ec, er = complex(I.x, I.y * math.cosh(2.0)), I.y * math.sinh(2.0)
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


def side_clearance(p, q, x, y):
    """sinh of the signed distance from (x, y) to the geodesic through p and
    q: positive on the side of larger x for a vertical line, outside for a
    semicircle, whose centre c on the real axis is equidistant from p and q."""
    if p.x == q.x:
        return (x - p.x) / y
    c = (abs(q.z) ** 2 - abs(p.z) ** 2) / (2.0 * (q.x - p.x))
    r = math.hypot(p.x - c, p.y)
    return ((x - c) ** 2 + y * y - r * r) / (2.0 * r * y)


def polygon(*corners, inside):
    """The closed convex polygon with these counterclockwise corners, each
    side paired to itself by the identity: enough for its first crossing."""
    pairings = [SidePairing(k, Mobius.identity(), (k + 1,)) for k in range(len(corners))]
    return FundamentalDomain(corners, pairings, inside, area=1.0)


def exit_of(ut, dom):
    """The first crossing (time, side index) of the ray from ut with the
    polygon dom, whose pairings are the identity, so the state there is
    geodesic_flow(ut, time)."""
    t, gen = next(iter_crossings(dom, ut, 10.0))
    return t, gen - 1


class TestCrossing:
    # a quadrilateral about i whose top side lies on |z| = 2, and one whose
    # top side lies on the unit circle through i, with the interior below
    box = polygon(HPoint(-0.3, 0.4), HPoint(0.3, 0.4), HPoint(1.2, 1.6), HPoint(-1.2, 1.6),
                  inside=I)
    cap = polygon(HPoint(-0.3, 0.2), HPoint(0.3, 0.2), HPoint(0.6, 0.8), HPoint(-0.6, 0.8),
                  inside=HPoint(0.0, 0.5))

    def setup_method(self):
        self.up = UnitTangent(I, math.pi / 2)

    def test_far_side_missed(self):
        # a polygon the geodesic never meets has no exit
        far = polygon(HPoint(10.0, 0.5), HPoint(11.0, 0.5), HPoint(11.0, 1.0), HPoint(10.0, 1.0),
                      inside=HPoint(10.5, 0.75))
        with pytest.raises(ResourceError, match="no outward exit at t=0.000000"):
            exit_of(self.up, far)

    def test_start_on_side_flagged(self):
        # a vertical ray from i starts on the unit circle, the cap's side 2,
        # leaving the interior below, and crosses it at t = 0 (how a state
        # rounded a hair outside a side is put back); the reverse ray enters
        # there, so it leaves through the bottom side, at y = sqrt(0.13)
        assert exit_of(self.up, self.cap) == (0.0, 2)
        t, side = exit_of(UnitTangent(I, -math.pi / 2), self.cap)
        assert side == 0 and abs(t - math.log(1.0 / math.sqrt(0.13))) < 1e-12

    def test_bisection_oracle(self):
        t, side = exit_of(self.up, self.box)
        assert side == 2
        # bisection on the sign of the side-carrier clearance along the ray
        def val(tt):
            p = geodesic_flow(self.up, tt).base
            return side_clearance(HPoint(-1.2, 1.6), HPoint(1.2, 1.6), p.x, p.y)

        lo, hi = 1e-6, 3.0
        assert val(lo) * val(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if val(lo) * val(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(t - 0.5 * (lo + hi)) < 1e-10

    def test_crossing_angles(self):
        # oblique ray against a vertical side, leaving the interior on the left
        ut = UnitTangent(HPoint(-0.5, 1.0), 0.4)
        left = polygon(HPoint(-1.0, 0.5), HPoint(0.0, 0.5), HPoint(0.0, 3.0), HPoint(-1.0, 3.0),
                       inside=HPoint(-0.5, 1.0))
        t, side = exit_of(ut, left)
        assert side == 1
        assert abs(geodesic_flow(ut, t).base.x) < 1e-12
        # with the interior on the right the ray starts outside and enters
        # there: that entry would go missing from the coding, so it is refused
        right = polygon(HPoint(0.0, 0.5), HPoint(1.0, 0.5), HPoint(1.0, 3.0), HPoint(0.0, 3.0),
                        inside=HPoint(0.5, 1.0))
        with pytest.raises(ResourceError, match="start lies outside the polygon"):
            exit_of(ut, right)

    @pytest.mark.parametrize("angle", [0.0, math.pi])
    def test_ray_along_a_side_carrier(self, angle):
        # from i along the unit circle, the cap's side 2: its two corners
        # have sign 0 up to rounding, and no exit may divide by it.  Every
        # point of the side is on the geodesic, so the ray may leave through
        # side 2 anywhere or through a neighbour at a corner, or be refused
        ut = UnitTangent(I, angle)
        try:
            t, side = exit_of(ut, self.cap)
        except ResourceError:
            return
        assert side in (1, 2, 3)
        assert abs(abs(geodesic_flow(ut, t).base.z) - 1.0) < 1e-9
