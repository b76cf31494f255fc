import math

import numpy as np
import pytest

from lyaplab.fuchsian import (
    BendingSplit,
    DegenerateBendingError,
    GroupSpec,
    build_group,
    code_geodesic,
    orbit_ball,
    orbit_points,
    parse_group_spec,
    pull_back,
    bend_representation,
)
from lyaplab.hypgeo import HPoint, UnitTangent, ball_volume, geodesic_flow, hyp_dist
from lyaplab.linrep import Representation, check_relations, eval_word

from conftest import mobius_of_word


class TestGroupSpec:
    def test_parse(self):
        assert parse_group_spec("triangle:3,3,4") == GroupSpec.triangle(3, 3, 4)
        assert parse_group_spec("surface:2") == GroupSpec.surface(2)

    @pytest.mark.parametrize("bad", ["triangle:2,2,2", "surface:1", "banana:3",
                                     "triangle:3,3", "triangle:a,b,c"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def measured_polygon_area(dom):
    """Gauss-Bonnet from the embedded geometry: (k-2)pi - sum of angles."""
    from lyaplab.hypgeo import direction_to

    k = len(dom.vertices)
    total = 0.0
    for i, v in enumerate(dom.vertices):
        prv = dom.vertices[(i - 1) % k]
        nxt = dom.vertices[(i + 1) % k]
        a1 = direction_to(v, prv)
        a2 = direction_to(v, nxt)
        ang = (a1 - a2) % (2.0 * math.pi)
        total += min(ang, 2.0 * math.pi - ang)
    return (k - 2) * math.pi - total


class TestBuildGroup:
    @pytest.mark.parametrize("spec", [GroupSpec.triangle(3, 3, 4),
                                      GroupSpec.triangle(2, 3, 7),
                                      GroupSpec.surface(2),
                                      GroupSpec.surface(3)])
    def test_relations_close(self, spec):
        dom, gens, rels = build_group(spec)
        for w in rels:
            m = mobius_of_word(gens, w).mat
            res = min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max())
            assert res < 1e-9

    def test_triangle_area_gauss_bonnet(self, tri334):
        dom, _, _ = tri334
        assert measured_polygon_area(dom) == pytest.approx(math.pi / 6, abs=1e-9)

    def test_octagon_area_gauss_bonnet(self, genus2):
        dom, _, _ = genus2
        assert measured_polygon_area(dom) == pytest.approx(4 * math.pi, abs=1e-9)

    def test_triangle_area_monte_carlo(self, tri334):
        dom, _, _ = tri334
        rng = np.random.default_rng(7)
        x0, x1, y0, y1 = dom.bounding_box()
        n = 400_000
        xs = rng.uniform(x0, x1, n)
        ys = rng.uniform(y0, y1, n)
        inside = np.array([dom.contains(HPoint(x, y)) for x, y in zip(xs, ys)])
        est = (x1 - x0) * (y1 - y0) * np.mean(np.where(inside, 1.0 / ys**2, 0.0))
        assert abs(est - math.pi / 6) / (math.pi / 6) < 0.02

    def test_pairing_moves_sides_setwise(self, tri334):
        from lyaplab.hypgeo import side_clearance

        dom, _, _ = tri334
        for k, pair in enumerate(dom.pairings):
            arc = dom.sides[k]
            car = dom._raw[pair.partner][0]
            for t in np.linspace(0.0, arc.length, 20):
                w = pair.mobius.apply(arc.point_at(t))
                assert abs(side_clearance(car, w.x, w.y)) < 1e-9


class TestPullBack:
    def test_interior_point_trivial(self, tri334):
        dom, _, _ = tri334
        z, w = pull_back(dom, dom.interior_point)
        assert w == ()
        assert z == dom.interior_point

    def test_single_pairing(self, tri334):
        dom, gens, _ = tri334
        g = dom.pairings[1]
        moved = g.mobius.apply(dom.interior_point)
        z, w = pull_back(dom, moved)
        assert abs(z.z - dom.interior_point.z) < 1e-9
        assert w == g.word  # the word of the displacing pairing itself
        back = mobius_of_word(gens, w).apply(z)
        assert abs(back.z - moved.z) < 1e-9

    def test_random_words_round_trip(self, tri334):
        dom, gens, _ = tri334
        rng = np.random.default_rng(3)
        for _ in range(300):
            word = tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
                         for _ in range(int(rng.integers(0, 11))))
            target = mobius_of_word(gens, word).apply(dom.interior_point)
            z, w = pull_back(dom, target)
            assert dom.contains(z)
            back = mobius_of_word(gens, w).apply(z)
            assert abs(back.z - target.z) < 1e-7


class TestCoding:
    def test_short_segment_empty(self, tri334):
        dom, _, _ = tri334
        cs = code_geodesic(dom, UnitTangent(dom.interior_point, 0.3), 0.05)
        assert len(cs.times) == 0
        assert abs(hyp_dist(cs.end_state.base, dom.interior_point) - 0.05) < 1e-9

    def test_first_crossing_dense_sampling_oracle(self, tri334):
        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point, 1.1)
        cs = code_geodesic(dom, ut, 2.0)
        t1 = cs.times[0]
        # dense sampling: first time the ray leaves the closed domain
        step = 1e-4
        t = step
        while dom.contains(geodesic_flow(ut, t).base, tol=0.0):
            t += step
        assert abs(t - t1) < 2e-4
        # the exit side is the one whose clearance went negative
        exit_state = geodesic_flow(ut, t)
        clear = dom.clearances(exit_state.base.x, exit_state.base.y)
        side = int(np.argmin(clear))
        assert dom.pairings[side].word == (cs.gens[0],)

    def test_concatenation(self, tri334):
        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point, 0.7345)
        c1 = code_geodesic(dom, ut, 6.0)
        c2 = code_geodesic(dom, c1.end_state, 7.0)
        both = code_geodesic(dom, ut, 13.0)
        assert len(both.gens) == len(c1.gens) + len(c2.gens)
        assert (both.gens == np.concatenate([c1.gens, c2.gens])).all()
        times = np.concatenate([c1.times, c1.total_time + c2.times])
        assert np.abs(times - both.times).max() < 1e-7

    def test_coding_covariance_under_pairing(self, tri334):
        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point, 0.61)
        ref = code_geodesic(dom, ut, 8.0)
        g = dom.pairings[2].mobius
        moved = g.apply_tangent(ut)
        base_back, _ = pull_back(dom, moved.base)
        assert abs(base_back.z - ut.base.z) < 1e-9
        # recoding from the translated-and-pulled-back state reproduces the
        # stream (the pulled-back tangent is the original state)
        pulled = g.inv().apply_tangent(moved)
        again = code_geodesic(dom, pulled, 8.0)
        assert (again.gens == ref.gens).all()

    @pytest.mark.parametrize("specname,bound", [("triangle:3,3,4", 8),
                                                ("surface:2", 4)])
    def test_crossing_rate_bound(self, specname, bound):
        dom, gens, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(11)
        worst = 0
        for _ in range(100):
            ang = rng.uniform(0, 2 * math.pi)
            cs = code_geodesic(dom, UnitTangent(dom.interior_point, ang), 1.0)
            worst = max(worst, len(cs.times))
        assert worst <= bound

    def test_rejects_outside_start(self, tri334):
        dom, _, _ = tri334
        with pytest.raises(ValueError):
            code_geodesic(dom, UnitTangent(HPoint(50.0, 50.0), 0.1), 1.0)

    def test_vertex_aimed_ray_perturbs_and_completes(self, tri334):
        from lyaplab.hypgeo import direction_to

        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point,
                         direction_to(dom.interior_point, dom.vertices[1]))
        cs = code_geodesic(dom, ut, 5.0)
        assert cs.perturbations >= 1
        assert len(cs.times) > 0

    @pytest.mark.parametrize("specname", ["triangle:3,3,4", "triangle:2,3,7",
                                          "surface:2"])
    def test_vertex_aimed_rays_all_groups(self, specname):
        # rays through vertices cascade through corner copies (and for the
        # triangle axis, exactly along a side geodesic); coding must survive
        from lyaplab.hypgeo import direction_to

        dom, _, _ = build_group(parse_group_spec(specname))
        for v in dom.vertices:
            ut = UnitTangent(dom.interior_point,
                             direction_to(dom.interior_point, v))
            cs = code_geodesic(dom, ut, 15.0)
            assert len(cs.times) > 3
            assert np.all(np.diff(cs.times) > 0)

    def test_flat_vertex_group_codes(self):
        # the order-2 corner of triangle(2,3,7) is a straight angle; the
        # two collinear sides must not confuse the tracer
        dom, gens, rels = build_group(GroupSpec.triangle(2, 3, 7))
        cs = code_geodesic(dom, UnitTangent(dom.interior_point, 0.37), 50.0)
        assert len(cs.times) > 20
        assert np.all(np.diff(cs.times) > 0)


class TestOrbit:
    def test_tmax_zero(self, tri334):
        dom, gens, _ = tri334
        pts = orbit_points(dom, gens, dom.interior_point, 0.0)
        assert len(pts) == 1
        assert pts[0][1] == ()

    def test_counts_monotone(self, tri334):
        dom, gens, _ = tri334
        counts = [len(orbit_points(dom, gens, dom.interior_point, t))
                  for t in (0.0, 1.0, 2.0, 3.5, 5.0)]
        assert counts == sorted(counts)

    def test_words_evaluate_to_points(self, tri334):
        dom, gens, _ = tri334
        pts = orbit_points(dom, gens, dom.interior_point, 5.0)
        for p, w in pts[::7]:
            back = mobius_of_word(gens, w).apply(dom.interior_point)
            assert abs(back.z - p.z) < 1e-7

    def test_count_asymptotics(self, tri334):
        dom, gens, _ = tri334
        covol = math.pi / 6
        pts, _ = orbit_ball(dom, gens, dom.interior_point, 8.0)
        ratio = len(pts) * covol / ball_volume(8.0)
        assert 0.9 <= ratio <= 1.1

    def test_margin_robustness(self, tri334):
        dom, gens, _ = tri334
        a, _ = orbit_ball(dom, gens, dom.interior_point, 7.0)
        b, _ = orbit_ball(dom, gens, dom.interior_point, 7.0,
                          margin=dom.diameter + 1.5)
        assert len(a) == len(b)

    def test_off_center_base_point(self, tri334):
        dom, gens, _ = tri334
        z0 = HPoint(0.05, 1.3)
        pts, dists = orbit_ball(dom, gens, z0, 6.0)
        assert np.all(dists <= 6.0 + 1e-12)
        ratio = len(pts) * (math.pi / 6) / ball_volume(6.0)
        assert 0.8 <= ratio <= 1.2

    def test_other_groups_count_asymptotics(self):
        # covolume of triangle(2,3,7) is pi/21
        dom, gens, _ = build_group(GroupSpec.triangle(2, 3, 7))
        pts, _ = orbit_ball(dom, gens, dom.interior_point, 7.0)
        ratio = len(pts) * (math.pi / 21) / ball_volume(7.0)
        assert 0.9 <= ratio <= 1.1

    def test_octagon_pull_back_round_trips(self, genus2):
        dom, gens, _ = genus2
        rng = np.random.default_rng(4)
        for _ in range(60):
            word = tuple(int(rng.integers(1, 5)) * int(rng.choice((-1, 1)))
                         for _ in range(int(rng.integers(0, 7))))
            target = mobius_of_word(gens, word).apply(dom.interior_point)
            z, w = pull_back(dom, target)
            assert dom.contains(z)
            back = mobius_of_word(gens, w).apply(z)
            assert abs(back.z - target.z) < 1e-7


class TestBending:
    def test_surface_split(self):
        assert BendingSplit.genus2_standard() == BendingSplit(frozenset({3, 4}), (1, 2, -1, -2))
        assert BendingSplit.surface_standard(3).moving == frozenset(range(3, 7))

    def test_zero_is_identity(self, fuchs_g2):
        assert bend_representation(fuchs_g2, BendingSplit.genus2_standard(), 0.0) is fuchs_g2

    @pytest.mark.parametrize("s", [0.5, 2.0, 1.0j, 2.0j, 1.0 + 0.5j])
    def test_relations_survive(self, fuchs_g2, s):
        bent = bend_representation(fuchs_g2, BendingSplit.genus2_standard(), s)
        assert check_relations(bent).max_residual < 1e-8

    def test_imaginary_bend_changes_character(self, fuchs_g2):
        bent = bend_representation(fuchs_g2, BendingSplit.genus2_standard(), 1.0j)
        w = (1, 3)  # crosses the splitting curve
        t0 = np.trace(eval_word(fuchs_g2, w))
        t1 = np.trace(eval_word(bent, w))
        assert abs(t0 - t1) > 1e-6

    def test_parabolic_curve_rejected(self):
        rep = Representation(
            2, "real",
            [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])],
            (), "parabolic-test", unit_det=True,
        )
        with pytest.raises(DegenerateBendingError):
            bend_representation(rep, BendingSplit(frozenset({2}), (1,)), 0.5)

    def test_bad_split_rejected(self, fuchs_g2):
        with pytest.raises(DegenerateBendingError):
            bend_representation(fuchs_g2, BendingSplit(frozenset({3}), (1, 2, -1, -2)), 1.0)
