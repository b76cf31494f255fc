import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lyaplab import cli, fuchsian, linrep
from lyaplab.fuchsian import (
    BendingSplit,
    DegenerateBendingError,
    GroupSpec,
    build_group,
    ResourceError,
    orbit_ball,
    parse_group_spec,
    pull_back,
    bend_representation,
)
from lyaplab.hypgeo import (
    HPoint,
    Mobius,
    UnitTangent,
    ball_volume,
    direction_to,
    geodesic_flow,
    hyp_dist,
)
from lyaplab.linrep import (Representation, RepresentationError, check_relations, eval_word,
                            relation_reports, uniformizing_rep)
from lyaplab.oseledets import RunConfig, _sample_base, code_samples

from conftest import (bfs_inputs, coding, deriv_arg, greedy_pull_back, hyperboloid_crossings,
                      mobius_of_word, per_rep_check_relations, per_value_bend,
                      scalar_walk_crossings, stack_descend)

BUILTIN = ("triangle:3,3,4", "triangle:2,3,7", "surface:2", "surface:3")
PULL_BACK_GROUPS = ("triangle:3,3,4", "triangle:2,3,7", "surface:2", "surface:8")


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
        # the build's other check, with the margin it has in practice
        # (surface:3 reads 2.4e-14)
        assert fuchsian.dirichlet_defect(dom) < 1e-13

    def test_surface15_closes_under_the_build_gate(self):
        # the largest genus whose relator closes within an absolute 1e-9
        # (to 5e-10); its sides lie on their bisectors within the 1e-9 gate
        dom, gens, (w,) = build_group(GroupSpec.surface(15))
        m = mobius_of_word(gens, w).mat
        assert min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max()) < 1e-9
        assert fuchsian.dirichlet_defect(dom) < 1e-9

    @pytest.mark.parametrize("genus", [16, 32, 44, 48])
    def test_high_genus_builds_and_uniformizes(self, genus, tmp_path):
        # relators of 1e-8 to 1e-6 absolute residual, backward stable to 1e-13
        dom, gens, rels = build_group(GroupSpec.surface(genus))
        assert check_relations(uniformizing_rep(gens, rels)).holds()
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", "--group", f"surface:{genus}", "--time", "200",
                         "--samples", "4", "--seed", "1", "--out", str(out)]) == 0
        lam1 = float(out.read_text().splitlines()[1].split(",")[2])
        assert abs(lam1 - 1.0) < 0.02

    def test_triangle_area_gauss_bonnet(self, tri334):
        dom, _, _ = tri334
        assert measured_polygon_area(dom) == pytest.approx(math.pi / 6, abs=1e-9)

    def test_octagon_area_gauss_bonnet(self, genus2):
        dom, _, _ = genus2
        assert measured_polygon_area(dom) == pytest.approx(4 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("specname", ["triangle:3,3,4", "triangle:2,3,7",
                                          "surface:2", "surface:3"])
    def test_triangle_area_monte_carlo(self, specname):
        # samples of density 1/y^2 on the bounding box: the share inside times
        # the box's hyperbolic area is the polygon's, unless the box cuts it
        dom, _, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(7)
        x0, x1, y0, y1 = dom.bounding_box()
        n = 400_000
        xs = rng.uniform(x0, x1, n)
        ys = 1.0 / rng.uniform(1.0 / y1, 1.0 / y0, n)
        inside = np.all(np.array(dom.clearances(xs, ys)) >= -fuchsian.SIDE_TOL, axis=0)
        est = (x1 - x0) * (1.0 / y0 - 1.0 / y1) * np.mean(inside)
        assert abs(est - dom.area) / dom.area < 0.02

    def test_pairing_moves_sides_setwise(self, tri334):
        from lyaplab.hypgeo import direction_to
        from test_hypgeo import side_clearance

        dom, _, _ = tri334
        n = len(dom.vertices)
        for k, pair in enumerate(dom.pairings):
            p, q = dom.vertices[k], dom.vertices[(k + 1) % n]
            ends = dom.vertices[pair.partner], dom.vertices[(pair.partner + 1) % n]
            for t in np.linspace(0.0, dom.sides[k].length, 20):
                w = pair.mobius.apply(geodesic_flow(UnitTangent(p, direction_to(p, q)), t).base)
                assert abs(side_clearance(*ends, w.x, w.y)) < 1e-9

    def test_dirichlet_defect_sees_a_wrong_pairing(self, tri334):
        # a wrong partner (0.687), a pairing off by a 1e-6 rotation (4.9e-7)
        # and one turned a half-turn about its partner side's midpoint (0.44),
        # which still maps the side onto its partner's carrier, all read far
        # above the 1e-9 that the build accepts.  Turned about an end of the
        # partner side, the bisector pivots there, and only the other end sees it
        dom, _, _ = tri334

        def broken(**change):
            pairs = list(dom.pairings)
            pairs[0] = dataclasses.replace(pairs[0], **change)
            return fuchsian.FundamentalDomain(dom.vertices, pairs, dom.interior_point, dom.area)

        g, j, n = dom.pairings[0].mobius, dom.pairings[0].partner, len(dom.vertices)
        a, b = dom.vertices[j], dom.vertices[(j + 1) % n]
        mid = geodesic_flow(UnitTangent(a, direction_to(a, b)), 0.5 * hyp_dist(a, b)).base
        assert fuchsian.dirichlet_defect(broken(partner=dom.pairings[1].partner)) > 0.5
        for turned in (g @ Mobius.rotation_at_i(1e-6), Mobius.rotation_about(a, 1e-6) @ g,
                       Mobius.rotation_about(b, 1e-6) @ g):
            assert 2e-7 < fuchsian.dirichlet_defect(broken(mobius=turned)) < 2e-6
        assert fuchsian.dirichlet_defect(broken(mobius=Mobius.rotation_about(mid, math.pi) @ g)) > 0.3


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

    @pytest.mark.parametrize("specname", PULL_BACK_GROUPS)
    def test_agrees_with_greedy_descent(self, specname):
        # triangle-group words are not unique, so points are compared, not words
        dom, _, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(21)
        for _ in range(300):
            ut = UnitTangent(dom.interior_point, rng.uniform(0.0, 2.0 * math.pi))
            target = geodesic_flow(ut, rng.uniform(0.0, 12.0)).base
            z, _ = pull_back(dom, target)
            assert dom.contains(z)
            assert abs(z.z - greedy_pull_back(dom, target)[0].z) < 1e-9

    @pytest.mark.parametrize("specname", PULL_BACK_GROUPS)
    def test_vertices_and_sides_round_trip(self, specname):
        dom, gens, _ = build_group(parse_group_spec(specname))
        n = len(dom.vertices)
        targets = []
        for k, (v, pair) in enumerate(zip(dom.vertices, dom.pairings)):
            mid = geodesic_flow(UnitTangent(v, direction_to(v, dom.vertices[(k + 1) % n])),
                                0.5 * dom.sides[k].length).base
            targets += [v, pair.mobius.apply(v), pair.mobius.inv().apply(v), mid]
        for target in targets:
            z, w = pull_back(dom, target)
            assert dom.contains(z)
            assert abs(mobius_of_word(gens, w).apply(z).z - target.z) < 1e-9

    @pytest.mark.parametrize("specname", ["surface:2", "surface:8"])
    def test_distance_25_round_trips(self, specname):
        # some pairing sends such a point within 1e-12 of the boundary, where
        # greedy_pull_back, which tries them all, is refused; the pairings
        # crossed on the way out only move it inward
        dom, gens, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(25)
        for _ in range(20):
            ut = UnitTangent(dom.interior_point, rng.uniform(0.0, 2.0 * math.pi))
            target = geodesic_flow(ut, 25.0).base
            z, w = pull_back(dom, target)
            assert dom.contains(z)
            assert abs(mobius_of_word(gens, w).apply(z).z - target.z) < 1e-9

    @pytest.mark.parametrize("specname", PULL_BACK_GROUPS)
    def test_word_is_the_negated_coding(self, specname):
        dom, _, _ = build_group(parse_group_spec(specname))
        c, rng = dom.interior_point, np.random.default_rng(7)
        for _ in range(50):
            target = HPoint(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-4.0, 2.0)))
            d = hyp_dist(c, target)
            gens = coding(dom, UnitTangent(c, direction_to(c, target)), d).gens
            assert pull_back(dom, target)[1] == tuple(-g for g in gens.tolist())

    def test_word_negates_the_traced_segment(self, tri334, monkeypatch):
        # the word is read off the generator array of the one segment that
        # pull_back traces, as Python ints
        dom, _, _ = tri334
        real, traced = fuchsian.trace_geodesic, []

        def recording(dom, ut, T):
            traced.append(real(dom, ut, T))
            return traced[-1]

        monkeypatch.setattr(fuchsian, "trace_geodesic", recording)
        _, word = pull_back(dom, HPoint(2.5, 0.01))
        [(_, gens)] = traced
        assert len(gens) > 5
        assert word == tuple((-gens).tolist()) and all(type(g) is int for g in word)


class TestCoding:
    def test_short_segment_empty(self, tri334):
        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point, 0.3)
        cs = coding(dom, ut, 0.05)
        assert len(cs.times) == 0
        # with no crossing the segment ends at the flow from the start
        end = geodesic_flow(ut, 0.05)
        assert dom.contains(end.base)
        assert abs(hyp_dist(end.base, dom.interior_point) - 0.05) < 1e-9

    def test_first_crossing_dense_sampling_oracle(self, tri334):
        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point, 1.1)
        cs = coding(dom, ut, 2.0)
        t1 = cs.times[0]
        # dense sampling: first time the ray leaves the closed domain (at no
        # tolerance)
        step = 1e-4
        t, p = step, geodesic_flow(ut, step).base
        while min(dom.clearances(p.x, p.y)) >= 0.0:
            t += step
            p = geodesic_flow(ut, t).base
        assert abs(t - t1) < 2e-4
        # the exit side is the one whose clearance went negative
        exit_state = geodesic_flow(ut, t)
        clear = dom.clearances(exit_state.base.x, exit_state.base.y)
        side = int(np.argmin(clear))
        assert dom.pairings[side].word == (cs.gens[0],)

    def test_concatenation(self, tri334):
        dom, gens, _ = tri334
        ut = UnitTangent(dom.interior_point, 0.7345)
        both = coding(dom, ut, 13.0)
        k = int(np.searchsorted(both.times, 6.0, "right")) - 1  # last crossing by t = 6
        # the state there: the flow's, pushed by the crossed pairings g_k ... g_1
        end = geodesic_flow(ut, both.times[k])
        m = mobius_of_word(gens, tuple(both.gens[:k + 1].tolist())[::-1])
        state = UnitTangent(m.apply(end.base), end.angle + deriv_arg(m, end.base.z))
        c2 = coding(dom, state, 13.0 - both.times[k])
        assert len(both.gens) == k + 1 + len(c2.gens)
        assert (both.gens[k + 1:] == c2.gens).all()
        assert np.abs(both.times[k] + c2.times - both.times[k + 1:]).max() < 1e-7

    def test_coding_covariance_under_pairing(self, tri334):
        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point, 0.61)
        ref = coding(dom, ut, 8.0)
        g = dom.pairings[2].mobius
        moved = UnitTangent(g.apply(ut.base), ut.angle + deriv_arg(g, ut.base.z))
        base_back, _ = pull_back(dom, moved.base)
        assert abs(base_back.z - ut.base.z) < 1e-9
        # recoding from the translated-and-pulled-back state reproduces the
        # coding (the pulled-back tangent is the original state)
        h = g.inv()
        pulled = UnitTangent(h.apply(moved.base), moved.angle + deriv_arg(h, moved.base.z))
        again = coding(dom, pulled, 8.0)
        assert (again.gens == ref.gens).all()

    def test_start_outside_refused(self, tri334):
        # from the tile across side 2, aimed at the interior point, the ray
        # enters D: that entry would go missing from its coding, so the start
        # is refused; pulled back into D, the same state codes
        dom, _, _ = tri334
        g = dom.pairings[2].mobius
        base = g.apply(dom.interior_point)
        outside = UnitTangent(base, direction_to(base, dom.interior_point))
        assert not dom.contains(outside.base)
        with pytest.raises(ResourceError, match="start lies outside the polygon"):
            coding(dom, outside, 8.0)
        h = g.inv()
        pulled = UnitTangent(h.apply(base), outside.angle + deriv_arg(h, base.z))
        assert len(coding(dom, pulled, 8.0).gens) > 0

    @pytest.mark.parametrize("specname,bound", [("triangle:3,3,4", 8),
                                                ("surface:2", 4)])
    def test_crossing_rate_bound(self, specname, bound):
        dom, gens, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(11)
        worst = 0
        for _ in range(100):
            ang = rng.uniform(0, 2 * math.pi)
            cs = coding(dom, UnitTangent(dom.interior_point, ang), 1.0)
            worst = max(worst, len(cs.times))
        assert worst <= bound

    def test_seed4200_codes_every_lane(self, tri334):
        # lane 0 of this batch reaches a state 1e-10 inside side 1 near
        # t = 357.857, where the half-plane tracer found no outward exit
        dom, _, _ = tri334
        batch = code_samples(dom, RunConfig(T=1000.0, samples=4, seed=4200))
        assert batch.index == (0, 1, 2, 3)
        assert batch.failures == ()
        assert batch.times[0][-1] > 999.0

    @pytest.mark.parametrize("specname,seed", [("triangle:3,3,4", 61), ("triangle:2,3,7", 62),
                                               ("surface:2", 63), ("surface:3", 64)])
    def test_every_geodesic_codes_at_the_santalo_rate(self, specname, seed):
        # a random geodesic crosses the sides, which close up into curves of
        # length perimeter/2 on the quotient, at rate perimeter/(pi area)
        dom, _, _ = build_group(parse_group_spec(specname))
        batch = code_samples(dom, RunConfig(T=500.0, samples=64, seed=seed))
        assert batch.failures == ()
        rate = sum(len(t) for t in batch.times) / (64 * 500.0)
        perimeter = sum(side.length for side in dom.sides)
        assert abs(rate / (perimeter / (math.pi * dom.area)) - 1.0) < 0.02

    def test_vertex_aimed_ray_completes_unperturbed(self, tri334):
        from lyaplab.hypgeo import direction_to

        dom, _, _ = tri334
        ut = UnitTangent(dom.interior_point,
                         direction_to(dom.interior_point, dom.vertices[1]))
        cs = coding(dom, ut, 5.0)
        assert len(cs.times) > 0

    @pytest.mark.parametrize("specname", ["triangle:3,3,4", "triangle:2,3,7",
                                          "surface:2"])
    def test_vertex_aimed_rays_all_groups(self, specname):
        # rays through vertices cascade through corner copies at one time
        # (and for the triangle axis run along mirror lines of the tiling);
        # coding must survive and end in the tile that the rays turned by
        # 1e-9 to one side or the other end in.  The tile is w^-1 D for w
        # the product of the crossing pairings in reverse order.
        from lyaplab.hypgeo import direction_to

        dom, gens, _ = build_group(parse_group_spec(specname))

        def tile(angle):
            cs = coding(dom, UnitTangent(dom.interior_point, angle), 15.0)
            return cs, mobius_of_word(gens, tuple(cs.gens.tolist())[::-1]).mat

        for v in dom.vertices:
            angle = direction_to(dom.interior_point, v)
            cs, w = tile(angle)
            assert len(cs.times) > 3
            assert np.all(np.diff(cs.times) >= 0)
            assert min(min(np.abs(w - u).max(), np.abs(w + u).max()) / np.abs(u).max()
                       for u in (tile(angle + eps)[1] for eps in (1e-9, -1e-9))) < 1e-8

    @pytest.mark.parametrize("specname", BUILTIN)
    def test_walk_matches_hyperboloid_oracle(self, specname):
        # 24 random geodesics, half from random base points, code alike for
        # T = 20, with times within 1e-6 up to t = 15.  Past that rounding
        # grows like e^t, more at grazing crossings: on 24 geodesics against
        # a 60-digit trace of the same polygon, the oracle's T = 20 times were
        # off by up to 7.6e-6 on surface:3 and the walk's by up to 2.4e-6.
        dom, gens, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(71)
        for i in range(24):
            base = _sample_base(dom, rng) if i % 2 else dom.interior_point
            ut = UnitTangent(base, rng.uniform(0.0, 2.0 * math.pi))
            walk = _pairs(dom, ut, 20.0)
            oracle = list(hyperboloid_crossings(dom, ut, 20.0))
            assert [g for _, g in walk] == [g for _, g in oracle]
            assert max(abs(t - u) for (t, _), (u, _) in zip(walk, oracle) if u <= 15.0) <= 1e-6
        # a ray through a vertex passes the corner copies around it, or runs
        # along sides, by a route that rounding picks in either tracer: both
        # must end in one tile, w^-1 D for w the crossings' product reversed
        for v in dom.vertices:
            ut = UnitTangent(dom.interior_point, direction_to(dom.interior_point, v))
            w, u = (mobius_of_word(gens, tuple(g for _, g in trace(dom, ut, 20.0))[::-1]).mat
                    for trace in (_pairs, hyperboloid_crossings))
            assert min(np.abs(w - u).max(), np.abs(w + u).max()) <= 1e-7 * np.abs(u).max()

    @pytest.mark.parametrize("specname", BUILTIN)
    def test_rays_from_sides_and_vertices_code_or_refuse(self, specname):
        # from the middle of each side along it both ways (its corners have
        # sign 0 up to rounding), into and out of the polygon, and from each
        # vertex along its side, inward and outward: each ray codes or is
        # refused; a coding's endpoint, pushed by its crossings, is in D
        dom, _, _ = build_group(parse_group_spec(specname))
        pairing = {p.word[0]: p.mobius for p in dom.pairings}
        n, coded = len(dom.vertices), 0
        for k in range(n):
            for i, ut in enumerate(_side_and_vertex_rays(dom, k)):
                try:
                    cs = _pairs(dom, ut, 10.0)
                except ResourceError:
                    assert i not in (2, 5), "an inward ray must code"
                    continue
                times = [t for t, _ in cs]
                assert times == sorted(times) and all(0.0 <= t <= 10.0 for t in times)
                if i == 3:  # outward from the side: through it at t = 0
                    assert times[0] < 1e-12 and cs[0][1] == dom.pairings[k].word[0]
                end, m = geodesic_flow(ut, 10.0).base, Mobius.identity()
                for _, g in cs:
                    m = pairing[g] @ m
                z = m.apply(end)
                assert min(dom.clearances(z.x, z.y)) >= -1e-8
                coded += 1
        assert coded >= 5 * n

    @pytest.mark.parametrize("specname", BUILTIN)
    def test_two_passes_match_the_scalar_walk(self, specname):
        # the chunked walk gives the scalar walk's pairs bit for bit, and
        # refuses where it refuses: random geodesics, half from random
        # bases, rays through the vertices (whose corner crossings of
        # length 0 can outrun the first chunk's estimate), and the rays from
        # the sides and vertices; chunks of 7 make every long trace run on
        # past its first chunk
        dom, _, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(72)
        rays = [UnitTangent(_sample_base(dom, rng) if i % 2 else dom.interior_point,
                            rng.uniform(0.0, 2.0 * math.pi)) for i in range(24)]
        rays += [UnitTangent(dom.interior_point, direction_to(dom.interior_point, v))
                 for v in dom.vertices]
        traces = [(ut, T) for ut in rays for T in (0.05, 20.0, 300.0)]
        traces += [(ut, 10.0) for k in range(len(dom.vertices))
                   for ut in _side_and_vertex_rays(dom, k)]
        for ut, T in traces:
            oracle = _trace(scalar_walk_crossings, dom, ut, T)
            assert _trace(_pairs, dom, ut, T) == oracle
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fuchsian, "_CHUNK_MAX", 7)
                assert _trace(_pairs, dom, ut, T) == oracle

    @pytest.mark.parametrize("specname", BUILTIN)
    def test_shorter_codings_are_prefixes(self, specname):
        # chunks end where T puts them, so arithmetic that depended on the
        # chunking would break these prefixes; each stops only at T
        dom, _, _ = build_group(parse_group_spec(specname))
        rng = np.random.default_rng(73)
        for i in range(6):
            ut = UnitTangent(_sample_base(dom, rng) if i % 2 else dom.interior_point,
                             rng.uniform(0.0, 2.0 * math.pi))
            full = _pairs(dom, ut, 300.0)
            for T in (0.01, 1.0, 37.5, 150.0):
                part = _pairs(dom, ut, T)
                assert part == full[:len(part)]
                assert len(part) == len(full) or full[len(part)][0] > T - 1e-9

    def test_crossing_budget_refuses_after_the_scalar_walks_crossings(self):
        # an inradius this large leaves a budget of 64 crossings, fewer than
        # T = 100 needs: the scalar walk yields 64 crossings, then refuses,
        # and the array walk refuses alike, at a chunk of 7 as well
        dom, _, _ = build_group(GroupSpec.triangle(3, 3, 4))
        dom.inradius = 1e6
        assert int(64 + 16.0 * 100.0 / dom.inradius) == 64
        ut = UnitTangent(dom.interior_point, 0.7)
        oracle = _trace(scalar_walk_crossings, dom, ut, 100.0)
        assert len(oracle[0]) == 64
        assert oracle[1] == "crossing budget exceeded (tracing runaway)"
        assert _trace(_pairs, dom, ut, 100.0) == ([], oracle[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fuchsian, "_CHUNK_MAX", 7)
            assert _trace(_pairs, dom, ut, 100.0) == ([], oracle[1])
        batch = code_samples(dom, RunConfig(T=100.0, samples=2, seed=5))
        assert batch.index == ()
        assert [i for i, _ in batch.failures] == [0, 1]
        assert all("crossing budget exceeded" in msg for _, msg in batch.failures)

    def test_flat_vertex_group_codes(self):
        # the order-2 corner of triangle(2,3,7) is a straight angle; the
        # two collinear sides must not confuse the tracer
        dom, gens, rels = build_group(GroupSpec.triangle(2, 3, 7))
        cs = coding(dom, UnitTangent(dom.interior_point, 0.37), 50.0)
        assert len(cs.times) > 20
        assert np.all(np.diff(cs.times) > 0)


def _side_and_vertex_rays(dom, k):
    """From the middle of side k along it both ways, into and out of the
    polygon, then from vertex k along side k, inward and outward."""
    a, b = dom.vertices[k], dom.vertices[(k + 1) % len(dom.vertices)]
    mid = geodesic_flow(UnitTangent(a, direction_to(a, b)), 0.5 * hyp_dist(a, b))
    inward = direction_to(a, dom.interior_point)
    rays = [UnitTangent(mid.base, mid.angle + turn)
            for turn in (0.0, math.pi, math.pi / 2.0, -math.pi / 2.0)]
    return rays + [UnitTangent(a, direction_to(a, b)), UnitTangent(a, inward),
                   UnitTangent(a, inward + math.pi)]


def _pairs(dom, ut, T):
    """fuchsian.trace_geodesic's crossings as (time, signed generator) pairs."""
    times, gens = fuchsian.trace_geodesic(dom, ut, T)
    return list(zip(times.tolist(), gens.tolist()))


def _trace(trace, dom, ut, T):
    """The crossings a tracer gives before it returns or refuses, and its
    refusal's message (None when it returns)."""
    out = []
    try:
        for item in trace(dom, ut, T):
            out.append(item)
    except ResourceError as exc:
        return out, str(exc)
    return out, None


class TestOrbit:
    def test_tmax_zero(self, tri334):
        dom, _, _ = tri334
        pts, dists = orbit_ball(dom, dom.interior_point, 0.0)
        assert len(pts) == 1 and dists[0] == 0.0
        assert abs(pts[0] - dom.interior_point.z) < 1e-12

    def test_counts_monotone(self, tri334):
        dom, _, _ = tri334
        counts = [len(orbit_ball(dom, dom.interior_point, t)[0])
                  for t in (0.0, 1.0, 2.0, 3.5, 5.0)]
        assert counts == sorted(counts)

    def test_radius_range(self, tri334):
        dom, _, _ = tri334
        for t in (-0.5, 18.5):
            with pytest.raises(ValueError):
                orbit_ball(dom, dom.interior_point, t)

    def test_count_asymptotics(self, tri334):
        dom, _, _ = tri334
        covol = math.pi / 6
        pts, _ = orbit_ball(dom, dom.interior_point, 8.0)
        ratio = len(pts) * covol / ball_volume(8.0)
        assert 0.9 <= ratio <= 1.1

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_cone_point_refused(self, tri334, k):
        # every vertex of the (3,3,4) quadrilateral is a cone point; moved
        # by a generator, it must still be refused, never counted |Stab| times,
        # also by a ball of radius 0
        dom, gens, _ = tri334
        v = gens[1].apply(dom.vertices[k])
        for t_max in (4.0, 0.0):
            with pytest.raises(ResourceError, match="cone point"):
                orbit_ball(dom, v, t_max)

    def test_near_cone_point_counts(self, tri334):
        dom, _, _ = tri334
        z0 = HPoint(dom.vertices[0].x + 1e-3, dom.vertices[0].y + 1e-3)
        pts, dists = orbit_ball(dom, z0, 6.0)
        assert np.sort(dists)[1] > 1e-3  # the nearest other orbit point
        ratio = len(pts) * (math.pi / 6) / ball_volume(6.0)
        assert 0.9 <= ratio <= 1.1

    @pytest.mark.parametrize("centre", [None, (0.05, 1.3)], ids=["interior", "off-centre"])
    def test_truncation_refused(self, tri334, monkeypatch, centre):
        # the cap counts the elements the search enumerates: all of them kept
        # at the interior point, more than the kept ones off it
        dom, _, _ = tri334
        z0 = dom.interior_point if centre is None else HPoint(*centre)
        kept = len(orbit_ball(dom, z0, 6.0)[0])
        cap = kept if centre else kept - 1
        monkeypatch.setattr(fuchsian, "ORBIT_MAX_POINTS", cap)
        with pytest.raises(ResourceError, match=f"orbit ball exceeds {cap} points"):
            orbit_ball(dom, z0, 6.0)
        if centre is None:
            monkeypatch.setattr(fuchsian, "ORBIT_MAX_POINTS", kept)
            assert len(orbit_ball(dom, z0, 6.0)[0]) == kept

    def test_off_center_base_point(self, tri334):
        dom, _, _ = tri334
        z0 = HPoint(0.05, 1.3)
        pts, dists = orbit_ball(dom, z0, 6.0)
        assert np.all(dists <= 6.0 + 1e-12)
        ratio = len(pts) * (math.pi / 6) / ball_volume(6.0)
        assert 0.8 <= ratio <= 1.2

    def test_other_groups_count_asymptotics(self):
        # covolume of triangle(2,3,7) is pi/21
        dom, _, _ = build_group(GroupSpec.triangle(2, 3, 7))
        pts, _ = orbit_ball(dom, dom.interior_point, 7.0)
        ratio = len(pts) * (math.pi / 21) / ball_volume(7.0)
        assert 0.9 <= ratio <= 1.1

    @pytest.mark.parametrize("group, centre", [("triangle:3,3,4", (0.3, 0.9)),
                                               ("surface:2", (0.1, 1.1))])
    def test_polygon_pairings_strand_elements(self, group, centre):
        # about these centres the polygon's pairings are not the Dirichlet
        # faces, and descent over them meets elements with no closer neighbour
        dom, _, _ = build_group(parse_group_spec(group))
        frame = Mobius.to_point(HPoint(*centre)).mat
        S = np.array([linrep.adjugate(frame) @ p.mobius.mat @ frame for p in dom.pairings])
        with pytest.raises(ResourceError, match="no strictly closer neighbour"):
            fuchsian._orbit_bfs(S, frame, np.eye(2), 8.0)

    def test_pairings_without_inverses_refused(self, tri334):
        _, gens, _ = tri334
        with pytest.raises(ResourceError, match="not closed under inverses"):
            fuchsian._orbit_bfs(np.array([g.mat for g in gens]), np.eye(2), np.eye(2), 4.0)

    def test_tie_gap_above_the_band_refused(self, tri334, monkeypatch):
        # the interior point lies on the polygon's mirror axis, so neighbour
        # norms tie in mirror pairs up to rounding; a band of half the largest
        # such gap leaves that gap in (band, 10 band], which no rule settles
        dom, _, _ = tri334
        S, frame, K = bfs_inputs(dom, dom.interior_point)
        g = np.concatenate([x for x, _, _ in stack_descend(S, 2.0 * math.cosh(4.0))])
        norms = ((g[:, None] @ S[None]) ** 2).sum(axis=(2, 3))
        rel = norms / norms.min(axis=1, keepdims=True) - 1.0
        gaps = rel[(rel > 0.0) & (rel <= fuchsian.TIE_BAND)]
        assert len(gaps) and gaps.max() < 1e-13  # inexact ties, at rounding level
        assert len(fuchsian._orbit_bfs(S, frame, K, 4.0).points) == len(g)
        monkeypatch.setattr(fuchsian, "TIE_BAND", gaps.max() / 2.0)
        with pytest.raises(ResourceError, match="tie the band cannot settle"):
            fuchsian._orbit_bfs(S, frame, K, 4.0)

    def test_mirror_ties_count_once(self, tri334):
        dom, _, _ = tri334
        pts, _ = orbit_ball(dom, dom.interior_point, 8.0)
        tree = cKDTree(np.column_stack([pts.real, pts.imag]))
        gap, _ = tree.query(np.column_stack([-pts.real, pts.imag]))
        assert np.all(gap <= 1e-9 * np.abs(pts))  # its own mirror image: exact ties
        assert not tree.query_pairs(1e-7)  # and no point twice

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


def _per_value_outcomes(rep, split, values):
    out = []
    for s in values:
        try:
            out.append(per_value_bend(rep, split, s))
        except (DegenerateBendingError, RepresentationError) as exc:
            out.append(exc)
    return out


def _assert_bends_match_oracle(rep, split, values):
    """bend_representations against the per-value oracle: bent generators
    and inverses bit-identical, refusals of one type and message, and the
    stacked and one-rep relation gates within 1e-12 relative of the
    oracle's gate, with its verdict."""
    got = fuchsian.bend_representations(rep, split, values)
    want = _per_value_outcomes(rep, split, values)
    assert len(got) == len(values)
    bent = []
    for s, g, w in zip(values, got, want):
        if isinstance(w, Exception):
            assert (type(g), str(g)) == (type(w), str(w)), s
            continue
        assert (g is rep) == (w is rep) == (s == 0)
        assert (g.field, g.label, g.unit_det, g.projective_flag, g.relations) == \
            (w.field, w.label, w.unit_det, w.projective_flag, w.relations)
        for a, b in zip(g.generators + g._inverses, w.generators + w._inverses):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), s
        bent.append(g)
    for field in {r.field for r in bent}:
        reps = [r for r in bent if r.field == field]
        for r, stacked in zip(reps, relation_reports(reps)):
            oracle = per_rep_check_relations(r)
            for report in (stacked, check_relations(r)):
                assert report.holds() == oracle.holds()
                assert math.isclose(report.max_residual, oracle.max_residual, rel_tol=1e-12)
                assert math.isclose(report.max_relative, oracle.max_relative, rel_tol=1e-12)
    return want


REAL_BENDS = (-16.0, -8.0, -1.0, 0.0, 0.5, 2.0, 8.0, 16.0, 60.0, 400.0)


class TestBendOracle:
    def test_imaginary_grid(self, fuchs_g2):
        values = [complex(0.0, v) for v in np.linspace(0.0, 3.0, 13)]
        want = _assert_bends_match_oracle(fuchs_g2, BendingSplit.genus2_standard(), values)
        assert not any(isinstance(w, Exception) for w in want)

    @pytest.mark.parametrize("as_complex", [True, False], ids=["complex", "float"])
    def test_real_grid(self, fuchs_g2, as_complex):
        values = [complex(v, 0.0) if as_complex else v for v in REAL_BENDS]
        want = _assert_bends_match_oracle(fuchs_g2, BendingSplit.genus2_standard(), values)
        refused = {v: (type(w).__name__, str(w)) for v, w in zip(REAL_BENDS, want)
                   if isinstance(w, Exception)}
        assert refused == {
            60.0: ("DegenerateBendingError", "bent relations fail: residual inf (relative inf)"),
            400.0: ("RepresentationError", "non-finite generator entries"),
        }

    def test_parabolic_curve(self):
        rep = Representation(
            2, "real",
            [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])],
            (), "parabolic-test", unit_det=True,
        )
        want = _assert_bends_match_oracle(rep, BendingSplit(frozenset({2}), (1,)),
                                          [0.0, 0.5, 1j, complex(-2.0, 0.5)])
        assert want[0] is rep
        assert all(str(w) == "splitting curve is parabolic" for w in want[1:])

    def test_split_that_breaks_relations(self, fuchs_g2):
        want = _assert_bends_match_oracle(
            fuchs_g2, BendingSplit(frozenset({3}), (1, 2, -1, -2)), [1.0, 0.0, 0.5j, 2j])
        assert [isinstance(w, DegenerateBendingError) for w in want] == [True, False, True, True]
