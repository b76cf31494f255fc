"""Per-node orbit counts pinned from the hashed breadth-first enumerator
that the Dirichlet reverse search replaced, run with the provably
sufficient margin 2R + 0.5 (R the largest distance from the centre to a
polygon vertex), on 50-node grids linspace(0.3, t_max, 50).

The centres cover the interior point of each built-in group, two centres
where descent over the polygon generators fails ((0.3, 0.9) and
surface:2 (0.1, 1.1)), and the off-polygon centre (2.0, 0.5), where the
old default margin (diameter + 0.25) missed 490 of the 2,584 points.

The same centres, and the four centres of the orbit-calib benchmark at
t = 10, also check the ball filtered from one search about the interior
point against the certification it replaced: the stack-based search
(conftest.stack_descend) over the faces of the Dirichlet domain about the
pulled-back centre, which conftest.certified_dirichlet certifies with the
clipped cell (conftest.clip_cell).  Those are the same points and
distances.  On triangle and surface groups the polygon's distinct
pairings, which start every ball, are the faces that the generator-grown
bootstrap (conftest.generator_dirichlet) certifies.  Three balls that the
certification counted slowly or refused (a far centre and a near-vertex
one on surface:8, the centre of surface:32) are pinned against the stack
search about the interior point, and checked for covariance.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lyaplab import fuchsian, linrep
from lyaplab.errterm import count_in_balls
from lyaplab.fuchsian import build_group, orbit_ball, parse_group_spec, pull_back
from lyaplab.hypgeo import HPoint, Mobius, hyp_dist

from conftest import (bfs_inputs, certified_dirichlet, distinct, generator_dirichlet,
                      stack_ball_about_c, stack_orbit_bfs)

PINNED = [
    ("triangle:3,3,4", None, 8.0,
        [1, 1, 1, 5, 5, 5, 9, 13, 19, 19, 27, 39, 39, 47, 57, 77, 81, 109, 127, 147,
         167, 203, 243, 279, 339, 395, 471, 555, 629, 757, 879, 1023, 1203, 1475,
         1671, 1975, 2303, 2685, 3125, 3697, 4329, 5021, 5921, 6977, 8141, 9515,
         11055, 13013, 15277, 17813]),
    ("triangle:2,3,7", None, 8.0,
        [4, 4, 8, 14, 18, 26, 38, 48, 62, 74, 96, 126, 148, 180, 216, 245, 305, 375,
         445, 532, 610, 716, 854, 1000, 1196, 1404, 1636, 1934, 2270, 2642, 3154,
         3678, 4262, 5026, 5897, 6873, 8129, 9500, 11092, 12908, 15102, 17788, 20816,
         24302, 28518, 33404, 38948, 45676, 53544, 62532]),
    ("surface:2", None, 9.0,
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9, 25, 25,
         25, 49, 49, 49, 65, 65, 65, 97, 105, 137, 137, 169, 265, 297, 345, 441, 537,
         649, 761, 857, 1001, 1161, 1353, 1609, 2057]),
    ("surface:3", None, 9.0,
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 13, 13, 13,
         13, 13, 13, 13, 13, 37, 37, 37, 61, 61, 61, 85, 145, 145, 169, 169, 193, 193,
         265, 337, 397, 445, 541, 661, 853, 949]),
    ("triangle:3,3,4", (0.15, 1.2), 8.0,
        [1, 3, 3, 3, 3, 7, 7, 18, 20, 24, 27, 33, 40, 52, 58, 78, 91, 107, 121, 148,
         172, 217, 243, 288, 336, 400, 460, 556, 653, 774, 873, 1050, 1215, 1428,
         1692, 1982, 2327, 2729, 3138, 3690, 4297, 5060, 6011, 6968, 8149, 9530,
         11062, 13018, 15234, 17910]),
    ("triangle:3,3,4", (0.3, 0.9), 8.0,
        [1, 1, 3, 5, 5, 7, 7, 16, 20, 22, 29, 35, 41, 51, 58, 71, 89, 109, 125, 151,
         170, 211, 244, 277, 345, 413, 472, 551, 649, 770, 890, 1031, 1236, 1455,
         1682, 1963, 2316, 2712, 3164, 3695, 4317, 5088, 5967, 6953, 8155, 9579,
         11113, 13063, 15253, 17854]),
    ("triangle:3,3,4", (2.0, 0.5), 6.0,
        [4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 36, 36, 36, 36, 36, 36, 36, 36, 68, 68, 68,
         68, 132, 162, 164, 164, 164, 164, 228, 228, 234, 356, 356, 418, 474, 612,
         638, 654, 708, 804, 816, 1060, 1158, 1346, 1634, 1656, 1906, 2210, 2584]),
    ("triangle:2,3,7", (0.05, 1.05), 8.0,
        [2, 6, 10, 10, 17, 29, 36, 52, 64, 69, 99, 124, 146, 184, 212, 246, 310, 368,
         442, 532, 602, 712, 864, 1003, 1208, 1412, 1624, 1931, 2268, 2649, 3151,
         3649, 4280, 5022, 5867, 6887, 8151, 9415, 11061, 12935, 15126, 17823, 20849,
         24312, 28486, 33329, 38962, 45760, 53473, 62590]),
    ("surface:2", (0.1, 1.1), 9.0,
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 7, 9, 9, 9, 9, 11, 17, 23,
         27, 33, 45, 49, 51, 59, 63, 73, 83, 105, 121, 153, 195, 245, 297, 357, 423,
         533, 637, 731, 855, 991, 1141, 1365, 1637, 2009]),
]


@pytest.mark.parametrize("group, centre, t_max, counts", PINNED,
                         ids=[f"{g}@{c or 'interior'}" for g, c, _, _ in PINNED])
def test_pinned_counts(group, centre, t_max, counts):
    dom, _, _ = build_group(parse_group_spec(group))
    z0 = dom.interior_point if centre is None else HPoint(*centre)
    pts, dists = orbit_ball(dom, z0, t_max)
    assert dists[0] == 0.0 and np.all(dists <= t_max)
    cf = count_in_balls((pts, dists), z0, np.linspace(0.3, t_max, 50))
    assert list(cf.counts) == counts
    assert len(pts) == counts[-1]


CALIB_CENTRES = (None, (0.1, 1.2), (0.3, 1.5), (0.2, 2.0))  # perfbench orbit-calib
ORACLE_CASES = ([(g, c, t) for g, c, t, _ in PINNED]
                + [("triangle:3,3,4", c, 10.0) for c in CALIB_CENTRES]
                + [("surface:8", None, 4.0), ("surface:8", (0.1, 1.05), 5.0)])


def _assert_same_ball(pts, dists, oracle):
    """The same count, sorted distances within 1e-12, and the points matched
    one to one."""
    assert len(dists) == len(oracle.dists)
    assert np.abs(np.sort(dists) - np.sort(oracle.dists)).max() <= 1e-12
    gap, match = cKDTree(np.column_stack([oracle.points.real, oracle.points.imag])).query(
        np.column_stack([pts.real, pts.imag]))
    assert np.all(gap <= 1e-9 * np.abs(pts))
    assert len(np.unique(match)) == len(match)


@pytest.mark.parametrize("group, centre, t_max", ORACLE_CASES,
                         ids=[f"{g}@{c or 'interior'}@{t:g}" for g, c, t in ORACLE_CASES])
def test_matches_stack_oracle(group, centre, t_max):
    # the ball over the certified faces about the pulled-back centre q
    dom, _, _ = build_group(parse_group_spec(group))
    z0 = dom.interior_point if centre is None else HPoint(*centre)
    pts, dists = orbit_ball(dom, z0, t_max)
    Sc, _, frame, K = bfs_inputs(dom, z0)
    q, _ = pull_back(dom, z0)
    reach = max(hyp_dist(q, v) for v in dom.vertices)
    faces = certified_dirichlet(Sc, reach, dom.area, K, hyp_dist(dom.interior_point, q))
    _assert_same_ball(pts, dists, stack_orbit_bfs(faces, frame, t_max))


HARD_BALLS = [("surface:8", (-14.975, 0.098), 6.0, 23),
              ("surface:8", (0.9929451792114469, 0.10967918198129933), 4.0, 7),
              ("surface:32", None, 4.0, 1)]


@pytest.mark.parametrize("group, centre, t_max, count", HARD_BALLS,
                         ids=[f"{g}@{c or 'interior'}@{t:g}" for g, c, t, _ in HARD_BALLS])
def test_balls_the_certification_could_not_count(group, centre, t_max, count):
    # the certification refused the far centre (the cap) and surface:32 (a
    # tie) and counted the near-vertex ball slowly.  Moved by a generator, a
    # centre keeps its ball: the distances move by at most twice the
    # distance between the pulled-back centres, the rounding of the moved
    # point (up to 7e-11 for the far centre, whose images lie at y ~ 1e-6),
    # plus 1e-12
    dom, gens, _ = build_group(parse_group_spec(group))
    z0 = dom.interior_point if centre is None else HPoint(*centre)
    pts, dists = orbit_ball(dom, z0, t_max)
    assert len(pts) == count
    _assert_same_ball(pts, dists, stack_ball_about_c(dom, z0, t_max))
    q = pull_back(dom, z0)[0]
    for g in gens:
        moved = orbit_ball(dom, g.apply(z0), t_max)[1]
        shift = hyp_dist(q, pull_back(dom, g.apply(z0))[0])
        assert len(moved) == count
        assert np.abs(np.sort(moved) - np.sort(dists)).max() <= 1e-12 + 2.0 * shift


DIRICHLET_GROUPS = ["triangle:3,3,4", "triangle:2,3,7", "triangle:2,4,5", "triangle:4,4,4",
                    "triangle:7,7,7", "surface:2", "surface:3", "surface:4", "surface:5"]


@pytest.mark.parametrize("group", DIRICHLET_GROUPS)
def test_pairings_are_the_generator_grown_faces(group):
    # an order-2 generator pairs its two sides by one element of PSL(2, R),
    # so triangle:2,q,r has 3 faces from 4 pairings
    dom, gens, _ = build_group(parse_group_spec(group))
    frame = Mobius.to_point(dom.interior_point).mat

    def about_c(mats):
        return np.array([linrep.adjugate(frame) @ g @ frame for g in mats])

    pairings = about_c([p.mobius.mat for p in dom.pairings])
    faces = distinct(pairings)
    reach = max(hyp_dist(dom.interior_point, v) for v in dom.vertices)
    expect = generator_dirichlet(about_c([g.mat for g in gens]), reach, dom.area)
    assert len(faces) == len(expect) == len(pairings) - group.startswith("triangle:2,")
    assert fuchsian._matches(expect, faces).any(axis=1).all()


PARENT_CASES = ([(g, off, t) for g in DIRICHLET_GROUPS for off in (False, True) for t in (4.0, 7.0, 9.0)]
                + [("surface:8", off, 10.0) for off in (False, True)]
                + [("surface:32", off, 11.0) for off in (False, True)])


@pytest.mark.parametrize("group, off, t_max", PARENT_CASES,
                         ids=[f"{g}@{'off' if o else 'interior'}@{t:g}" for g, o, t in PARENT_CASES])
def test_geodesic_parents_match_the_least_neighbour_search(group, off, t_max):
    # the cone test keeps each element of the search once, as the
    # least-neighbour search (conftest.stack_descend) does, about the
    # interior point c and about the off-centre point c + (0.1 + 0.2i) Im c
    dom, _, _ = build_group(parse_group_spec(group))
    c = dom.interior_point
    z0 = HPoint(c.x + 0.1 * c.y, 1.2 * c.y) if off else c
    pts, dists = orbit_ball(dom, z0, t_max)
    Sc, _, frame, K = bfs_inputs(dom, z0)
    _assert_same_ball(pts, dists, stack_orbit_bfs(Sc, frame, t_max, K))


@pytest.mark.parametrize("centre", [None, (0.02, 1.01)], ids=["interior", "0.02,1.01"])
def test_surface16_ball_is_its_centre(centre):
    dom, _, _ = build_group(parse_group_spec("surface:16"))
    z0 = dom.interior_point if centre is None else HPoint(*centre)
    pts, dists = orbit_ball(dom, z0, 4.0)
    assert list(dists) == [0.0]
    assert abs(pts[0] - complex(z0.x, z0.y)) <= 1e-12
