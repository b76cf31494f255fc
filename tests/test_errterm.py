import math

import numpy as np
import pytest

from lyaplab.devmaps import Covector
from lyaplab.errterm import (
    ConfigurationError,
    CountFunction,
    ResolutionError,
    count_csv,
    count_in_balls,
    err_estimate,
    sum_rule_check,
)
from lyaplab.fuchsian import orbit_ball
from lyaplab.hypgeo import HPoint, UnitTangent, geodesic_flow, hyp_dist
from lyaplab.linrep import trivial_rep
from lyaplab.oseledets import RunConfig, SpectrumEstimate, estimate_spectrum

COVOL_334 = math.pi / 6


@pytest.fixture(scope="module")
def orbit10(tri334):
    dom, _, _ = tri334
    return orbit_ball(dom, dom.interior_point, 10.0)


class TestCountFunction:
    def test_empty_point_set(self, tri334):
        dom, _, _ = tri334
        grid = np.linspace(0.3, 20.0, 100)
        cf = count_in_balls(((), ()), dom.interior_point, grid)
        assert (cf.counts == 0).all()

    def test_single_point_step(self, tri334):
        dom, _, _ = tri334
        center = dom.interior_point
        p = geodesic_flow(UnitTangent(center, 0.4), 1.5).base
        grid = np.linspace(0.3, 5.0, 100)
        cf = count_in_balls(([p.z], [hyp_dist(center, p)]), center, grid)
        i = np.searchsorted(grid, 1.5)
        assert cf.counts[i - 1] == 0 and cf.counts[i] == 1
        assert cf.counts[-1] == 1

    def test_orbit_and_points_agree_exactly(self, tri334):
        # the returned points, measured afresh from the centre, count the
        # same as the distances the enumerator returns with them
        dom, _, _ = tri334
        grid = np.linspace(0.3, 5.0, 80)
        pts, dists = orbit_ball(dom, dom.interior_point, 5.0)
        afresh = [hyp_dist(dom.interior_point, HPoint(z.real, z.imag)) for z in pts]
        cf1 = count_in_balls((pts, afresh), dom.interior_point, grid)
        cf2 = count_in_balls((pts, dists), dom.interior_point, grid)
        assert (cf1.counts == cf2.counts).all()
        assert cf1.counts[-1] == len(pts)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            CountFunction(np.array([1.0, 2.0]), np.array([2, 1]), np.array([0, 0]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CountFunction(np.array([0.0, 1.0]), np.array([0, 0]), np.array([0, 0]))

    @pytest.mark.parametrize("t", [[], [0.5, math.nan], [0.5, math.inf], [math.nan]])
    def test_empty_or_non_finite_grid_refused(self, t):
        zeros = np.zeros(len(t), dtype=np.int64)
        with pytest.raises(ValueError, match="t grid must be nonempty and finite"):
            CountFunction(np.array(t), zeros, zeros)


class TestErrEstimate:
    def test_empty_locus_exact_zero(self, tri334):
        dom, _, _ = tri334
        u = Covector((1.0, -(0.1 - 1.0j)))
        grid = np.linspace(0.3, 20.0, 120)
        cf = count_in_balls((2, u), dom.interior_point, grid)
        est = err_estimate(cf, 20.0)
        assert est.value == 0.0
        assert est.converged_flag

    def test_finite_locus_decays_like_one_over_T(self):
        u = Covector((1.0, 0.0, 1.0))
        center = HPoint(0.0, 2.0)
        head = np.linspace(0.25, 12.0, 200)
        tail = np.linspace(12.0, 2000.0, 300)[1:]
        grid = np.concatenate([head, tail])
        cf = count_in_balls((3, u), center, grid)
        est = err_estimate(cf, 2000.0)
        # one point at distance log 2: err(T) = (coth(log2 / 2) - 1) / (2T)
        exact = (1.0 / math.tanh(math.log(2.0) / 2.0) - 1.0) / (2.0 * 2000.0)
        assert est.value < 1e-3
        assert abs(est.value - exact) / exact < 0.01
        assert est.unaveraged < 1e-9

    def test_orbit_calibration(self, tri334, orbit10):
        dom, _, _ = tri334
        pts, dists = orbit10
        grid = np.linspace(0.3, 10.0, 160)
        cf = count_in_balls((pts, dists), dom.interior_point, grid)
        est = err_estimate(cf, 10.0)
        target = math.pi / COVOL_334
        assert abs(est.value - target) / target < 0.10
        assert est.converged_flag

    def test_center_independence(self, tri334):
        dom, _, _ = tri334
        grid = np.linspace(0.3, 10.0, 160)
        vals = []
        for center in (dom.interior_point, HPoint(0.15, 1.2)):
            pts, dists = orbit_ball(dom, center, 10.0)
            cf = count_in_balls((pts, dists), center, grid)
            vals.append(err_estimate(cf, 10.0).value)
        assert abs(vals[0] - vals[1]) / vals[0] < 0.10

    def test_quadrature_refinement(self, tri334, orbit10):
        dom, _, _ = tri334
        pts, dists = orbit10
        vals = []
        for n in (160, 320):
            grid = np.linspace(0.3, 10.0, n)
            cf = count_in_balls((pts, dists), dom.interior_point, grid)
            vals.append(err_estimate(cf, 10.0).value)
        assert abs(vals[0] - vals[1]) / vals[0] < 0.01

    def test_resolution_error(self, tri334):
        dom, _, _ = tri334
        grid = np.linspace(0.3, 20.0, 20)
        cf = count_in_balls(((), ()), dom.interior_point, grid)
        with pytest.raises(ResolutionError):
            err_estimate(cf, 20.0)

    def test_grid_must_reach_tmax(self, tri334):
        dom, _, _ = tri334
        grid = np.linspace(0.3, 5.0, 100)
        cf = count_in_balls(((), ()), dom.interior_point, grid)
        with pytest.raises(ResolutionError):
            err_estimate(cf, 10.0)

    def test_covector_rescale_invariance(self):
        grid = np.linspace(0.3, 12.0, 100)
        vals = []
        for scale in (1.0, -2.3 + 0.7j):
            u = Covector((scale * 1.0, 0.0, scale * 1.0))
            cf = count_in_balls((3, u), HPoint(0.0, 2.0), grid)
            vals.append(err_estimate(cf, 12.0).value)
        assert vals[0] == vals[1]


class TestSumRule:
    def test_trivial_rep(self, tri334):
        dom, gens, rels = tri334
        spec = estimate_spectrum(dom, trivial_rep(2, len(gens), rels),
                                 RunConfig(T=100.0, samples=4, seed=2))
        grid = np.linspace(0.3, 20.0, 100)
        est = err_estimate(count_in_balls(((), ()), dom.interior_point, grid), 20.0)
        rep = sum_rule_check(spec, 0, est, k=1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    @pytest.mark.parametrize("ratio,want", [(1, 1.0), (2, 2.0), ("1/2", 0.5)])
    def test_degree_ratio_read_as_an_exact_rational(self, tri334, ratio, want):
        dom, _, _ = tri334
        values = np.array([want, -want])
        spec = SpectrumEstimate(values, np.zeros(2), 4, "minus4", "x", 100.0, 1,
                                np.tile(values, (4, 1)), (), "")
        grid = np.linspace(0.3, 20.0, 60)
        est = err_estimate(count_in_balls(((), ()), dom.interior_point, grid), 20.0)
        report = sum_rule_check(spec, ratio, est, k=1)
        assert report.rhs == want and report.discrepancy == 0.0 and report.sigma_units == 0.0

    def test_fuchsian_point(self, tri334, fuchs334):
        dom, _, _ = tri334
        spec = estimate_spectrum(dom, fuchs334, RunConfig(T=600.0, samples=24, seed=31))
        grid = np.linspace(0.3, 20.0, 100)
        est = err_estimate(count_in_balls(((), ()), dom.interior_point, grid), 20.0)
        report = sum_rule_check(spec, 1, est, k=1)
        assert report.sigma_units < 3.0

    def test_normalization_mismatch(self, tri334, fuchs334):
        dom, _, _ = tri334
        spec = estimate_spectrum(dom, fuchs334,
                                 RunConfig(T=100.0, samples=4, seed=2,
                                           normalization="minus1"))
        grid = np.linspace(0.3, 20.0, 60)
        est = err_estimate(count_in_balls(((), ()), dom.interior_point, grid), 20.0)
        with pytest.raises(ConfigurationError):
            sum_rule_check(spec, 1, est, k=1)


class TestCsv:
    def test_schema_and_summary(self, tri334):
        dom, _, _ = tri334
        grid = np.linspace(0.3, 20.0, 60)
        cf = count_in_balls(((), ()), dom.interior_point, grid)
        est = err_estimate(cf, 20.0)
        text = count_csv(cf, est)
        lines = text.strip().split("\n")
        assert lines[0] == "t,count,count_over_vol,running_err"
        assert len([l for l in lines if not l.startswith("#")]) == 61
        assert lines[-1].startswith("# err=")
