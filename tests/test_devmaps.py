import math

import numpy as np
import pytest

from lyaplab.devmaps import (
    Covector,
    DevelopingMap,
    OdeDevelopingMap,
    bad_locus_count,
    equivariance_residual,
    identity_dev,
    loop_monodromy,
    ode_develop,
    oper_identity_init,
    pairing_poly_coeffs,
    phi_equivariance_residual,
    projective_sine,
    veronese_dev,
)
from lyaplab.hypgeo import BallSpec, HPoint, UnitTangent, geodesic_flow


def phi_zero(z):
    return 0.0


class TestCovector:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Covector((0.0, 0.0))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BallSpec(HPoint(0, 1), -1.0)


class TestIdentityDev:
    def test_value_at_i(self, fuchs334):
        dev = identity_dev(fuchs334)
        v = dev(1j)
        assert abs(v[0] / v[1] - 1j) < 1e-15

    def test_equivariance(self, tri334, fuchs334):
        dom, gens, _ = tri334
        dev = identity_dev(fuchs334)
        assert equivariance_residual(dev, gens, samples=1000) < 1e-9

    def test_lower_half_plane_covector_empty(self, fuchs334):
        dev = identity_dev(fuchs334)
        u = Covector((1.0, -(0.5 - 2.0j)))  # target point in the lower half-plane
        for t in (0.5, 3.0, 10.0):
            assert bad_locus_count(dev, u, BallSpec(HPoint(0, 1), t)).count == 0

    def test_upper_point_counted(self, fuchs334):
        dev = identity_dev(fuchs334)
        w = 0.3 + 1.4j
        u = Covector((1.0, -w))
        c = bad_locus_count(dev, u, BallSpec(HPoint(0, 1), 3.0))
        assert c.count == 1
        assert abs(c.points[0] - w) < 1e-12


class TestVeroneseDev:
    def test_n2_reduces_to_identity(self, fuchs334):
        v = veronese_dev(2)
        ident = identity_dev(fuchs334)
        for z in (1j, 0.5 + 2j, -1 + 0.3j):
            assert projective_sine(v(z), ident(z)) < 1e-15

    def test_equivariance_n3(self, tri334, fuchs334):
        dom, gens, _ = tri334
        dev = veronese_dev(3, fuchs334)
        assert dev.equivariance_rep.n == 3
        assert equivariance_residual(dev, gens, samples=1000) < 1e-7

    def test_polynomial_pairing(self, fuchs334):
        dev = veronese_dev(3, fuchs334)
        u = Covector((1.0, 0.0, 1.0))
        coeffs = pairing_poly_coeffs(dev, u)
        assert np.allclose(coeffs, [1.0, 0.0, 1.0])  # z^2 + 1

    def test_root_enters_at_log2(self, fuchs334):
        dev = veronese_dev(3, fuchs334)
        u = Covector((1.0, 0.0, 1.0))  # zero of z^2+1 in H: z = i
        center = HPoint(0.0, 2.0)      # d(2i, i) = log 2
        for t, expected in ((0.5, 0), (math.log(2) - 1e-3, 0),
                            (math.log(2) + 1e-3, 1), (4.0, 1)):
            c = bad_locus_count(dev, u, BallSpec(center, t))
            assert c.count == expected

    def test_boundary_flag(self, fuchs334):
        dev = veronese_dev(3, fuchs334)
        u = Covector((1.0, 0.0, 1.0))
        c = bad_locus_count(dev, u, BallSpec(HPoint(0.0, 2.0), math.log(2.0)),
                            boundary_tol=1e-6)
        assert c.boundary_uncertain == 1

    def test_counts_nested_monotone(self, fuchs334):
        dev = veronese_dev(4, fuchs334)
        u = Covector((1.0, 0.5, -0.3, 1.0))
        counts = [bad_locus_count(dev, u, BallSpec(HPoint(0, 1), t)).count
                  for t in (0.5, 1.5, 3.0, 6.0, 12.0)]
        assert counts == sorted(counts)

    def test_covector_scale_invariance(self, fuchs334):
        dev = veronese_dev(3, fuchs334)
        ball = BallSpec(HPoint(0.0, 2.0), 2.0)
        a = bad_locus_count(dev, Covector((1.0, 0.0, 1.0)), ball)
        b = bad_locus_count(dev, Covector((3.7j, 0.0, 3.7j)), ball)
        assert a.count == b.count


class TestOde:
    def test_flat_solutions(self):
        res = ode_develop(phi_zero, oper_identity_init(1j),
                          [1j, 0.7 + 1.5j, -0.4 + 2.3j])
        for z, v in zip([1j, 0.7 + 1.5j, -0.4 + 2.3j], res.dev_points):
            assert abs(v[0] / v[1] - z) < 1e-9

    def test_wronskian_drift_long_path(self):
        state = UnitTangent(HPoint(0, 1), 0.7)
        path = [state.base.z]
        for _ in range(10):
            state = geodesic_flow(state, 1.0)
            path.append(state.base.z)
        res = ode_develop(phi_zero, oper_identity_init(path[0]), path)
        assert res.wronskian_drift < 1e-8

    def test_loop_monodromy_trivial(self):
        loop = [complex(0.9 * math.cos(a), 2.0 + 0.9 * math.sin(a))
                for a in np.linspace(0, 2 * math.pi, 24)[:-1]]
        m = loop_monodromy(phi_zero, oper_identity_init(loop[0]), loop)
        assert min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max()) < 1e-7

    def test_linearity_in_initial_frame(self):
        base = oper_identity_init(1j)
        tri = np.array([[2.0, 0.7], [0.0, 0.5]])  # upper triangular, positive diag
        res1 = ode_develop(phi_zero, base, [1j, 1 + 2j])
        res2 = ode_develop(phi_zero, base @ tri, [1j, 1 + 2j])
        # dev transforms by the fixed projective action of tri on solutions
        v = res1.dev_points[-1]
        w = res2.dev_points[-1]
        expected = np.array([tri[0, 0] * v[0],
                             tri[0, 1] * v[0] + tri[1, 1] * v[1]])
        assert projective_sine(w, expected) < 1e-9

    def test_stiffness_error_has_location(self):
        from lyaplab.devmaps import StiffnessError

        def nasty(z):
            return 1e160 / (z - (0.5 + 1.5j)) ** 4

        with pytest.raises(StiffnessError):
            ode_develop(nasty, oper_identity_init(1j), [1j, 1 + 3j])


class TestWindingCount:
    def test_matches_closed_form(self):
        om = OdeDevelopingMap(phi_zero, oper_identity_init(1j), 1j)
        w = 0.4 + 1.7j
        u = Covector((1.0, -w))
        c = om.bad_locus_count(u, BallSpec(HPoint(0, 1), 2.0), resolution=1e-6)
        assert c.count == 1
        assert abs(c.points[0] - w) < 1e-4

    def test_empty(self):
        om = OdeDevelopingMap(phi_zero, oper_identity_init(1j), 1j)
        u = Covector((1.0, -(0.2 - 1.0j)))  # zero in the lower half-plane
        c = om.bad_locus_count(u, BallSpec(HPoint(0, 1), 2.0), resolution=1e-5)
        assert c.count == 0

    def test_nested_monotone(self):
        om = OdeDevelopingMap(phi_zero, oper_identity_init(1j), 1j)
        u = Covector((1.0, -(0.4 + 1.7j)))
        counts = [om.bad_locus_count(u, BallSpec(HPoint(0, 1), t),
                                     resolution=1e-5).count
                  for t in (0.2, 0.8, 1.4, 2.5)]
        assert counts == sorted(counts)


class TestContracts:
    def test_phi_contract_spot_check(self, tri334):
        _, gens, _ = tri334
        assert phi_equivariance_residual(phi_zero, gens) == 0.0
        # weight-0 (wrong) object fails the weight-4 contract
        assert phi_equivariance_residual(lambda z: 1.0, gens) > 0.1

    def test_unknown_kind_rejected(self, fuchs334):
        dev = DevelopingMap(evaluator=lambda z: np.array([z, 1.0]),
                            kind="mystery", dim=2)
        with pytest.raises(ValueError):
            bad_locus_count(dev, Covector((1.0, 0.0)), BallSpec(HPoint(0, 1), 1.0))
