import math

import numpy as np
import pytest

from lyaplab.devmaps import (
    Covector,
    bad_locus_points,
    ode_develop,
    oper_identity_init,
    pairing_poly_coeffs,
)
from lyaplab.errterm import count_in_balls
from lyaplab.hypgeo import HPoint, UnitTangent, geodesic_flow
from lyaplab.linrep import sym_power


def phi_zero(z):
    return 0.0


def veronese(n, z):
    """The Veronese curve with n coordinates at z: C(n-1, j) z^(n-1-j), the
    image of [z : 1] under Sym^(n-1) in the monomial basis (e1 > e2)."""
    weights = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    return weights * np.power(complex(z), np.arange(n - 1, -1, -1))


def projective_sine(v, w):
    """sin of the angle between homogeneous vectors (0 iff same point).

    Computed as the relative norm of w minus its projection onto v, which
    keeps full precision near zero (no sqrt(1 - cos^2) cancellation).
    """
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0 or nw == 0:
        return 1.0
    r = w - v * (np.vdot(v, w) / (nv * nv))
    return min(1.0, np.linalg.norm(r) / nw)


def equivariance_residual(n, rep, mobius_list, samples=100, seed=0):
    """max projective distance between s(g z) and rho(g) s(z) over samples,
    s the Veronese curve with n coordinates."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        gi = int(rng.integers(0, len(mobius_list)))
        lhs = veronese(n, mobius_list[gi].apply_complex(z))
        rhs = rep.generators[gi] @ veronese(n, z)
        worst = max(worst, projective_sine(lhs, rhs))
    return worst


def phi_equivariance_residual(phi, mobius_list, samples=60, seed=0):
    """Spot check of the quadratic-differential contract
    phi(g z) g'(z)^2 = phi(z); returns the worst relative residual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        g = mobius_list[int(rng.integers(0, len(mobius_list)))]
        a, b, c, d = g.mat.ravel()
        dg = 1.0 / (c * z + d) ** 2
        lhs = phi(g.apply_complex(z)) * dg * dg
        rhs = phi(z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def counts(n, u, center, radii):
    """count_in_balls counts at the given radii."""
    return count_in_balls((n, u), center, radii).counts.tolist()


class TestCovector:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Covector((0.0, 0.0))


class TestIdentityDev:
    def test_value_at_i(self):
        v = veronese(2, 1j)
        assert abs(v[0] / v[1] - 1j) < 1e-15
        u = Covector((0.3 - 2.0j, 1.5 + 0.25j))
        pairing = np.polyval(pairing_poly_coeffs(2, u), 1j)
        assert abs(pairing - np.dot(u.coords, v)) < 1e-14

    def test_equivariance(self, tri334, fuchs334):
        dom, gens, _ = tri334
        assert equivariance_residual(2, sym_power(fuchs334, 1), gens, samples=1000) < 1e-9

    def test_lower_half_plane_covector_empty(self):
        u = Covector((1.0, -(0.5 - 2.0j)))  # target point in the lower half-plane
        assert counts(2, u, HPoint(0, 1), (0.5, 3.0, 10.0)) == [0, 0, 0]

    def test_upper_point_counted(self):
        w = 0.3 + 1.4j
        u = Covector((1.0, -w))
        assert counts(2, u, HPoint(0, 1), (3.0,)) == [1]
        points = bad_locus_points(2, u)
        assert abs(points[0] - w) < 1e-12


class TestVeroneseDev:
    def test_n2_reduces_to_identity(self):
        for z in (1j, 0.5 + 2j, -1 + 0.3j):
            assert projective_sine(veronese(2, z), np.array([z, 1.0])) < 1e-15
        # the pairing with (z, 1) is u0 z + u1
        u = Covector((2.0, -0.5 + 1.0j))
        assert pairing_poly_coeffs(2, u).tolist() == list(u.coords)

    def test_equivariance_n3(self, tri334, fuchs334):
        dom, gens, _ = tri334
        rep = sym_power(fuchs334, 2)
        assert rep.n == 3
        assert equivariance_residual(3, rep, gens, samples=1000) < 1e-7

    def test_polynomial_pairing(self):
        u = Covector((1.0, 0.0, 1.0))
        coeffs = pairing_poly_coeffs(3, u)
        assert np.allclose(coeffs, [1.0, 0.0, 1.0])  # z^2 + 1
        # the library's pairing is <u, veronese(n, z)>
        for n in (3, 4, 6):
            u = Covector(tuple(1.0 + 0.5j * k for k in range(n)))
            for z in (1j, 0.5 + 2j, -1 + 0.3j):
                assert abs(np.polyval(pairing_poly_coeffs(n, u), z)
                           - np.dot(u.coords, veronese(n, z))) < 1e-12

    def test_root_enters_at_log2(self):
        u = Covector((1.0, 0.0, 1.0))  # zero of z^2+1 in H: z = i
        center = HPoint(0.0, 2.0)      # d(2i, i) = log 2
        radii = (0.5, math.log(2) - 1e-3, math.log(2) + 1e-3, 4.0)
        assert counts(3, u, center, radii) == [0, 0, 1, 1]

    def test_boundary_flag(self):
        u = Covector((1.0, 0.0, 1.0))
        cf = count_in_balls((3, u), HPoint(0.0, 2.0), [math.log(2.0)])
        assert cf.uncertain.tolist() == [1]

    def test_counts_nested_monotone(self):
        u = Covector((1.0, 0.5, -0.3, 1.0))
        c = counts(4, u, HPoint(0, 1), (0.5, 1.5, 3.0, 6.0, 12.0))
        assert c == sorted(c)

    def test_covector_scale_invariance(self):
        a = counts(3, Covector((1.0, 0.0, 1.0)), HPoint(0.0, 2.0), (2.0,))
        b = counts(3, Covector((3.7j, 0.0, 3.7j)), HPoint(0.0, 2.0), (2.0,))
        assert a == b


class TestRepeatedZeros:
    """np.roots splits an m-fold zero into m roots about eps^(1/m) apart;
    bad_locus_points reports it once, at the group's centroid."""

    @pytest.mark.parametrize("coords,zeros", [
        ((1, 1, 1), []),                       # (z+1)^2
        ((1,) * 5, []),                        # (z+1)^4
        ((1,) * 12, []),                       # (z+1)^11
        ((1, -1j, -1, 1j), [1j]),              # (z-i)^3
        ((1, -0.0025 - 1j, -1 + 0.005j), [1j, 0.005 + 1j]),  # two zeros 0.005 apart
        ((1, 0, 1), [1j]),
        ((1e-9, 1, 1), []),                    # zeros -0.5 and -2e9: 9.3 decades, inside the bound
    ], ids=["double", "fourfold", "elevenfold", "triple-at-i", "close-pair", "simple", "near"])
    def test_each_zero_once(self, coords, zeros):
        points = sorted(bad_locus_points(len(coords), Covector(coords)), key=lambda z: z.real)
        assert len(points) == len(zeros)
        assert all(abs(p - z) < 1e-12 for p, z in zip(points, zeros))

    @pytest.mark.parametrize("coords", [
        (1e-10, 1, 1),                   # 10.3 decades, just past the bound
        (1e-300, 1, 1),                  # zeros -0.5 and -2e300
        (1e-320, 1, 1),                  # a subnormal leading coefficient
        (1e-158, 1e-6j, 1e-82j, 1e42),   # np.roots misses the zero 4.08e23 (1 + i)
    ], ids=["past-bound", "far", "subnormal-leading", "wide"])
    def test_wide_pairing_refused(self, coords):
        # coefficients C(n-1, j) u_j spanning more than ROOTS_DECADES are
        # refused before np.roots, whose zeros are then decided by rounding
        with pytest.raises(ValueError, match=r"span \d+ decades, more than the 10 "):
            bad_locus_points(len(coords), Covector(coords))

    @pytest.mark.parametrize("coords,scale", [
        ((1.0,) * 5, 2.0**1023),         # (z+1)^4, whose binomial products overflow
        ((1.0, 0.0, 1.0), 2.0**-1070),   # z^2 + 1 with a subnormal leading coefficient
    ], ids=["overflow", "subnormal"])
    def test_extreme_covector_scaled_exactly(self, coords, scale):
        # a power-of-two multiple has the same zeros bit for bit; a
        # RuntimeWarning is an error under pytest
        extreme = Covector(tuple(scale * c for c in coords))
        assert bad_locus_points(len(coords), extreme) == bad_locus_points(len(coords), Covector(coords))


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
        res = ode_develop(phi_zero, oper_identity_init(loop[0]), loop + [loop[0]])
        m = res.frames[-1] @ np.linalg.inv(res.frames[0])
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


class TestContracts:
    def test_phi_contract_spot_check(self, tri334):
        _, gens, _ = tri334
        assert phi_equivariance_residual(phi_zero, gens) == 0.0
        # weight-0 (wrong) object fails the weight-4 contract
        assert phi_equivariance_residual(lambda z: 1.0, gens) > 0.1
