"""The invariant suites of `lyaplab selftest`; only that command imports
this module.  The relation suite looks `linrep.unitary_cube_rep` up when it
runs, so a test may put a corrupted representation in its place.
"""

import cmath
import math

import numpy as np

from . import devmaps, errterm, fuchsian, hypgeo, linrep, oseledets


def suites():
    """(name, suite) of each invariant suite; a suite returns (passed, detail)."""
    rng = np.random.default_rng(20240901)
    dom3, gens3, rels3 = fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))
    dom2, gens2, rels2 = fuchsian.build_group(fuchsian.GroupSpec.surface(2))
    rep3 = linrep.uniformizing_rep(gens3, rels3, "fuchsian")
    rep2 = linrep.uniformizing_rep(gens2, rels2, "fuchsian-g2")

    def rand_mobius():
        g = gens3[int(rng.integers(0, 3))]
        h = gens2[int(rng.integers(0, 4))]
        return g @ h

    def rand_point():
        return hypgeo.HPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 3)))

    def suite_isometry():
        worst = 0.0
        for _ in range(200):
            m, z, w = rand_mobius(), rand_point(), rand_point()
            worst = max(worst, abs(hypgeo.hyp_dist(m.apply(z), m.apply(w))
                                   - hypgeo.hyp_dist(z, w)))
        return worst < 1e-10, f"max distance distortion {worst:.2e}"

    def suite_group_law():
        worst = 0.0
        for _ in range(200):
            m1, m2, z = rand_mobius(), rand_mobius(), rand_point()
            lhs = (m1 @ m2).apply(z)
            rhs = m1.apply(m2.apply(z))
            worst = max(worst, abs(lhs.z - rhs.z))
        return worst < 1e-10, f"max composition mismatch {worst:.2e}"

    def suite_flow():
        worst = 0.0
        for _ in range(100):
            ut = hypgeo.UnitTangent(rand_point(), float(rng.uniform(0, 2 * math.pi)))
            s, t = float(rng.uniform(0.1, 2.5)), float(rng.uniform(0.1, 2.5))
            a = hypgeo.geodesic_flow(hypgeo.geodesic_flow(ut, t), s)
            b = hypgeo.geodesic_flow(ut, s + t)
            worst = max(worst, abs(a.base.z - b.base.z),
                        abs(hypgeo.hyp_dist(ut.base, b.base) - (s + t)))
        return worst < 1e-9, f"max flow defect {worst:.2e}"

    def suite_relations():
        reports = [linrep.check_relations(r) for r in (rep3, rep2, linrep.unitary_cube_rep())]
        worst = max(r.max_relative for r in reports)
        return all(r.holds() for r in reports), f"max relative residual {worst:.2e}"

    def suite_pairing():
        # the build's Dirichlet gate: each side on its bisector of c and g.c
        worst = max(fuchsian.dirichlet_defect(dom) for dom in (dom3, dom2))
        return worst < 1e-9, f"max pairing defect {worst:.2e}"

    def suite_coding():
        # recoding from the state at a crossing continues the coding of the
        # whole segment; that state is the flow's, pushed by the crossed
        # pairings g_k ... g_1
        ut = hypgeo.UnitTangent(dom3.interior_point, 0.8346)
        times, gens = fuchsian.trace_geodesic(dom3, ut, 13.0)
        k = int(np.count_nonzero(times <= 6.0)) - 1  # the last crossing by t = 6
        pairing = {p.word[0]: p.mobius for p in dom3.pairings}
        m = hypgeo.Mobius.identity()
        for g in gens[:k + 1].tolist():
            m = pairing[g] @ m
        t0 = float(times[k])
        end = hypgeo.geodesic_flow(ut, t0)
        c, d = m.mat[1]
        start = hypgeo.UnitTangent(m.apply(end.base),
                                   end.angle - 2.0 * cmath.phase(c * end.base.z + d))
        rest, rest_gens = fuchsian.trace_geodesic(dom3, start, 13.0 - t0)
        gens_match = np.array_equal(rest_gens, gens[k + 1:])
        dt = (float(np.abs(t0 + rest - times[k + 1:]).max(initial=0.0)) if gens_match
              else math.inf)
        return gens_match and dt < 1e-7, f"concatenation defect {dt:.2e}"

    def suite_homomorphism():
        worst = 0.0
        for _ in range(60):
            w1 = tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
                       for _ in range(int(rng.integers(0, 10))))
            w2 = tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
                       for _ in range(int(rng.integers(0, 10))))
            lhs = linrep.eval_word(rep3, w1 + w2)
            rhs = linrep.eval_word(rep3, w1) @ linrep.eval_word(rep3, w2)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst < 1e-9, f"max homomorphism defect {worst:.2e}"

    def suite_functorial():
        worst = 0.0
        for _ in range(20):
            a = linrep.eval_word(rep3, tuple(int(rng.integers(1, 4))
                                             for _ in range(3)))
            b = linrep.eval_word(rep3, tuple(-int(rng.integers(1, 4))
                                             for _ in range(3)))
            pair = linrep.Representation(2, "real", [a, b], (), "p", unit_det=True)
            prod = linrep.Representation(2, "real", [a @ b], (), "ab", unit_det=True)
            for functor in (lambda r: linrep.sym_power(r, 2),
                            lambda r: linrep.ext_power(r, 2)):
                fp, fq = functor(pair), functor(prod)
                worst = max(worst, float(np.abs(
                    fq.generators[0] - fp.generators[0] @ fp.generators[1]
                ).max()))
        return worst < 1e-9, f"max functoriality defect {worst:.2e}"

    def suite_qr_invariance():
        configs = [oseledets.RunConfig(T=150.0, samples=8, seed=77, qr_interval=q)
                   for q in (None, 1, 4, 16)]
        coding = oseledets.code_samples(dom3, configs[0])
        ests = [oseledets.estimate_spectrum(dom3, rep3, c, coding) for c in configs]
        spread = max(abs(e.values[0] - ests[0].values[0]) for e in ests)
        bound = 3.0 * max(math.hypot(e.stderr[0], ests[0].stderr[0]) for e in ests)
        return spread <= max(bound, 1e-9), f"spread {spread:.2e} vs 3se {bound:.2e}"

    def suite_seed_determinism():
        runs = [oseledets.spectrum_csv(oseledets.estimate_spectrum(
            dom3, rep3, oseledets.RunConfig(T=100.0, samples=4, seed=123))) for _ in range(2)]
        return runs[0] == runs[1], "CSV outputs differ" if runs[0] != runs[1] else "byte-identical"

    def suite_unitary_zero():
        est = oseledets.estimate_spectrum(
            dom3, linrep.unitary_cube_rep(),
            oseledets.RunConfig(T=150.0, samples=8, seed=5))
        m = float(np.abs(est.values).max())
        return m < 0.01, f"max |lambda| {m:.2e}"

    def suite_wronskian():
        path = [complex(0, 1)]
        state = hypgeo.UnitTangent(hypgeo.HPoint(0, 1), 0.7)
        for _ in range(10):
            state = hypgeo.geodesic_flow(state, 1.0)
            path.append(state.base.z)
        res = devmaps.ode_develop(lambda z: 0.0, devmaps.oper_identity_init(1j), path)
        return res.wronskian_drift < 1e-8, f"drift {res.wronskian_drift:.2e}"

    def suite_counting_monotone():
        u = devmaps.Covector((1.0, 0.25, 1.0))
        grid = np.linspace(0.3, 6.0, 60)
        cf = errterm.count_in_balls((3, u), hypgeo.HPoint(0.0, 2.0), grid)
        mono = bool(np.all(np.diff(cf.counts) >= 0))
        pts, dists = fuchsian.orbit_ball(dom3, dom3.interior_point, 6.0)
        cf2 = errterm.count_in_balls((pts, dists), dom3.interior_point, grid)
        mono2 = bool(np.all(np.diff(cf2.counts) >= 0))
        return mono and mono2, "counts nondecreasing"

    return [
        ("hypgeo-isometry", suite_isometry),
        ("hypgeo-group-law", suite_group_law),
        ("hypgeo-flow", suite_flow),
        ("relation-check", suite_relations),
        ("pairing-consistency", suite_pairing),
        ("coding-concatenation", suite_coding),
        ("linrep-homomorphism", suite_homomorphism),
        ("linrep-functoriality", suite_functorial),
        ("qr-interval-invariance", suite_qr_invariance),
        ("seed-determinism", suite_seed_determinism),
        ("unitary-zero-spectrum", suite_unitary_zero),
        ("ode-wronskian", suite_wronskian),
        ("counting-monotonicity", suite_counting_monotone),
    ]
