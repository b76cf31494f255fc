"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; expensive spectra are shared across criteria through module-scoped
fixtures.
"""

import math
import time

import numpy as np
import pytest

from lyaplab import cli
from lyaplab.devmaps import Covector
from lyaplab.errterm import count_in_balls, err_estimate, sum_rule_check
from lyaplab.fuchsian import (
    BendingSplit,
    GroupSpec,
    bend_representation,
    build_group,
    orbit_ball,
)
from lyaplab.hypgeo import HPoint
from lyaplab.linrep import ext_power, sym_power, trivial_rep, unitary_cube_rep, uniformizing_rep
from lyaplab.oseledets import RunConfig, code_samples, estimate_spectrum

COVOL_334 = math.pi / 6


def verdict(cid, desc, ok, detail=""):
    print(f"\n[acceptance {cid}] {desc}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} failed: {desc} ({detail})"


@pytest.fixture(scope="module")
def bundle334():
    return build_group(GroupSpec.triangle(3, 3, 4))


@pytest.fixture(scope="module")
def bundle_g2():
    return build_group(GroupSpec.surface(2))


@pytest.fixture(scope="module")
def rep334(bundle334):
    _, gens, rels = bundle334
    return uniformizing_rep(gens, rels, "fuchsian")


@pytest.fixture(scope="module")
def bench1(bundle334, rep334):
    dom, _, _ = bundle334
    t0 = time.perf_counter()
    est = estimate_spectrum(dom, rep334, RunConfig(T=2000.0, samples=64, seed=42))
    return est, time.perf_counter() - t0


SYM_CONFIG = RunConfig(T=2000.0, samples=64, seed=7)


@pytest.fixture(scope="module")
def sym_coding(bundle334):
    """The seed-7 geodesics that both symmetric powers run along."""
    return code_samples(bundle334[0], SYM_CONFIG)


@pytest.fixture(scope="module")
def sym2_spec(bundle334, rep334, sym_coding):
    return estimate_spectrum(bundle334[0], sym_power(rep334, 2), SYM_CONFIG, sym_coding)


@pytest.fixture(scope="module")
def sym3_spec(bundle334, rep334, sym_coding):
    return estimate_spectrum(bundle334[0], sym_power(rep334, 3), SYM_CONFIG, sym_coding)


@pytest.fixture(scope="module")
def unitary_spec(bundle334):
    dom, _, _ = bundle334
    return estimate_spectrum(dom, unitary_cube_rep(),
                             RunConfig(T=500.0, samples=64, seed=3))


def test_c1_fuchsian_benchmark(bench1):
    est, elapsed = bench1
    dev = abs(est.values[0] - 1.0)
    verdict(
        "C1",
        "uniformizing rank-2 rep of triangle(3,3,4): lambda1 = 1.00 +- 0.02 "
        "at T=2000, 64 samples, minus4, within 2 minutes",
        dev <= 0.02 and elapsed <= 120.0,
        f"lambda1={est.values[0]:.5f} stderr={est.stderr[0]:.1e} "
        f"runtime={elapsed:.0f}s",
    )


def test_c2_symmetric_power_spectra(sym2_spec, sym3_spec):
    t2 = np.array([2.0, 0.0, -2.0])
    t3 = np.array([3.0, 1.0, -1.0, -3.0])
    d2 = np.abs(sym2_spec.values - t2).max()
    d3 = np.abs(sym3_spec.values - t3).max()
    verdict(
        "C2",
        "Sym^2 spectrum (2,0,-2) within 0.04; Sym^3 spectrum (3,1,-1,-3) "
        "within 0.06",
        d2 <= 0.04 and d3 <= 0.06,
        f"max dev sym2={d2:.4f} sym3={d3:.4f}",
    )


def test_c3_wedge_crosscheck(bundle334, rep334, sym2_spec):
    dom, _, _ = bundle334
    wedge = estimate_spectrum(dom, ext_power(sym_power(rep334, 2), 2),
                              RunConfig(T=1500.0, samples=48, seed=11))
    partial = sym2_spec.sample_values[:, :2].sum(axis=1)
    psum = partial.mean()
    pse = partial.std(ddof=1) / math.sqrt(len(partial))
    comb = math.hypot(pse, wedge.stderr[0])
    disc = abs(wedge.values[0] - psum)
    verdict(
        "C3",
        "lambda1(wedge^2 Sym^2) matches lambda1+lambda2 of Sym^2 within "
        "3 combined stderr",
        disc <= 3 * comb,
        f"wedge={wedge.values[0]:.5f} partial={psum:.5f} "
        f"disc={disc:.2e} 3se={3*comb:.2e}",
    )


def test_c4_trivial_spectrum_characterization(bundle334, unitary_spec, bench1):
    dom, gens, rels = bundle334
    triv = estimate_spectrum(dom, trivial_rep(2, len(gens), rels),
                             RunConfig(T=500.0, samples=8, seed=3))
    m_uni = float(np.abs(unitary_spec.values).max())
    m_tri = float(np.abs(triv.values).max())
    lam1 = bench1[0].values[0]
    verdict(
        "C4",
        "finite-image unitary and trivial reps: max|lambda| < 0.01 at T=500; "
        "Fuchsian rep: lambda1 > 0.9",
        m_uni < 0.01 and m_tri < 0.01 and lam1 > 0.9,
        f"unitary={m_uni:.1e} trivial={m_tri:.1e} fuchsian={lam1:.3f}",
    )


def test_c5_symmetry_and_zero_sum(bench1, sym2_spec, sym3_spec, unitary_spec):
    worst_sym = 0.0
    worst_sum = 0.0
    for est in (bench1[0], sym2_spec, sym3_spec, unitary_spec):
        comb = np.hypot(est.stderr, est.stderr[::-1]) + 1e-12
        worst_sym = max(worst_sym,
                        float((np.abs(est.values + est.values[::-1]) / (3 * comb)).max()))
        se_sum = math.sqrt(float(np.sum(est.stderr**2))) + 1e-12
        worst_sum = max(worst_sum, abs(float(est.values.sum())) / (3 * se_sum))
    verdict(
        "C5",
        "lambda_i + lambda_(n+1-i) and sum of lambda_i within 3 combined "
        "stderr of 0 on every benchmark rep",
        worst_sym <= 1.0 and worst_sum <= 1.0,
        f"worst symmetry={worst_sym:.2f} worst zero-sum={worst_sum:.2f} "
        "(in 3-stderr units)",
    )


def test_c6_error_term_calibration(bundle334):
    dom, _, _ = bundle334
    t0 = time.perf_counter()
    pts, dists = orbit_ball(dom, dom.interior_point, 12.0)
    grid = np.linspace(0.3, 12.0, 240)
    cf = count_in_balls((pts, dists), dom.interior_point, grid)
    est = err_estimate(cf, 12.0)
    elapsed = time.perf_counter() - t0
    target = math.pi / COVOL_334
    rel = abs(est.value - target) / target

    u = Covector((1.0, 0.0, 1.0))
    head = np.linspace(0.25, 12.0, 200)
    tail = np.linspace(12.0, 2000.0, 300)[1:]
    cf_fin = count_in_balls((3, u), HPoint(0.0, 2.0), np.concatenate([head, tail]))
    fin = err_estimate(cf_fin, 2000.0)
    verdict(
        "C6",
        "orbit-count mode on triangle(3,3,4) returns pi/covol = 6.0 within "
        "10% at T_max=12 in under 5 minutes; finite bad loci return < 1e-3",
        rel <= 0.10 and elapsed <= 300.0 and fin.value < 1e-3,
        f"orbit err={est.value:.4f} ({100*rel:.1f}% off, {elapsed:.0f}s, "
        f"{len(pts)} points); finite err={fin.value:.2e}",
    )


def test_c7_sum_rule_at_verifiable_points(bundle334, bench1, sym2_spec):
    dom, _, _ = bundle334
    grid = np.linspace(0.3, 20.0, 120)
    # Fuchsian point: the identity chart misses every lower-half-plane
    # target, so the chosen covector has empty bad locus and err is exactly 0
    u1 = Covector((1.0, -(0.4 - 1.3j)))
    err1 = err_estimate(count_in_balls((2, u1), dom.interior_point, grid), 20.0)
    r1 = sum_rule_check(bench1[0], 1, err1, k=1)
    # Sym^2 point: the degree-2 Veronese curve never meets the hyperplane of
    # its last coordinate over H, another exactly-empty bad locus
    u2 = Covector((0.0, 0.0, 1.0))
    err2 = err_estimate(count_in_balls((3, u2), dom.interior_point, grid), 20.0)
    r2 = sum_rule_check(sym2_spec, 2, err2, k=2)
    verdict(
        "C7",
        "compact sum rule: lambda1 = 1 + 0 at the Fuchsian point and "
        "lambda1+lambda2 = 2 + 0 at the Sym^2 point, within 3 stderr",
        err1.value == 0.0 and err2.value == 0.0
        and r1.sigma_units < 3.0 and r2.sigma_units < 3.0,
        f"fuchsian: {r1.lhs:.5f} vs {r1.rhs:.5f} ({r1.sigma_units:.2f} se); "
        f"sym2: {r2.lhs:.5f} vs {r2.rhs:.5f} ({r2.sigma_units:.2f} se)",
    )


@pytest.fixture(scope="module")
def g2_rep(bundle_g2):
    _, gens, rels = bundle_g2
    return uniformizing_rep(gens, rels, "fuchsian-g2")


def test_c8a_oper_bound_along_imaginary_bending(bundle_g2, g2_rep):
    """KNOWN RED: quasi-Fuchsian bending leaves the oper locus of the base
    surface, and the exponent drops strictly below 1 (the equivariant
    pleated plane is 1-Lipschitz with the intrinsic metric unchanged, so
    matrix-norm drift along the original geodesic flow contracts).  The
    criterion is asserted as stated; the failure is genuine, reproducible,
    and analyzed in the project notes outside the package.
    """
    dom, _, _ = bundle_g2
    split = BendingSplit.genus2_standard()
    cfg = RunConfig(T=500.0, samples=16, seed=9)
    rows = []
    ok = True
    for tau in np.linspace(0.0, 2.0, 11):
        rep = g2_rep if tau == 0 else bend_representation(g2_rep, split, 1j * tau)
        est = estimate_spectrum(dom, rep, cfg)
        lam, se = est.values[0], est.stderr[0]
        rows.append(f"tau={tau:.1f}: {lam:.4f}+-{se:.4f}")
        if lam < 1.0 - 3.0 * se:
            ok = False
    verdict(
        "C8a",
        "lambda1 >= 1 - 3 stderr at all 11 points of the imaginary bending "
        "sweep s in i*[0,2] from the genus-2 Fuchsian rep",
        ok,
        "; ".join(rows),
    )


def test_c8b_unbounded_growth_along_real_twisting(bundle_g2, g2_rep):
    dom, _, _ = bundle_g2
    split = BendingSplit.genus2_standard()
    cfg = RunConfig(T=500.0, samples=16, seed=9)
    vals = []
    for s in (4.0, 8.0, 16.0):
        est = estimate_spectrum(dom, bend_representation(g2_rep, split, s), cfg)
        vals.append((s, est.values[0], est.stderr[0], est.unresolved))
    increasing = vals[0][1] < vals[1][1] < vals[2][1]
    # a value the library marks unresolved (no QR interval certifies it) says so
    verdict(
        "C8b",
        "lambda1 strictly increases along real twists |s| in {4, 8, 16}",
        increasing,
        " -> ".join(f"{lam:.3f}" + (" (unresolved)" if why else "") for _, lam, _, why in vals),
    )


def test_c9_property_suite(capsys):
    t0 = time.perf_counter()
    code = cli.main(["selftest"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        verdict(
            "C9",
            "cmd_selftest: isometry, homomorphism, relation residuals, QR "
            "invariance, seed determinism, Wronskian, counting monotonicity "
            "all pass within 5 minutes",
            code == 0 and elapsed <= 300.0,
            f"exit={code} runtime={elapsed:.0f}s "
            f"suites={out.count('ok  ')} ok / {out.count('FAIL')} fail",
        )
