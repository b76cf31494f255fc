"""Batch experiment front end: `lyaplab spectrum|sweep|err|orbit-count|rep|selftest`.

Exit codes: 0 success, 1 selftest failure, 2 validation refusal, 3 I/O
error.  All CSV output is a deterministic function of the command line
(seeds included); SVG plots are pure functions of the CSV content.
"""

import argparse
import cmath
import functools
import math
import sys

import numpy as np

from . import devmaps, errterm, fuchsian, hypgeo, linrep, oseledets

# keys a --config file may set, spelled as the options
CONFIG_KEYS = (
    "group", "rep", "time", "samples", "seed", "qr-interval", "normalization",
    "random-base", "axis", "grid", "dev", "covector", "center", "tmax", "grid-nodes",
)


class Refusal(Exception):
    """Validation refusal (exit code 2)."""


def _load_config(path):
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    pairs = (line.partition("=") for line in lines if line and not line.startswith("#"))
    return {key.strip(): val.strip() for key, _, val in pairs}


def _config_defaults(ns, config):
    """The option defaults a config file sets; a subcommand reads only the
    keys of its own options."""
    unknown = [key for key in config if key not in CONFIG_KEYS]
    if unknown:
        raise Refusal(f"unknown config key {unknown[0]!r} in {ns.config}")
    return {key.replace("-", "_"): val for key, val in config.items()}


def resolve_rep(source, group_bundle):
    """builtin:fuchsian | builtin:trivial | builtin:unitary-cube | file path.

    Refuses a representation with another generator count than the group.
    """
    dom, gens, rels = group_bundle
    if source == "builtin:fuchsian":
        return linrep.uniformizing_rep(gens, rels, "fuchsian")
    if source == "builtin:trivial":
        return linrep.trivial_rep(2, len(gens), rels, "trivial")
    cube = source == "builtin:unitary-cube"
    rep = linrep.unitary_cube_rep() if cube else linrep.load_rep(source)
    if rep.num_generators != len(gens):
        raise Refusal(f"{source} has {rep.num_generators} generators; the group has {len(gens)}")
    if cube and rels and tuple(tuple(w) for w in rels) != rep.relations:
        rep = linrep.Representation(rep.n, rep.field, rep.generators, rels, rep.label,
                                    rep.projective_flag, rep.unit_det)
    return rep


def apply_transforms(rep, chain, group_spec):
    """Transform chain, left to right: sym:k | ext:k | bend:re,im."""
    for item in chain:
        name, _, arg = item.partition(":")
        if name == "sym":
            rep = linrep.sym_power(rep, int(arg))
        elif name == "ext":
            rep = linrep.ext_power(rep, int(arg))
        elif name == "bend":
            re_s, im_s = (float(v) for v in arg.split(","))
            split = _bend_split_for(rep, group_spec)
            rep = fuchsian.bend_representation(rep, split, complex(re_s, im_s))
        else:
            raise Refusal(f"unknown transform {item!r}")
    return rep


def _resolve(ns):
    """(group spec, domain, representation) of --group, --rep, --transform."""
    spec = fuchsian.parse_group_spec(ns.group)
    bundle = fuchsian.build_group(spec)
    rep = apply_transforms(resolve_rep(ns.rep, bundle), ns.transform, spec)
    return spec, bundle[0], rep


def _bend_split_for(rep, group_spec):
    if rep.n != 2:
        raise Refusal("bend transform needs a rank-2 representation")
    if group_spec.kind != "surface":
        raise Refusal("bend transform needs a surface group (no canonical amalgam "
                      "for triangle groups); supply surface:g")
    return fuchsian.BendingSplit.surface_standard(group_spec.params[0])


def _gate_relations(rep):
    report = linrep.check_relations(rep)
    if not report.holds():
        raise Refusal(f"relation check failed: residual {report.max_residual:.3e} "
                      f"(relative {report.max_relative:.3e})")
    return report


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# SVG: minimal deterministic polyline plots


def svg_line_plot(series, title, xlabel, ylabel):
    """series: list of (xs, ys, color, marker_flag)."""
    width, height, pad = 640, 420, 56
    xs_all = [x for xs, _, _, _ in series for x in xs]
    ys_all = [y for _, ys, _, _ in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    y0 -= 0.05 * (y1 - y0)
    y1 += 0.05 * (y1 - y0)

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width/2:.1f}" y="{height-16}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height/2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height/2:.1f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height-pad+16}" text-anchor="middle" '
                     f'font-size="10">{xv:.4g}</text>')
        parts.append(f'<text x="{pad-6}" y="{sy(yv)+3:.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.4g}</text>')
    for xs, ys, color, marker in series:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        if marker:
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                             f'fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _run_config(ns):
    return oseledets.RunConfig(
        T=ns.time, samples=ns.samples, seed=ns.seed, qr_interval=ns.qr_interval,
        normalization=ns.normalization, random_base=bool(ns.random_base),
    )


def cmd_spectrum(ns):
    run = _run_config(ns)
    _, dom, rep = _resolve(ns)
    _gate_relations(rep)
    _, unresolved = oseledets.qr_interval(rep)
    if unresolved:  # refused before any tracing
        raise Refusal(unresolved)
    est = oseledets.estimate_spectrum(dom, rep, run)
    _write_text(ns.out, oseledets.spectrum_csv(est))
    if ns.svg:
        idx = list(range(1, len(est.values) + 1))
        svg = svg_line_plot(
            [(idx, list(est.values), "steelblue", True)],
            f"Lyapunov spectrum: {rep.label}", "exponent index", "lambda",
        )
        _write_text(ns.svg, svg)
    return 0


def cmd_sweep(ns):
    """Bend the whole grid in one call, then run each scalar field's points
    as one fused cocycle over geodesics coded once; refused and unresolved
    points become failed rows."""
    run = _run_config(ns)
    if ns.axis not in ("real", "imag"):  # a config value skips argparse's choices
        raise Refusal("sweep axis must be real|imag")
    grid = _parse_grid(ns.grid)
    if not grid or not all(math.isfinite(v) for v in grid):
        raise Refusal("sweep grid must be nonempty and finite")
    spec, dom, rep = _resolve(ns)
    _gate_relations(rep)
    if rep.n != 2:
        raise Refusal("sweep needs a rank-2 base representation")
    split = _bend_split_for(rep, spec)
    coding = oseledets.code_samples(dom, run)  # shared by all points
    values = [complex(0.0, v) if ns.axis == "imag" else complex(v, 0.0) for v in grid]
    rows, fields = [], {}  # fields: is_complex -> [(grid position, bent rep)]
    for k, (v, bent) in enumerate(zip(grid, fuchsian.bend_representations(rep, split, values))):
        if isinstance(bent, Exception):
            rows.append((v, math.nan, math.nan, f"failed:{type(bent).__name__}"))
        else:
            fields.setdefault(bent.is_complex, []).append((k, bent))
            rows.append(None)
    for group in fields.values():  # a real rep is never promoted to complex
        ests = oseledets.estimate_spectra(dom, [r for _, r in group], run, coding)
        for (k, _), est in zip(group, ests):
            v = grid[k]
            if isinstance(est, oseledets.InsufficientDataError):
                rows[k] = (v, math.nan, math.nan, f"failed:{type(est).__name__}")
            elif est.unresolved:
                rows[k] = (v, math.nan, math.nan, "failed:unresolved")
            else:
                rows[k] = (v, est.values[0], est.stderr[0], "ok")
    lines = ["parameter,lambda1,stderr,status"]
    for v, lam, se, status in rows:
        lines.append(f"{v:.12g},{lam:.12g},{se:.12g},{status}")
    _write_text(ns.out, "\n".join(lines) + "\n")
    if ns.svg:
        ok = [(v, lam) for v, lam, _, st in rows if st == "ok"]
        svg = svg_line_plot(
            [([v for v, _ in ok], [lam for _, lam in ok], "firebrick", True)],
            f"bending sweep ({ns.axis} axis): {rep.label}",
            f"bend parameter ({ns.axis} part)", "lambda1",
        )
        _write_text(ns.svg, svg)
    return 0


def _parse_grid(text):
    if ":" in text:
        a, b, n = text.split(":")
        return list(np.linspace(float(a), float(b), int(n)))
    return [float(v) for v in text.split(",")]


def _parse_covector(text):
    vals = []
    for tok in text.replace(",", " ").split():
        vals.append(complex(tok.replace("i", "j")) if ("i" in tok) else float(tok))
    return devmaps.Covector(tuple(vals))


def _parse_center(text):
    cx, cy = (float(v) for v in text.split(","))
    return hypgeo.HPoint(cx, cy)


def cmd_err(ns):
    kind = "veronese:2" if ns.dev == "identity" else ns.dev
    if not kind.startswith("veronese:"):
        raise Refusal(f"dev kind {ns.dev!r} unsupported (use identity | veronese:n)")
    dev = devmaps.veronese_dev(int(kind.split(":")[1]))
    if ns.covector is None:
        raise Refusal("err needs --covector")
    u = _parse_covector(ns.covector)
    if len(u) != dev.dim:
        raise Refusal(f"covector length {len(u)} != dev dimension {dev.dim}")
    center = _parse_center(ns.center)
    cf = errterm.count_in_balls((dev, u), center, _err_grid(ns.tmax, ns.grid_nodes))
    return _write_err_outputs(ns, cf)


def _err_grid(t_max, nodes):
    """Denser nodes at small radii where the integrand varies fastest."""
    n1 = max(50, nodes // 2)
    head = np.linspace(0.25, min(12.0, t_max), n1)
    if t_max <= 12.0:
        return head
    tail = np.linspace(min(12.0, t_max), t_max, max(50, nodes - n1) + 1)[1:]
    return np.concatenate([head, tail])


def _write_err_outputs(ns, cf):
    """CSV (and SVG when asked) of an err or orbit-count run."""
    est = errterm.err_estimate(cf, ns.tmax)
    _write_text(ns.out, errterm.count_csv(cf, est))
    if ns.svg:
        _, g, running = errterm.running_err(cf)
        svg = svg_line_plot(
            [(list(cf.t), list(running), "steelblue", False),
             (list(cf.t), list(math.pi * g), "gray", False)],
            "running error-term estimate (blue) and instantaneous ratio (gray)",
            "t", "estimate",
        )
        _write_text(ns.svg, svg)
    return 0


def cmd_orbit_count(ns):
    dom, _, _ = fuchsian.build_group(fuchsian.parse_group_spec(ns.group))
    center = dom.interior_point if ns.center is None else _parse_center(ns.center)
    pts, dists = fuchsian.orbit_ball(dom, center, ns.tmax)
    cf = errterm.count_in_balls((pts, dists), center,
                                np.linspace(0.3, ns.tmax, ns.grid_nodes))
    return _write_err_outputs(ns, cf)


def cmd_rep(ns):
    _, _, rep = _resolve(ns)
    report = _gate_relations(rep) if ns.check else linrep.check_relations(rep)
    _write_text(ns.out, linrep.format_rep_text(rep))
    sys.stderr.write(f"relations: max residual {report.max_residual:.3e} "
                     f"(relative {report.max_relative:.3e}); classify: {linrep.classify(rep)}\n")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_suites():
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
        v = devmaps.veronese_dev(3)
        u = devmaps.Covector((1.0, 0.25, 1.0))
        grid = np.linspace(0.3, 6.0, 60)
        cf = errterm.count_in_balls((v, u), hypgeo.HPoint(0.0, 2.0), grid)
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


def cmd_selftest(_ns):
    failures = []
    for name, fn in _selftest_suites():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"crashed: {exc!r}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)
    if failures:
        print("failing suites: " + ", ".join(failures))
        return 1
    print("all selftest suites passed")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="lyaplab",
        description=(
            "Lyapunov spectra of flat bundles over compact hyperbolic "
            "surfaces/orbifolds, by parallel transport along the geodesic "
            "flow.  Spectra are reported in the curvature -4 normalization "
            "by default (the uniformizing rank-2 representation has "
            "lambda1 = 1); --normalization minus1 divides all exponents "
            "by 2."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, fn, text, group="triangle:3,3,4", svg=True):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(fn=fn, subparser=sp)
        sp.add_argument("--config", help="key=value file; flags override it")
        if group:
            sp.add_argument("--group", default=group, help="triangle:p,q,r or surface:g")
        sp.add_argument("--out", help="output path (default stdout)")
        if svg:
            sp.add_argument("--svg", help="also write an SVG plot here")
        return sp

    def add_rep(sp):
        sp.add_argument("--rep", default="builtin:fuchsian",
                        help="builtin:fuchsian|builtin:trivial|builtin:unitary-cube|FILE")
        sp.add_argument("--transform", action="append", default=[],
                        help="sym:k | ext:k | bend:re,im (repeatable)")

    def add_run(sp):
        add_rep(sp)
        sp.add_argument("--time", type=float, default=2000.0, help="flow time per sample")
        sp.add_argument("--samples", type=int, default=64)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--qr-interval", type=int, default=None,
                        help="cap on the QR interval (default: set by conditioning)")
        sp.add_argument("--normalization", choices=["minus4", "minus1"], default="minus4")
        sp.add_argument("--random-base", type=int, default=0,
                        help="1: sample base points uniformly in the domain")

    def add_count(sp, tmax, nodes, center, center_help):
        sp.add_argument("--center", default=center, help=center_help)
        sp.add_argument("--tmax", type=float, default=tmax)
        sp.add_argument("--grid-nodes", type=int, default=nodes)

    add_run(add_parser("spectrum", cmd_spectrum, "estimate a Lyapunov spectrum"))

    sp = add_parser("sweep", cmd_sweep, "bending sweep of lambda1", group="surface:2")
    add_run(sp)
    sp.add_argument("--axis", choices=["real", "imag"], default="imag")
    sp.add_argument("--grid", default="0:2:11", help="start:stop:npoints or comma list")

    sp = add_parser("err", cmd_err, "error-term estimate for a developing map", group=None)
    sp.add_argument("--dev", default="identity", help="identity | veronese:n")
    sp.add_argument("--covector", help="homogeneous coords, e.g. '1 0 1'")
    add_count(sp, 20.0, 400, "0,2", "x,y of the ball center")

    sp = add_parser("orbit-count", cmd_orbit_count, "orbit-counting calibration mode")
    add_count(sp, 12.0, 240, None, "x,y (default: domain interior point)")

    sp = add_parser("rep", cmd_rep, "read/transform/write representation files", svg=False)
    add_rep(sp)
    sp.add_argument("--check", action="store_true",
                    help="refuse (exit 2) when relations fail")

    sp = sub.add_parser("selftest", help="run the invariant suites")
    sp.set_defaults(fn=cmd_selftest)
    return p


@functools.cache
def _parser():
    """The parser of every call, built once per process; parsing leaves it
    unchanged, and a --config call sets its defaults on a parser of its own."""
    return build_parser()


def main(argv=None):
    ns = _parser().parse_args(argv)
    config = {}
    if getattr(ns, "config", None):
        try:
            config = _load_config(ns.config)
        except OSError as exc:
            sys.stderr.write(f"lyaplab: cannot read config: {exc}\n")
            return 3
    try:
        if config:
            parser = build_parser()  # the config's defaults end with this call
            ns = parser.parse_args(argv)
            # argparse passes string defaults through each option's type
            ns.subparser.set_defaults(**_config_defaults(ns, config))
            ns = parser.parse_args(argv)
        return ns.fn(ns)
    except (Refusal, fuchsian.ResourceError, hypgeo.NumericDegeneracyError,
            oseledets.InsufficientDataError) as exc:
        sys.stderr.write(f"lyaplab: refused: {exc}\n")
        return 2
    except (linrep.RepresentationError, ValueError) as exc:
        sys.stderr.write(f"lyaplab: invalid input: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"lyaplab: I/O error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
