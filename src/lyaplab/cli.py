"""Batch experiment front end: `lyaplab spectrum|sweep|err|orbit-count|rep|selftest`.

Exit codes: 0 success, 1 selftest failure, 2 validation refusal, 3 I/O
error.  All CSV output is a deterministic function of the command line
(seeds included); SVG plots are pure functions of the CSV content.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import devmaps, errterm, fuchsian, hypgeo, linrep, oseledets

RELATION_GATE = 1e-6


class Refusal(Exception):
    """Validation refusal (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One spectrum run: group, representation source, transform chain
    (applied left to right), run parameters, output paths."""

    group: str
    rep_source: str
    transforms: tuple
    run: oseledets.RunConfig
    out: str = None
    svg: str = None


@dataclass(frozen=True)
class SweepSpec:
    """A bending sweep: which part of the bend parameter varies, over which
    grid, on top of a base experiment configuration."""

    axis: str  # 'real' | 'imag'
    grid: tuple
    base: ExperimentConfig

    def __post_init__(self):
        if self.axis not in ("real", "imag"):
            raise Refusal("sweep axis must be real|imag")
        if not self.grid or not all(math.isfinite(v) for v in self.grid):
            raise Refusal("sweep grid must be nonempty and finite")


def _load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _pick(ns_value, config, key, default, cast=str):
    if ns_value is not None:
        return ns_value
    if key in config:
        return cast(config[key])
    return default


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
        raise Refusal(
            f"{source} has {rep.num_generators} generators; the group has {len(gens)}"
        )
    if cube and rels and tuple(tuple(w) for w in rels) != rep.relations:
        rep = linrep.Representation(
            rep.n, rep.field, rep.generators, rels, rep.label,
            rep.projective_flag, rep.unit_det,
        )
    return rep


def apply_transforms(rep, chain, group_spec=None):
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


def _bend_split_for(rep, group_spec):
    if rep.n != 2:
        raise Refusal("bend transform needs a rank-2 representation")
    if group_spec is None or group_spec.kind != "surface":
        raise Refusal(
            "bend transform needs a surface group (no canonical amalgam "
            "for triangle groups); supply surface:g"
        )
    return fuchsian.BendingSplit.surface_standard(group_spec.params[0])


def _gate_relations(rep):
    report = linrep.check_relations(rep)
    if not report.holds(RELATION_GATE):
        raise Refusal(
            f"relation check failed: residual {report.max_residual:.3e} "
            f"(relative {report.max_relative:.3e})"
        )
    return report


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# SVG: minimal deterministic polyline plots


def svg_line_plot(series, title, xlabel, ylabel, width=640, height=420):
    """series: list of (xs, ys, color, marker_flag)."""
    pad = 56
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
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height-pad+16}" text-anchor="middle" '
            f'font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{pad-6}" y="{sy(yv)+3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.4g}</text>'
        )
    for xs, ys, color, marker in series:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        if marker:
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                    f'fill="{color}"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _common_run_config(ns, config):
    return oseledets.RunConfig(
        T=_pick(ns.time, config, "time", 2000.0, float),
        samples=_pick(ns.samples, config, "samples", 64, int),
        seed=_pick(ns.seed, config, "seed", 1, int),
        qr_interval=_pick(ns.qr_interval, config, "qr-interval", 8, int),
        normalization=_pick(ns.normalization, config, "normalization", "minus4"),
        random_base=bool(_pick(ns.random_base, config, "random-base", 0, int)),
    )


def run_spectrum_experiment(cfg):
    """Resolve, validate, and run one ExperimentConfig."""
    spec = fuchsian.parse_group_spec(cfg.group)
    bundle = fuchsian.build_group(spec)
    rep = resolve_rep(cfg.rep_source, bundle)
    rep = apply_transforms(rep, cfg.transforms, spec)
    _gate_relations(rep)
    est = oseledets.estimate_spectrum(bundle[0], rep, cfg.run)
    return est, rep


def run_sweep(sweep):
    """One cocycle run per grid point over geodesics coded once; failed
    points become failed rows."""
    spec = fuchsian.parse_group_spec(sweep.base.group)
    bundle = fuchsian.build_group(spec)
    rep = resolve_rep(sweep.base.rep_source, bundle)
    rep = apply_transforms(rep, sweep.base.transforms, spec)
    _gate_relations(rep)
    if rep.n != 2:
        raise Refusal("sweep needs a rank-2 base representation")
    split = _bend_split_for(rep, spec)
    coding = oseledets.code_samples(bundle[0], sweep.base.run)  # shared by all points
    rows = []
    for v in sweep.grid:
        s = complex(0.0, v) if sweep.axis == "imag" else complex(v, 0.0)
        try:
            # bend_representation gates relations at 1e-8, inside RELATION_GATE
            bent = rep if s == 0 else fuchsian.bend_representation(rep, split, s)
            est = oseledets.estimate_spectrum(bundle[0], bent, sweep.base.run, coding)
            rows.append((v, est.values[0], est.stderr[0], "ok"))
        except (fuchsian.DegenerateBendingError, linrep.RepresentationError,
                oseledets.InsufficientDataError) as exc:
            rows.append((v, math.nan, math.nan, f"failed:{type(exc).__name__}"))
    return rows, rep


def cmd_spectrum(ns, config):
    cfg = ExperimentConfig(
        group=_pick(ns.group, config, "group", "triangle:3,3,4"),
        rep_source=_pick(ns.rep, config, "rep", "builtin:fuchsian"),
        transforms=tuple(ns.transform or ()),
        run=_common_run_config(ns, config),
        out=ns.out,
        svg=ns.svg,
    )
    est, rep = run_spectrum_experiment(cfg)
    _write_text(cfg.out, oseledets.spectrum_csv(est))
    if cfg.svg:
        idx = list(range(1, len(est.values) + 1))
        svg = svg_line_plot(
            [(idx, list(est.values), "steelblue", True)],
            f"Lyapunov spectrum: {rep.label}", "exponent index", "lambda",
        )
        _write_text(cfg.svg, svg)
    return 0


def cmd_sweep(ns, config):
    base = ExperimentConfig(
        group=_pick(ns.group, config, "group", "surface:2"),
        rep_source=_pick(ns.rep, config, "rep", "builtin:fuchsian"),
        transforms=tuple(ns.transform or ()),
        run=_common_run_config(ns, config),
        out=ns.out,
        svg=ns.svg,
    )
    sweep = SweepSpec(
        axis=_pick(ns.axis, config, "axis", "imag"),
        grid=tuple(_parse_grid(_pick(ns.grid, config, "grid", "0:2:11"))),
        base=base,
    )
    rows, rep = run_sweep(sweep)
    lines = ["parameter,lambda1,stderr,status"]
    for v, lam, se, status in rows:
        lines.append(f"{v:.12g},{lam:.12g},{se:.12g},{status}")
    _write_text(base.out, "\n".join(lines) + "\n")
    if base.svg:
        ok = [(v, lam) for v, lam, _, st in rows if st == "ok"]
        svg = svg_line_plot(
            [([v for v, _ in ok], [lam for _, lam in ok], "firebrick", True)],
            f"bending sweep ({sweep.axis} axis): {rep.label}",
            f"bend parameter ({sweep.axis} part)", "lambda1",
        )
        _write_text(base.svg, svg)
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


def cmd_err(ns, config):
    kind = _pick(ns.dev, config, "dev", "identity")
    spec = fuchsian.parse_group_spec(_pick(ns.group, config, "group", "triangle:3,3,4"))
    bundle = fuchsian.build_group(spec)
    rep2 = linrep.uniformizing_rep(bundle[1], bundle[2], "fuchsian")
    if kind == "identity":
        dev = devmaps.identity_dev(rep2)
    elif kind.startswith("veronese:"):
        dev = devmaps.veronese_dev(int(kind.split(":")[1]), rep2)
    else:
        raise Refusal(
            f"dev kind {kind!r} unsupported from the CLI (ode maps take a "
            "quadratic-differential callable; use the library API)"
        )
    if ns.covector is None and "covector" not in config:
        raise Refusal("err needs --covector")
    u = _parse_covector(_pick(ns.covector, config, "covector", None))
    if len(u) != dev.dim:
        raise Refusal(f"covector length {len(u)} != dev dimension {dev.dim}")
    cx, cy = (float(v) for v in _pick(ns.center, config, "center", "0,2").split(","))
    center = hypgeo.HPoint(cx, cy)
    t_max = _pick(ns.tmax, config, "tmax", 20.0, float)
    nodes = _pick(ns.grid_nodes, config, "grid-nodes", 400, int)
    cf = errterm.count_in_balls((dev, u), center, _err_grid(t_max, nodes))
    return _write_err_outputs(ns, cf, t_max)


def _err_grid(t_max, nodes):
    """Denser nodes at small radii where the integrand varies fastest."""
    n1 = max(50, nodes // 2)
    head = np.linspace(0.25, min(12.0, t_max), n1)
    if t_max <= 12.0:
        return head
    tail = np.linspace(min(12.0, t_max), t_max, max(50, nodes - n1) + 1)[1:]
    return np.concatenate([head, tail])


def _write_err_outputs(ns, cf, t_max):
    """CSV (and SVG when asked) of an err or orbit-count run."""
    est = errterm.err_estimate(cf, t_max)
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


def cmd_orbit_count(ns, config):
    spec = fuchsian.parse_group_spec(_pick(ns.group, config, "group", "triangle:3,3,4"))
    dom, gens, _ = fuchsian.build_group(spec)
    t_max = _pick(ns.tmax, config, "tmax", 12.0, float)
    nodes = _pick(ns.grid_nodes, config, "grid-nodes", 240, int)
    if ns.center is not None or "center" in config:
        cx, cy = (float(v) for v in _pick(ns.center, config, "center", None).split(","))
        center = hypgeo.HPoint(cx, cy)
    else:
        center = dom.interior_point
    pts, dists = fuchsian.orbit_ball(dom, gens, center, t_max)
    cf = errterm.count_in_balls((pts, dists), center, np.linspace(0.3, t_max, nodes))
    return _write_err_outputs(ns, cf, t_max)


def cmd_rep(ns, config):
    spec_text = _pick(ns.group, config, "group", "triangle:3,3,4")
    spec = fuchsian.parse_group_spec(spec_text)
    bundle = fuchsian.build_group(spec)
    rep = resolve_rep(_pick(ns.rep, config, "rep", "builtin:fuchsian"), bundle)
    rep = apply_transforms(rep, ns.transform or [], spec)
    report = _gate_relations(rep) if ns.check else linrep.check_relations(rep)
    _write_text(ns.out, linrep.format_rep_text(rep))
    sys.stderr.write(
        f"relations: max residual {report.max_residual:.3e} "
        f"(relative {report.max_relative:.3e}); classify: "
        f"{linrep.classify(rep)}\n"
    )
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_suites(inject_corruption=False):
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
            worst = max(worst, abs(
                hypgeo.hyp_dist(m.apply(z), m.apply(w)) - hypgeo.hyp_dist(z, w)
            ))
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
        reps = [rep3, rep2, linrep.unitary_cube_rep()]
        if inject_corruption:
            g = np.array(rep3.generators[0])
            g[0, 0] += 1e-3
            reps.append(linrep.Representation(
                2, "real", [g, rep3.generators[1], rep3.generators[2]],
                rels3, "corrupted", True))
        worst = max(linrep.check_relations(r).max_residual for r in reps)
        return worst < 1e-9, f"max relation residual {worst:.2e}"

    def suite_pairing():
        worst = 0.0
        for dom in (dom3, dom2):
            for k, pair in enumerate(dom.pairings):
                arc = dom.sides[k]
                car = dom._raw[pair.partner][0]
                for t in np.linspace(0, arc.length, 20):
                    w = pair.mobius.apply(arc.point_at(t))
                    worst = max(worst, abs(hypgeo.side_clearance(car, w.x, w.y)))
        return worst < 1e-9, f"max pairing defect {worst:.2e}"

    def suite_coding():
        ut = hypgeo.UnitTangent(dom3.interior_point, 0.8346)
        c1 = fuchsian.code_geodesic(dom3, ut, 6.0)
        c2 = fuchsian.code_geodesic(dom3, c1.end_state, 7.0)
        both = fuchsian.code_geodesic(dom3, ut, 13.0)
        gens_match = (
            len(both.gens) == len(c1.gens) + len(c2.gens)
            and (both.gens[: len(c1.gens)] == c1.gens).all()
            and (both.gens[len(c1.gens):] == c2.gens).all()
        )
        times = np.concatenate([c1.times, c1.total_time + c2.times])
        dt = np.abs(times - both.times).max() if gens_match else math.inf
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
                   for q in (1, 4, 16)]
        coding = oseledets.code_samples(dom3, configs[0])
        ests = [oseledets.estimate_spectrum(dom3, rep3, c, coding) for c in configs]
        spread = max(abs(e.values[0] - ests[0].values[0]) for e in ests)
        bound = 3.0 * max(math.hypot(e.stderr[0], ests[0].stderr[0]) for e in ests)
        return spread <= max(bound, 1e-9), f"spread {spread:.2e} vs 3se {bound:.2e}"

    def suite_seed_determinism():
        runs = [
            oseledets.spectrum_csv(oseledets.estimate_spectrum(
                dom3, rep3, oseledets.RunConfig(T=100.0, samples=4, seed=123)))
            for _ in range(2)
        ]
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
        rep = linrep.uniformizing_rep(gens3, rels3, "fuchsian")
        v = devmaps.veronese_dev(3, rep)
        u = devmaps.Covector((1.0, 0.25, 1.0))
        grid = np.linspace(0.3, 6.0, 60)
        cf = errterm.count_in_balls((v, u), hypgeo.HPoint(0.0, 2.0), grid)
        mono = bool(np.all(np.diff(cf.counts) >= 0))
        pts, dists = fuchsian.orbit_ball(dom3, gens3, dom3.interior_point, 6.0)
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


def cmd_selftest(ns, config):
    del config
    failures = []
    for name, fn in _selftest_suites(bool(ns.inject_corruption)):
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

    def add_common(sp, with_run=True):
        sp.add_argument("--config", help="key=value file; flags override it")
        sp.add_argument("--group", help="triangle:p,q,r or surface:g")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--svg", help="also write an SVG plot here")
        if with_run:
            sp.add_argument("--rep", help="builtin:fuchsian|builtin:trivial|"
                                          "builtin:unitary-cube|FILE")
            sp.add_argument("--transform", action="append",
                            help="sym:k | ext:k | bend:re,im (repeatable)")
            sp.add_argument("--time", type=float, help="flow time per sample")
            sp.add_argument("--samples", type=int)
            sp.add_argument("--seed", type=int)
            sp.add_argument("--qr-interval", type=int, dest="qr_interval")
            sp.add_argument("--normalization", choices=["minus4", "minus1"])
            sp.add_argument("--random-base", type=int, dest="random_base",
                            help="1: sample base points uniformly in the domain")

    sp = sub.add_parser("spectrum", help="estimate a Lyapunov spectrum")
    add_common(sp)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("sweep", help="bending sweep of lambda1")
    add_common(sp)
    sp.add_argument("--axis", choices=["real", "imag"])
    sp.add_argument("--grid", help="start:stop:npoints or comma list")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("err", help="error-term estimate for a developing map")
    add_common(sp, with_run=False)
    sp.add_argument("--dev", help="identity | veronese:n")
    sp.add_argument("--covector", help="homogeneous coords, e.g. '1 0 1'")
    sp.add_argument("--center", help="x,y of the ball center")
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--grid-nodes", type=int, dest="grid_nodes")
    sp.set_defaults(fn=cmd_err)

    sp = sub.add_parser("orbit-count", help="orbit-counting calibration mode")
    add_common(sp, with_run=False)
    sp.add_argument("--center", help="x,y (default: domain interior point)")
    sp.add_argument("--tmax", type=float)
    sp.add_argument("--grid-nodes", type=int, dest="grid_nodes")
    sp.set_defaults(fn=cmd_orbit_count)

    sp = sub.add_parser("rep", help="read/transform/write representation files")
    add_common(sp, with_run=True)
    sp.add_argument("--check", action="store_true",
                    help="refuse (exit 2) when relations fail")
    sp.set_defaults(fn=cmd_rep)

    sp = sub.add_parser("selftest", help="run the invariant suites")
    sp.add_argument("--inject-corruption", action="store_true",
                    help=argparse.SUPPRESS)
    sp.set_defaults(fn=cmd_selftest, config=None)
    return p


def main(argv=None):
    ns = build_parser().parse_args(argv)
    config = {}
    if getattr(ns, "config", None):
        try:
            config = _load_config(ns.config)
        except OSError as exc:
            sys.stderr.write(f"lyaplab: cannot read config: {exc}\n")
            return 3
    try:
        return ns.fn(ns, config)
    except Refusal as exc:
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
