"""Batch experiment front end: `lyaplab spectrum|sweep|err|orbit-count|rep|selftest`.

Exit codes: 0 success, 1 selftest failure, 2 validation refusal or usage
error, 3 I/O error.  All CSV output is a deterministic function of the command
line (seeds included); SVG plots are pure functions of the CSV content.
"""

import dataclasses
import math
import sys
import types

import numpy as np

from . import devmaps, errterm, fuchsian, hypgeo, linrep, oseledets


class Refusal(Exception):
    """Validation refusal (exit code 2)."""


def resolve_rep(source, group_bundle):
    """builtin:fuchsian | builtin:trivial | builtin:unitary-cube | file path,
    with the group's relation words for the relation gate (a file's own are
    not read).  Refuses another generator count than the group's."""
    dom, gens, rels = group_bundle
    if source == "builtin:fuchsian":
        return linrep.uniformizing_rep(gens, rels, "fuchsian")
    if source == "builtin:trivial":
        return linrep.trivial_rep(2, len(gens), rels, "trivial")
    cube = source == "builtin:unitary-cube"
    rep = linrep.unitary_cube_rep() if cube else linrep.load_rep(source)
    if rep.num_generators != len(gens):
        raise Refusal(f"{source} has {rep.num_generators} generators; the group has {len(gens)}")
    return dataclasses.replace(rep, relations=rels)


def apply_transforms(rep, chain, group_spec):
    """Transform chain, left to right: sym:k | ext:k | bend:re,im."""
    for item in chain:
        name, _, arg = item.partition(":")
        if name in ("sym", "ext"):
            k = _read(item, f"--transform {name}", f"{name}:k", _index)
            rep = linrep.sym_power(rep, k) if name == "sym" else linrep.ext_power(rep, k)
        elif name == "bend":
            value = complex(*_read(arg, "--transform bend", "re,im", _pair))
            split = _bend_split_for(rep, group_spec)
            rep = fuchsian.bend_representation(rep, split, value)
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
        raise Refusal("bending needs a rank-2 representation")
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
        normalization=ns.normalization, random_base=ns.random_base == "1",
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
    """Bend the whole grid in one call, then run every point that was not
    refused in one estimate_spectra call over geodesics coded once;
    refused and unresolved points become failed rows."""
    run = _run_config(ns)
    grid = _read(ns.grid, "--grid", "start:stop:npoints or a comma list", _parse_grid)
    if not grid or not all(math.isfinite(v) for v in grid):
        raise Refusal("sweep grid must be nonempty and finite")
    spec, dom, rep = _resolve(ns)
    _gate_relations(rep)
    split = _bend_split_for(rep, spec)
    values = [complex(0.0, v) if ns.axis == "imag" else complex(v, 0.0) for v in grid]
    bent = fuchsian.bend_representations(rep, split, values)
    ests = iter(oseledets.estimate_spectra(
        dom, [b for b in bent if not isinstance(b, Exception)], run))
    rows = []
    for v, b in zip(grid, bent):
        est = b if isinstance(b, Exception) else next(ests)
        if isinstance(est, Exception):  # refused, or InsufficientDataError
            rows.append((v, math.nan, math.nan, f"failed:{type(est).__name__}"))
        elif est.unresolved:
            rows.append((v, math.nan, math.nan, "failed:unresolved"))
        else:
            rows.append((v, est.values[0], est.stderr[0], "ok"))
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


def _read(text, name, form, parse):
    """parse(text), text being the value of option name; a bad number, or
    not as many of them as form has, is refused in the words of form."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{name} expects {form}, got {text!r}") from None


def _pair(text):
    a, b = (float(v) for v in text.split(","))
    return a, b


def _index(text):  # the k of kind:k
    return int(text.partition(":")[2])


def _numbers(text):
    return tuple(complex(tok.replace("i", "j")) for tok in text.replace(",", " ").split())


def cmd_err(ns):
    kind, _, arg = ns.dev.partition(":")
    if kind != "veronese":
        raise Refusal(f"dev kind {ns.dev!r} unsupported (use veronese:n)")
    n = _read(ns.dev, "--dev", "veronese:n", _index)
    if n < 2:
        raise ValueError("veronese needs n >= 2")
    if ns.covector is None:
        raise Refusal("err needs --covector")
    u = devmaps.Covector(_read(ns.covector, "--covector", "numbers as in '1 -0.5+2i'", _numbers))
    if len(u) != n:
        raise Refusal(f"covector length {len(u)} != dev dimension {n}")
    center = hypgeo.HPoint(*_read(ns.center, "--center", "x,y", _pair))
    cf = errterm.count_in_balls((n, u), center, _err_grid(ns.tmax, ns.grid_nodes))
    return _write_err_outputs(ns, cf)


def _err_grid(t_max, nodes):
    """Denser nodes at small radii where the integrand varies fastest, at
    least 50 on each side of t = 12; a non-finite t_max leaves non-finite
    nodes, which CountFunction refuses."""
    if nodes < 1:
        raise ValueError("grid nodes must be >= 1")
    n1 = max(50, nodes // 2)
    head = np.linspace(0.25, min(12.0, t_max), n1)
    if t_max <= 12.0:
        return head
    with np.errstate(invalid="ignore"):  # t_max = inf: 0 * inf in linspace
        tail = np.linspace(min(12.0, t_max), t_max, max(50, nodes - n1) + 1)[1:]
    return np.concatenate([head, tail])


def _write_err_outputs(ns, cf):
    """CSV (and SVG when asked) of an err or orbit-count run."""
    est = errterm.err_estimate(cf, ns.tmax)
    _write_text(ns.out, errterm.count_csv(cf, est))
    if ns.svg:
        svg = svg_line_plot(
            [(list(cf.t), list(cf.running), "steelblue", False),
             (list(cf.t), list(math.pi * cf.ratio), "gray", False)],
            "running error-term estimate (blue) and instantaneous ratio (gray)",
            "t", "estimate",
        )
        _write_text(ns.svg, svg)
    return 0


def cmd_orbit_count(ns):
    if ns.grid_nodes < 1:  # np.linspace would word it otherwise
        raise ValueError("grid nodes must be >= 1")
    dom, _, _ = fuchsian.build_group(fuchsian.parse_group_spec(ns.group))
    center = (dom.interior_point if ns.center is None
              else hypgeo.HPoint(*_read(ns.center, "--center", "x,y", _pair)))
    pts, dists = fuchsian.orbit_ball(dom, center, ns.tmax)
    cf = errterm.count_in_balls((pts, dists), center,
                                np.linspace(0.3, ns.tmax, ns.grid_nodes))
    return _write_err_outputs(ns, cf)


def cmd_rep(ns):
    _, _, rep = _resolve(ns)
    report = _gate_relations(rep) if ns.check else linrep.check_relations(rep)
    _write_text(ns.out, linrep.format_rep_text(rep))
    # a certificate, not a guess: unitary generators preserve the norm, so every exponent is 0
    unitary = all(np.linalg.norm(g.conj().T @ g - np.eye(rep.n)) < 1e-8 for g in rep.generators)
    sys.stderr.write(f"relations: max residual {report.max_residual:.3e} (relative "
                     f"{report.max_relative:.3e}); unitary generators: {('no', 'yes')[unitary]}\n")
    return 0


def cmd_selftest(_ns):
    from . import selftest  # the battery is compiled by this command only

    failures = []
    for name, fn in selftest.suites():
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
# the command line: option -> (kind, default, help), kind being its value's
# converter, a tuple of its choices, list (repeatable) or bool (a flag)
OPTIONS = {
    "config": (str, None, "key=value file; flags override it"),
    "group": (str, "triangle:3,3,4", "triangle:p,q,r or surface:g"),
    "rep": (str, "builtin:fuchsian", "builtin:fuchsian|builtin:trivial|builtin:unitary-cube|FILE"),
    "transform": (list, (), "sym:k | ext:k | bend:re,im (repeatable)"),
    "time": (float, 2000.0, "flow time per sample"),
    "samples": (int, 64, "number of sampled geodesics"),
    "seed": (int, 1, "seed of the samples"),
    "qr-interval": (int, None, "cap on the QR interval; none: set by conditioning"),
    "normalization": (("minus4", "minus1"), "minus4", "minus1 halves every exponent"),
    "random-base": (("0", "1"), "0", "1: sample base points uniformly in the domain"),
    "axis": (("real", "imag"), "imag", "the part of the bend parameter swept"),
    "grid": (str, "0:2:11", "start:stop:npoints or comma list"),
    "dev": (str, "veronese:2", "veronese:n, the Veronese curve with n coordinates"),
    "covector": (str, None, "homogeneous coords, e.g. '1 0 1' (required)"),
    "center": (str, None, "x,y of the ball center; none: the domain's interior point"),
    "tmax": (float, 12.0, "largest radius t"),
    "grid-nodes": (int, 240, "t grid nodes, at least 1 (err: at least 50 on each side of t = 12)"),
    "out": (str, None, "output path; none: stdout"),
    "svg": (str, None, "also write an SVG plot here"),
    "check": (bool, False, "refuse (exit 2) when relations fail"),
}


def _table(names, **defaults):
    """The options of a command; defaults: those it sets otherwise, by dest."""
    return {key: (kind, defaults.get(key.replace("-", "_"), default), text)
            for key in names.split() for kind, default, text in [OPTIONS[key]]}


_RUN = "config group rep transform time samples seed qr-interval normalization random-base"
COMMANDS = {  # name -> (function, help, options)
    "spectrum": (cmd_spectrum, "estimate a Lyapunov spectrum", _table(f"{_RUN} out svg")),
    "sweep": (cmd_sweep, "bending sweep of lambda1",
              _table(f"{_RUN} axis grid out svg", group="surface:2")),
    "err": (cmd_err, "error-term estimate for a developing map",
            _table("config dev covector center tmax grid-nodes out svg",
                   center="0,2", tmax=20.0, grid_nodes=400)),
    "orbit-count": (cmd_orbit_count, "orbit-counting calibration mode",
                    _table("config group center tmax grid-nodes out svg")),
    "rep": (cmd_rep, "read/transform/write representation files",
            _table("config group rep transform out check")),
    "selftest": (cmd_selftest, "run the invariant suites", {}),
}
CONFIG_KEYS = {key for key, (kind, _, _) in OPTIONS.items()  # of one value, and no file
               if kind not in (list, bool) and key not in ("config", "out", "svg")}


def _usage_error(text):
    sys.stderr.write(f"lyaplab: usage error: {text}\n")
    raise SystemExit(2)


def _value(where, kind, raw):
    """raw by kind, a converter or a tuple of choices; a bad value is a usage error."""
    try:  # tuple.index raises ValueError too
        return kind[kind.index(raw)] if isinstance(kind, tuple) else kind(raw)
    except ValueError:
        _usage_error(f"{where}: invalid value {raw!r} (expected "
                     f"{' | '.join(kind) if isinstance(kind, tuple) else kind.__name__})")


def _help(command):
    """Print the help of lyaplab (command None) or of a command, and exit 0."""
    rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    head = f"{{{','.join(COMMANDS)}}} [--option value ...]\n\n{__doc__}\ncommands:"
    if command:
        head = f"{command} [--option value ...]\n\n{COMMANDS[command][1]}\n\noptions:"
        rows = [(f"--{key}" + (" {" + ",".join(kind) + "}" if isinstance(kind, tuple) else ""),
                 f"{text} (default: {'none' if default in (None, ()) else default})")
                for key, (kind, default, text) in COMMANDS[command][2].items()]
    print(f"usage: lyaplab {head}", *(f"  {a:<22} {b}" for a, b in rows), sep="\n")
    raise SystemExit(0)


def _parse(argv):
    """(command, {option: value}) of argv, each value converted at once: --opt value
    or --opt=value, a value not beginning with --; -h or --help anywhere is help."""
    command = argv[0] if argv else "none"
    if "-h" in argv or "--help" in argv:
        _help(command if command in COMMANDS else None)
    if command not in COMMANDS:
        _usage_error(f"expected a command ({', '.join(COMMANDS)}), got {command}")
    args, given, opts = iter(argv[1:]), {}, COMMANDS[command][2]
    for arg in args:
        key, eq, raw = arg[2:].partition("=")
        if not arg.startswith("--") or key not in opts or eq and opts[key][0] is bool:
            _usage_error(f"{command} has no option {arg!r}")
        kind = opts[key][0]
        if kind is not bool and not eq:
            raw = next(args, None)
            if raw is None or raw.startswith("--"):
                _usage_error(f"{command} --{key} needs a value")
        given[key] = (given.get(key, ()) + (raw,) if kind is list else True if kind is bool
                      else _value(f"{command} --{key}", kind, raw))
    return command, given


def main(argv=None):
    command, given = _parse(sys.argv[1:] if argv is None else argv)
    config = {}
    if given.get("config"):
        try:
            with open(given["config"]) as fh:
                lines = [line.strip() for line in fh]
        except OSError as exc:
            sys.stderr.write(f"lyaplab: cannot read config: {exc}\n")
            return 3
        pairs = (line.partition("=") for line in lines if line and not line.startswith("#"))
        config = {key.strip(): val.strip() for key, _, val in pairs}
    try:
        unknown = [key for key in config if key not in CONFIG_KEYS]
        if unknown:
            raise Refusal(f"unknown config key {unknown[0]!r} in {given['config']}")
        ns = types.SimpleNamespace()
        for key, (kind, default, _) in COMMANDS[command][2].items():  # a flag wins over the file
            if key in config and key not in given:
                given[key] = _value(f"{given['config']}: {key}", kind, config[key])
            setattr(ns, key.replace("-", "_"), given.get(key, default))
        return COMMANDS[command][0](ns)
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
