"""Per-layer spans and exact counters for a traced repetition.

``install`` replaces lyaplab functions by wrappers at the module attributes
their callers look up, so the package itself is unchanged.  Every span adds
its duration to the open span that called it; a span's self time is its
duration minus that child time.  Run it only in a throw-away process: the
replacement lasts for the life of the interpreter.
"""

import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.flow_length = 0.0  # geodesic time actually traced
        self.starts = set()  # distinct (start tangent, T) of trace calls
        self._open = []  # child-time accumulator of each open span

    def _close(self, name, start, child):
        d = time.perf_counter() - start
        self.total[name] += d
        self.self_time[name] += d - child
        if self._open:
            self._open[-1][0] += d

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self._close(name, start, frame[0])
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def wrap_crossings(self, fn):
        """Time each next() of iter_crossings and count its crossings."""

        def traced(dom, ut, T, *args, perturb_log=None, **kwargs):
            log = [] if perturb_log is None else perturb_log
            logged = len(log)
            self.counts["trace_calls"] += 1
            self.starts.add((ut.base.x, ut.base.y, ut.angle, float(T)))
            reached = 0.0
            gen = fn(dom, ut, T, *args, perturb_log=log, **kwargs)
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        reached = T
                        return
                    finally:
                        self._close("fuchsian.trace", start, 0.0)
                    self.counts["crossings"] += 1
                    reached = item[0]
                    yield item
            finally:
                gen.close()
                self.flow_length += reached
                self.counts["perturbations"] += len(log) - logged

        return traced


def install(tracer):
    """Wrap the public lyaplab entry points of every layer with spans."""
    from lyaplab import cli, devmaps, errterm, fuchsian, linrep, oseledets

    def on_estimate(args, est):
        tracer.counts["samples_dropped"] += args[2].samples - est.samples

    def on_orbit(args, out):
        tracer.counts["orbit_points"] += len(out[0])

    def on_bfs(args, ball):  # private BFS result; re-point when it is replaced
        tracer.counts["orbit_enumerated"] += len(ball.points)

    def on_locus(args, pts):
        tracer.counts["locus_points"] += len(pts)

    def on_flush(args, out):
        tracer.counts["qr_flushes"] += 1

    spans = [
        (cli, "main", "cli.main", None),
        (fuchsian, "build_group", "fuchsian.build_group", None),
        (fuchsian, "bend_representation", "fuchsian.bend_representation", None),
        (fuchsian, "orbit_ball", "fuchsian.orbit_ball", on_orbit),
        (fuchsian, "_orbit_bfs", "fuchsian.orbit_bfs", on_bfs),
        (linrep, "uniformizing_rep", "linrep.uniformizing_rep", None),
        (linrep, "sym_power", "linrep.sym_power", None),
        (devmaps, "sym_power", "linrep.sym_power", None),
        (linrep, "ext_power", "linrep.ext_power", None),
        (linrep, "check_relations", "linrep.check_relations", None),
        (oseledets, "estimate_spectrum", "oseledets.estimate_spectrum", on_estimate),
        (oseledets.CocycleAccumulator, "flush", "oseledets.flush", on_flush),
        (errterm, "count_in_balls", "errterm.count_in_balls", None),
        (errterm, "err_estimate", "errterm.err_estimate", None),
        (errterm, "bad_locus_points", "devmaps.bad_locus_points", on_locus),
    ]
    for owner, attr, name, on_result in spans:
        fn = getattr(owner, attr, None)
        if fn is not None:  # a layer that lost the function reads 0
            setattr(owner, attr, tracer.wrap(name, fn, on_result))
    if hasattr(oseledets, "iter_crossings"):
        oseledets.iter_crossings = tracer.wrap_crossings(oseledets.iter_crossings)


def layer_metrics(tracer, dom, area):
    """Per-layer metric values of one traced repetition."""
    tot, c = tracer.total, tracer.counts
    crossings = c["crossings"]
    trace_s = tot["fuchsian.trace"]
    estimate_s = tot["oseledets.estimate_spectrum"]
    cocycle_s = estimate_s - trace_s
    perimeter = sum(side.length for side in dom.sides)
    predicted_rate = perimeter / (math.pi * area)
    measured_rate = crossings / tracer.flow_length if tracer.flow_length else 0.0
    per_crossing = 1e6 / crossings if crossings else 0.0
    return {
        "cli.self_s": tracer.self_time["cli.main"],
        "fuchsian.build_s": tot["fuchsian.build_group"],
        "fuchsian.trace_s": trace_s,
        "fuchsian.trace_us_per_crossing": trace_s * per_crossing,
        "fuchsian.crossings": crossings,
        "fuchsian.trace_calls": c["trace_calls"],
        "fuchsian.retrace_factor": (
            c["trace_calls"] / len(tracer.starts) if tracer.starts else 0.0
        ),
        "fuchsian.perturbations": c["perturbations"],
        "fuchsian.santalo_ratio": measured_rate / predicted_rate,
        "fuchsian.bend_s": tot["fuchsian.bend_representation"],
        "fuchsian.orbit_s": tot["fuchsian.orbit_ball"],
        "fuchsian.orbit_points": c["orbit_points"],
        "fuchsian.orbit_enumerated": c["orbit_enumerated"],
        "fuchsian.orbit_kept_ratio": (
            c["orbit_points"] / c["orbit_enumerated"] if c["orbit_enumerated"] else 0.0
        ),
        "linrep.setup_s": sum(
            tot[f"linrep.{fn}"]
            for fn in ("uniformizing_rep", "sym_power", "ext_power", "check_relations")
        ),
        "oseledets.estimate_s": estimate_s,
        "oseledets.cocycle_self_s": cocycle_s,
        "oseledets.cocycle_us_per_crossing": cocycle_s * per_crossing,
        "oseledets.qr_s": tot["oseledets.flush"],
        "oseledets.qr_flushes": c["qr_flushes"],
        "oseledets.samples_dropped": c["samples_dropped"],
        "errterm.count_s": tot["errterm.count_in_balls"],
        "errterm.estimate_s": tot["errterm.err_estimate"],
        "devmaps.locus_s": tot["devmaps.bad_locus_points"],
        "devmaps.locus_points": c["locus_points"],
    }


# counts that must repeat exactly between traced repetitions of one command
EXACT_COUNTS = (
    "fuchsian.crossings", "fuchsian.trace_calls", "fuchsian.perturbations",
    "fuchsian.orbit_points", "fuchsian.orbit_enumerated",
    "oseledets.qr_flushes", "oseledets.samples_dropped", "devmaps.locus_points",
)
