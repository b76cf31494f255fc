"""The error-term estimator: pi times the time average of bad-locus counts
over ball volumes, with convergence diagnostics, an orbit-counting
validation mode, and the compact-case sum-rule check.

Counts and radii are curvature -1 quantities; the resulting error values
combine directly with spectra reported in the minus4 convention (the
volume normalization fixes the scale, as the orbit calibration
pi/covolume pins down).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .devmaps import Covector, OdeDevelopingMap, bad_locus_points
from .hypgeo import BallSpec, HPoint, ball_volume, hyp_dist


class ResolutionError(ValueError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class CountFunction:
    """t -> number of bad points within hyperbolic distance t of the center."""

    t: np.ndarray
    counts: np.ndarray
    source: str  # 'devmap' | 'point-set'
    uncertain: np.ndarray  # per-node count of boundary-ambiguous points

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        c = np.asarray(self.counts, dtype=np.int64)
        if len(t) != len(c):
            raise ValueError("grid/count length mismatch")
        if len(t) and (t[0] <= 0 or np.any(np.diff(t) <= 0)):
            raise ValueError("t grid must be strictly increasing and positive")
        if np.any(np.diff(c) < 0):
            raise ValueError("counts must be nondecreasing in t")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "counts", c)
        object.__setattr__(
            self, "uncertain", np.asarray(self.uncertain, dtype=np.int64)
        )


def _point_distances(points, center):
    out = []
    for p in points:
        z = p.z if isinstance(p, HPoint) else complex(p)
        out.append(hyp_dist(center, HPoint(z.real, z.imag)))
    return np.sort(np.asarray(out))


def count_in_balls(source, center, t_grid, boundary_tol=1e-9, resolution=1e-9):
    """Per-radius bad-locus counts.

    source is either an explicit point collection (anything iterable of
    complex/HPoint, or a (points, dists) pair from orbit_ball), or a
    (developing map, covector) pair; ODE-backed maps pass their
    OdeDevelopingMap so counting can integrate along cell boundaries.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[1], Covector):
        dev, u = source
        ball = BallSpec(center, float(t_grid[-1]) + boundary_tol)
        if isinstance(dev, OdeDevelopingMap):
            pts = dev.bad_locus_points(u, ball, resolution=resolution)
        else:
            pts = bad_locus_points(dev, u, ball, resolution=resolution)
        dists = _point_distances(pts, center)
        tag = "devmap"
    else:
        if isinstance(source, tuple) and len(source) == 2:
            pts, dists = source
            dists = np.sort(np.asarray(dists, dtype=float))
        else:
            dists = _point_distances(list(source), center)
        tag = "point-set"
    counts = np.searchsorted(dists, t_grid + boundary_tol, side="right")
    lo = np.searchsorted(dists, t_grid - boundary_tol, side="right")
    return CountFunction(
        t=t_grid, counts=counts, source=tag, uncertain=counts - lo
    )


@dataclass(frozen=True)
class ErrEstimate:
    """Windowed-tail estimate of pi * (1/T) integral of count/vol.

    value is the estimate at T_max; tail_estimates holds (T', value at T')
    for the 0.6/0.8/1.0 windows; unaveraged is the conjectural plain ratio
    pi * count(T)/vol(T), reported as a diagnostic only.
    """

    value: float
    tail_estimates: tuple
    converged_flag: bool
    unaveraged: float
    uncertainty: float = 0.0


def running_err(cf):
    """(ball volumes, count/vol, running estimate) at every node of cf.t;
    the running estimate at t is pi/t times the trapezoidal integral of
    count/vol from the first node to t."""
    vols = np.array([ball_volume(v) for v in cf.t])
    g = cf.counts / vols
    running_int = np.concatenate(
        [[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(cf.t))]
    )
    return vols, g, math.pi * running_int / cf.t


def err_estimate(cf, T_max, min_nodes=50):
    """Trapezoidal time average of count/vol over [t0, T], times pi/T."""
    t = cf.t
    if t[-1] < T_max - 1e-9:
        raise ResolutionError(f"grid ends at {t[-1]:g} before T_max={T_max:g}")
    n = int(np.searchsorted(t, T_max + 1e-12, side="right"))  # nodes <= T_max
    if n < min_nodes:
        raise ResolutionError(f"only {n} grid nodes below T_max; need {min_nodes}")
    tt = t[:n]
    vols, _, running = (a[:n] for a in running_err(cf))
    tails = []
    for frac in (0.6, 0.8, 1.0):
        target = frac * T_max
        tails.append((target, float(np.interp(target, tt, running))))
    value = tails[-1][1]
    spread = max(v for _, v in tails) - min(v for _, v in tails)
    converged = spread < 0.1 * abs(value) or abs(value) < 1e-3
    gu = cf.uncertain[:n] / vols
    band = math.pi * float(np.sum(0.5 * (gu[1:] + gu[:-1]) * np.diff(tt))) / tt[-1]
    unavg = math.pi * cf.counts[n - 1] / vols[-1]
    return ErrEstimate(
        value=float(value),
        tail_estimates=tuple(tails),
        converged_flag=bool(converged),
        unaveraged=float(unavg),
        uncertainty=float(band),
    )


@dataclass(frozen=True)
class SumRuleReport:
    lhs: float
    rhs: float
    discrepancy: float
    stderr: float
    sigma_units: float


def sum_rule_check(spectrum, degree_ratio, err, k=1):
    """Compare the k-th partial sum of the spectrum with ratio + err.

    degree_ratio is an exact rational (2 deg(E) / deg(K) in the compact
    rank-2 conventions); both sides must be in the curvature -4 reporting
    convention, which is the only one the error estimator produces.
    """
    if spectrum.normalization_tag != "minus4":
        raise ConfigurationError(
            f"sum rule needs a minus4 spectrum, got {spectrum.normalization_tag!r}"
        )
    ratio = float(Fraction(degree_ratio))
    lhs = float(np.sum(spectrum.values[:k]))
    if spectrum.sample_values is not None:
        partial = spectrum.sample_values[:, :k].sum(axis=1)
        se = float(partial.std(ddof=1) / math.sqrt(len(partial)))
    else:
        se = float(np.sqrt(np.sum(spectrum.stderr[:k] ** 2)))
    rhs = ratio + err.value
    disc = lhs - rhs
    if se > 0:
        sigma = abs(disc) / se
    else:
        sigma = 0.0 if disc == 0 else math.inf
    return SumRuleReport(lhs=lhs, rhs=rhs, discrepancy=disc, stderr=se,
                         sigma_units=float(sigma))


def count_csv(cf, est=None):
    """CSV rows t,count,count_over_vol,running_err plus a comment summary."""
    tt = cf.t
    _, g, running = running_err(cf)
    lines = ["t,count,count_over_vol,running_err"]
    for i in range(len(tt)):
        lines.append(
            f"{tt[i]:.12g},{int(cf.counts[i])},{g[i]:.12g},{running[i]:.12g}"
        )
    if est is not None:
        tails = " ".join(f"tail_{tp:g}={tv:.12g}" for tp, tv in est.tail_estimates)
        lines.append(
            f"# err={est.value:.12g} {tails} converged={int(est.converged_flag)} "
            f"unaveraged={est.unaveraged:.12g} uncertainty={est.uncertainty:.12g}"
        )
    return "\n".join(lines) + "\n"
