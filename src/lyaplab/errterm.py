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

import numpy as np

from .devmaps import Covector, bad_locus_points
from .hypgeo import HPoint, ball_volume, hyp_dist

MIN_NODES = 50  # grid nodes an err estimate needs at or below T_max
BOUNDARY_TOL = 1e-9  # a count's boundary band: |d - t| within it is flagged


class ResolutionError(ValueError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class CountFunction:
    """t -> number of bad points within hyperbolic distance t of the center.

    At every node of t, set once here: vols, the ball volume; ratio,
    count/vol; running, the running estimate, pi/t times the trapezoidal
    integral of count/vol from the first node to t."""

    t: np.ndarray
    counts: np.ndarray
    uncertain: np.ndarray  # per-node count of boundary-ambiguous points

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        c = np.asarray(self.counts, dtype=np.int64)
        if not (len(t) and np.isfinite(t).all()):
            raise ValueError("t grid must be nonempty and finite")
        if len(t) != len(c):
            raise ValueError("grid/count length mismatch")
        if t[0] <= 0 or np.any(np.diff(t) <= 0):
            raise ValueError("t grid must be strictly increasing and positive")
        if np.any(np.diff(c) < 0):
            raise ValueError("counts must be nondecreasing in t")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "counts", c)
        object.__setattr__(
            self, "uncertain", np.asarray(self.uncertain, dtype=np.int64)
        )
        vols = np.array([ball_volume(v) for v in t])
        g = c / vols
        running_int = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
        object.__setattr__(self, "vols", vols)
        object.__setattr__(self, "ratio", g)
        object.__setattr__(self, "running", math.pi * running_int / t)


def count_in_balls(source, center, t_grid):
    """Per-radius bad-locus counts.

    source is the (points, dists) pair of orbit_ball, or an (n, covector)
    pair, whose zeros in H bad_locus_points finds on the Veronese curve
    with n coordinates.
    Boundary rule: at radius t a point at distance d is counted when
    d <= t + BOUNDARY_TOL, and flagged uncertain when |d - t| <= BOUNDARY_TOL
    (d in (t - tol, t + tol]); so a point in (t, t + tol] is counted and
    flagged uncertain.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dists = source[1]
    if isinstance(dists, Covector):
        dists = [hyp_dist(center, HPoint(z.real, z.imag)) for z in bad_locus_points(*source)]
    dists = np.sort(np.asarray(dists, dtype=float))
    counts = np.searchsorted(dists, t_grid + BOUNDARY_TOL, side="right")
    lo = np.searchsorted(dists, t_grid - BOUNDARY_TOL, side="right")
    return CountFunction(t=t_grid, counts=counts, uncertain=counts - lo)


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


def err_estimate(cf, T_max):
    """Trapezoidal time average of count/vol over [t0, T], times pi/T."""
    t = cf.t
    if t[-1] < T_max - 1e-9:
        raise ResolutionError(f"grid ends at {t[-1]:g} before T_max={T_max:g}")
    n = int(np.searchsorted(t, T_max + 1e-12, side="right"))  # nodes <= T_max
    if n < MIN_NODES:
        raise ResolutionError(f"only {n} grid nodes below T_max; need {MIN_NODES}")
    tt = t[:n]
    vols, running = cf.vols[:n], cf.running[:n]
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
    from fractions import Fraction  # only here: it imports decimal, ~2 ms and 0.45 MB

    ratio = float(Fraction(degree_ratio))
    lhs = float(np.sum(spectrum.values[:k]))
    partial = spectrum.sample_values[:, :k].sum(axis=1)
    se = float(partial.std(ddof=1) / math.sqrt(len(partial)))
    rhs = ratio + err.value
    disc = lhs - rhs
    if se > 0:
        sigma = abs(disc) / se
    else:
        sigma = 0.0 if disc == 0 else math.inf
    return SumRuleReport(lhs=lhs, rhs=rhs, discrepancy=disc, stderr=se,
                         sigma_units=float(sigma))


def count_csv(cf, est):
    """CSV rows t,count,count_over_vol,running_err plus a comment summary."""
    lines = ["t,count,count_over_vol,running_err"]
    for t, c, gi, r in zip(cf.t.tolist(), cf.counts.tolist(), cf.ratio.tolist(),
                           cf.running.tolist()):
        lines.append(f"{t:.12g},{c},{gi:.12g},{r:.12g}")
    tails = " ".join(f"tail_{tp:g}={tv:.12g}" for tp, tv in est.tail_estimates)
    lines.append(
        f"# err={est.value:.12g} {tails} converged={int(est.converged_flag)} "
        f"unaveraged={est.unaveraged:.12g} uncertainty={est.uncertainty:.12g}"
    )
    return "\n".join(lines) + "\n"
