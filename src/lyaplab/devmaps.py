"""Developing maps and their bad loci.

A developing map is an equivariant holomorphic map from the half-plane to
a projective space, given by homogeneous coordinates; pairing it with a
covector u gives a holomorphic function whose zero set is the bad locus
of u.  The developing maps are the Veronese curves, named by their number
n of coordinates: z -> (C(n-1, j) z^(n-1-j))_j, the image of [z : 1]
under Sym^(n-1), equivariant for Sym^(n-1) of the uniformizing
representation; n = 2 is the identity chart on P^1.  Their pairings are
polynomials.  Rank-2 opers are integrated from u'' + phi/2 u = 0 along
paths (ode_develop); the selftest checks that integration's Wronskian.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import HPoint
# not called here; the benchmark times linrep.sym_power under this name too
from .linrep import sym_power  # noqa: F401


class StiffnessError(RuntimeError):
    """ODE step size underflowed; carries the failure location."""

    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


@dataclass(frozen=True)
class Covector:
    """Homogeneous coordinates of a hyperplane in the target space."""

    coords: tuple

    def __post_init__(self):
        c = tuple(complex(v) for v in self.coords)
        if not np.isfinite(c).all():
            raise ValueError("covector must be finite")
        if not any(abs(v) > 0 for v in c):
            raise ValueError("covector must be nonzero")
        object.__setattr__(self, "coords", c)

    def __len__(self):
        return len(self.coords)


def pairing_poly_coeffs(n, u):
    """Descending-power coefficients of z -> <u, dev(z)>, dev the Veronese
    curve with n coordinates."""
    return np.array([u.coords[j] * math.comb(n - 1, j) for j in range(n)])


# ---------------------------------------------------------------------------
# rank-2 oper ODE: u'' + phi/2 u = 0 integrated as a first-order 2x2 system
#
# frames are [[u1, u2], [u1', u2']]; columns are the two basis solutions
# fixed by the initial frame at the path's start.

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
ODE_RTOL, ODE_ATOL = 1e-10, 1e-13  # Dormand-Prince step error tolerances


def _ode_rhs(phi, z, y, dz):
    # y = frame flattened; du/dtau = dz * u', du'/dtau = dz * (-phi/2) u
    u = y[:2]
    up = y[2:]
    return np.concatenate([dz * up, dz * (-0.5 * phi(z)) * u])


def _integrate_segment(phi, frame, za, zb):
    """Dormand-Prince 4(5) from za to zb; returns the end frame."""
    dz = zb - za
    if abs(dz) == 0:
        return frame
    y = frame.reshape(-1).astype(complex)
    tau = 0.0
    h = 0.1
    min_h = 1e-12
    while tau < 1.0 - 1e-15:
        # step bounded by a quarter of the distance to the vertex ahead
        # (floored so the approach terminates)
        h = min(h, max((1.0 - tau) / 4.0, 1e-3), 1.0 - tau)
        with np.errstate(over="ignore", invalid="ignore"):
            ks = []
            for stage in range(6):
                yt = y.copy()
                for j, aij in enumerate(_DP_A[stage]):
                    yt += h * aij * ks[j]
                ks.append(_ode_rhs(phi, za + (tau + _DP_C[stage] * h) * dz, yt, dz))
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
            k7 = _ode_rhs(phi, za + (tau + h) * dz, y5, dz)
            y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks + [k7]))
        if not np.all(np.isfinite(y5.view(float))):
            h *= 0.2
            if h < min_h:
                raise StiffnessError("step size underflow", location=za + tau * dz)
            continue
        scale = ODE_ATOL + ODE_RTOL * max(np.abs(y5).max(), np.abs(y).max())
        err = np.abs(y5 - y4).max() / scale
        if err <= 1.0:
            tau += h
            y = y5
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-30) ** -0.2))
        else:
            h *= max(0.2, 0.9 * err**-0.2)
        if h < min_h:
            raise StiffnessError("step size underflow", location=za + tau * dz)
    return y.reshape(2, 2)


@dataclass(frozen=True)
class OdePathResult:
    frames: tuple       # frame at every path vertex
    dev_points: tuple   # homogeneous [u1 : u2] at every path vertex
    wronskian_drift: float


def ode_develop(phi, init, path):
    """Integrate the oper ODE along a polyline of points in H.

    init is the frame [[u1, u2], [u1', u2']] at path[0] selecting the basis
    of solutions; dev values are the top row as P^1 points.  The Wronskian
    det(frame) is conserved (trace-free system); its relative drift is
    reported and should sit at integration tolerance.
    """
    pts = [complex(p.z) if isinstance(p, HPoint) else complex(p) for p in path]
    if len(pts) < 1:
        raise ValueError("empty path")
    frame = np.asarray(init, dtype=complex)
    if frame.shape != (2, 2):
        raise ValueError("init frame must be 2x2")
    w0 = np.linalg.det(frame)
    frames = [frame]
    for za, zb in zip(pts[:-1], pts[1:]):
        frame = _integrate_segment(phi, frame, za, zb)
        frames.append(frame)
    drift = max(
        abs(np.linalg.det(f) - w0) / max(1e-300, abs(w0)) for f in frames
    )
    return OdePathResult(
        frames=tuple(frames),
        dev_points=tuple(f[0].copy() for f in frames),
        wronskian_drift=float(drift),
    )


def oper_identity_init(z0):
    """Initial frame selecting the solutions (z, 1) of u'' = 0 at z0."""
    z0 = complex(z0.z) if isinstance(z0, HPoint) else complex(z0)
    return np.array([[z0, 1.0], [1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# zero counting


def _zeros(coeffs):
    """The distinct zeros of the polynomial with descending coefficients coeffs.

    np.roots splits an m-fold zero r of p = (z - r)^m q into m roots about
    (eps K / |q(r)|)^(1/m) from r, with K = sum_k |a_k| |r|^k.  So roots are
    grouped, nearest pairs first, while a group's radius rho about its
    centroid c has rho^m |q(c)| <= 256 eps K and no other root within rho.
    Each group is one zero, placed at its centroid, which is accurate to
    rounding.  A group so far out that K overflows is not merged.
    """
    roots = np.roots(coeffs)
    label = np.arange(len(roots))
    pairs = itertools.combinations(range(len(roots)), 2)
    for i, j in sorted(pairs, key=lambda p: abs(roots[p[0]] - roots[p[1]])):
        merged = np.where(label == label[j], label[i], label)
        inside = merged == label[i]
        c = roots[inside].mean()
        rho, others = np.abs(roots[inside] - c).max(), np.abs(roots[~inside] - c)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not merged
            spread = rho ** inside.sum() * abs(coeffs[0]) * others.prod()
            noise = 256 * np.finfo(float).eps * np.polyval(np.abs(coeffs), abs(c))
        if (others > rho).all() and spread <= noise < np.inf:
            label = merged
    return [complex(roots[label == g].mean()) for g in sorted(set(label.tolist()))]


# widest span, in decades, of a pairing's nonzero coefficients whose zeros
# np.roots resolves: against mpmath, over 2,400 random covectors (n = 3..7),
# zeros within 10 decades were right to 5.4e-11 (relative), under the 1e-10
# cut that places a zero in H; from 10 to 12 decades errors reached 9.5e-10,
# and at 13.5 a real zero was counted in H
ROOTS_DECADES = 10


def bad_locus_points(n, u):
    """Zeros of <u, dev(.)> in H, without multiplicity, for the Veronese
    curve dev with n coordinates, whose pairing is a polynomial.  Every
    zero is returned; the counter places each one against its radii and
    boundary band.  A pairing whose coefficients span more than
    ROOTS_DECADES is refused (ValueError), before np.roots divides by its
    leading one.
    """
    logs = [math.log10(math.comb(n - 1, j)) + math.log10(max(abs(c.real), abs(c.imag)))
            for j, c in enumerate(u.coords) if c]
    if max(logs) - min(logs) > ROOTS_DECADES:
        raise ValueError(f"the pairing's coefficients span {max(logs) - min(logs):.0f} decades, "
                         f"more than the {ROOTS_DECADES} over which np.roots resolves its zeros")
    # the pairing is homogeneous in u, and a power-of-two scale is exact:
    # it keeps the binomial products finite and their leading digits normal
    e = math.frexp(max(abs(v) for c in u.coords for v in (c.real, c.imag)))[1]
    u = Covector(tuple(complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in u.coords))
    coeffs = np.trim_zeros(pairing_poly_coeffs(n, u), "f")
    zeros = _zeros(coeffs) if len(coeffs) > 1 else ()
    return [z for z in zeros if z.imag > 1e-10 * max(1.0, abs(z.real))]
