"""Developing-map oracles and bad-locus counting.

A developing map is an equivariant holomorphic map from the half-plane to
a projective space, given by homogeneous coordinates; pairing it with a
covector u gives a holomorphic function whose zero set is the bad locus
of u.  Built-in: the Veronese curves of symmetric powers, whose pairings
are polynomials; the identity chart on P^1 (uniformizing case) is the one
with two coordinates.  Rank-2 opers come from integrating u'' + phi/2 u = 0
along paths; their zeros are counted by adaptive boundary-winding
subdivision.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import HPoint, ball_euclidean, hyp_dist
# not called here; the benchmark times linrep.sym_power under this name too
from .linrep import sym_power  # noqa: F401


class StiffnessError(RuntimeError):
    """ODE step size underflowed; carries the failure location."""

    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


class CountingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Covector:
    """Homogeneous coordinates of a hyperplane in the target space."""

    coords: tuple

    def __post_init__(self):
        c = tuple(complex(v) for v in self.coords)
        if not any(abs(v) > 0 for v in c):
            raise ValueError("covector must be nonzero")
        object.__setattr__(self, "coords", c)

    def array(self):
        return np.asarray(self.coords, dtype=complex)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class DevelopingMap:
    """Rational normal curve of degree dim-1 in the Sym^(dim-1) monomial basis.

    Coordinates are binomially weighted so the curve is exactly the image
    of [z : 1] under the symmetric power: with e1 > e2 monomial order,
    (z e1 + e2)^(dim-1) has coordinates C(dim-1,j) z^(dim-1-j).  For dim = 2
    this is the identity chart.  The curve is equivariant for Sym^(dim-1)
    of the uniformizing representation.
    """

    dim: int  # number of homogeneous coordinates

    def __call__(self, z):
        n = self.dim
        weights = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
        return weights * np.power(complex(z), np.arange(n - 1, -1, -1))


def veronese_dev(n):
    """The Veronese curve with n coordinates."""
    if n < 2:
        raise ValueError("veronese needs n >= 2")
    return DevelopingMap(n)


def pairing_poly_coeffs(dev, u):
    """Descending-power coefficients of the polynomial z -> <u, dev(z)>."""
    ua, n = u.array(), dev.dim
    return np.array([ua[j] * math.comb(n - 1, j) for j in range(n)])


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


def _integrate_outputs(phi, frame, za, zb, taus):
    """Dormand-Prince 4(5) from za to zb, recording frames at the given
    sorted tau targets in (0, 1]; returns (list of frames, end frame)."""
    dz = zb - za
    y = frame.reshape(-1).astype(complex)
    outputs = []
    if abs(dz) == 0:
        return [y.reshape(2, 2).copy() for _ in taus], frame
    tau = 0.0
    h = 0.1
    min_h = 1e-12
    ti = 0
    while tau < 1.0 - 1e-15:
        # step bounded by a quarter of the distance to the vertex ahead
        # (floored so the approach terminates) and by the next output point
        cap = max((1.0 - tau) / 4.0, 1e-3)
        h = min(h, cap, 1.0 - tau)
        if ti < len(taus):
            h = min(h, max(taus[ti] - tau, 1e-15))
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
            while ti < len(taus) and tau >= taus[ti] - 1e-14:
                outputs.append(y.reshape(2, 2).copy())
                ti += 1
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-30) ** -0.2))
        else:
            h *= max(0.2, 0.9 * err**-0.2)
        if h < min_h:
            raise StiffnessError("step size underflow", location=za + tau * dz)
    while ti < len(taus):
        outputs.append(y.reshape(2, 2).copy())
        ti += 1
    return outputs, y.reshape(2, 2)


def _integrate_segment(phi, frame, za, zb):
    """Dormand-Prince 4(5) from za to zb; returns the end frame."""
    _, end = _integrate_outputs(phi, frame, za, zb, ())
    return end


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


class OdeDevelopingMap:
    """Developing map backed by ODE integration from an anchor point.

    Values at arbitrary points integrate along the straight segment from
    the anchor (path independence on the simply connected half-plane);
    segment_values integrates once along a segment and reports the dev
    pairing at many parameters, which is what winding counting needs.
    """

    def __init__(self, phi, init, anchor):
        self.phi = phi
        self.anchor = complex(anchor.z) if isinstance(anchor, HPoint) else complex(anchor)
        self.init = np.asarray(init, dtype=complex)
        self._frame_cache = {self._key(self.anchor): self.init}

    @staticmethod
    def _key(z):
        return (round(z.real, 13), round(z.imag, 13))

    def frame_at(self, z):
        z = complex(z)
        key = self._key(z)
        cached = self._frame_cache.get(key)
        if cached is None:
            cached = _integrate_segment(self.phi, self.init, self.anchor, z)
            self._frame_cache[key] = cached
        return cached

    def segment_pairings(self, u, za, zb, taus):
        """<u, dev> at za + tau (zb - za) for sorted taus in [0, 1].

        One integration sweep along the segment with dense output at the
        taus; frames at segment ends are cached (cell corners repeat)."""
        ua = u.array()
        za, zb = complex(za), complex(zb)
        start = self.frame_at(za)
        inner = [t for t in taus if t > 1e-15]
        frames, end = _integrate_outputs(self.phi, start, za, zb, inner)
        self._frame_cache[self._key(zb)] = end
        out = []
        fi = 0
        for t in taus:
            if t <= 1e-15:
                f = start
            else:
                f = frames[fi]
                fi += 1
            out.append(ua[0] * f[0, 0] + ua[1] * f[0, 1])
        return np.asarray(out)


# ---------------------------------------------------------------------------
# zero counting


def _dedupe_points(pts):
    out = []
    for z in pts:
        if all(abs(z - w) > 1e-7 * max(1.0, abs(z)) for w in out):
            out.append(complex(z))
    return out


def _edge_winding(pair_fn, za, zb):
    """Total phase increment of the pairing along one edge.

    Refines until consecutive phase steps are < pi/2; returns (total phase,
    min |f| seen / max |f| seen) so the caller can detect boundary zeros.
    """
    ns = 17
    for _ in range(12):  # at most 2^15 + 1 samples
        taus = np.linspace(0.0, 1.0, ns)
        vals = pair_fn(za, zb, taus)
        mags = np.abs(vals)
        if mags.min() < 1e-12 * max(1.0, mags.max()):
            return None, 0.0  # zero (numerically) on the edge
        args = np.angle(vals)
        d = np.diff(args)
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if np.abs(d).max() < math.pi / 2.0:
            return float(d.sum()), float(mags.min() / max(1.0, mags.max()))
        ns = 2 * ns - 1
    raise CountingError(f"winding refinement failed on edge {za} -> {zb}")


def _rect_winding(edge_fn, lo, hi):
    corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        w = edge_fn(a, b)
        if w is None:
            return None
        total += w
    return int(round(total / (2.0 * math.pi)))


def _memo_edges(pair_fn):
    """_edge_winding's phase as edge_fn(a, b), integrated once per edge: the
    edge two neighbouring cells share is read back reversed, as -w."""
    memo = {}

    def edge_fn(a, b):
        if (b, a) in memo:
            w = memo[b, a]
            return None if w is None else -w
        if (a, b) not in memo:
            memo[a, b] = _edge_winding(pair_fn, a, b)[0]
        return memo[a, b]

    return edge_fn


def _winding_zeros(edge_fn, lo, hi, restol, depth=0, jiggle=0):
    """Recursive dyadic subdivision; returns representative zero locations."""
    if depth > 60:
        raise CountingError("subdivision depth exceeded")
    w = _rect_winding(edge_fn, lo, hi)
    if w is None:
        if jiggle >= 4:
            raise CountingError("zero pinned to a cell boundary")
        pad = (hi - lo) * (0.013 * (jiggle + 1))
        return _winding_zeros(edge_fn, lo - pad, hi + pad, restol,
                              depth, jiggle + 1)
    if w == 0:
        return []
    if abs(hi - lo) < restol or (w == 1 and abs(hi - lo) < 16 * restol):
        return [(lo + hi) / 2.0]
    dx = hi.real - lo.real
    dy = hi.imag - lo.imag
    if dx >= dy:
        mid = lo.real + dx / 2.0
        cells = [(lo, complex(mid, hi.imag)), (complex(mid, lo.imag), hi)]
    else:
        mid = lo.imag + dy / 2.0
        cells = [(lo, complex(hi.real, mid)), (complex(lo.real, mid), hi)]
    out = []
    for a, b in cells:
        out.extend(_winding_zeros(edge_fn, a, b, restol, depth + 1))
    return out


def bad_locus_points(dev, u, ball, resolution=1e-9):
    """Zeros of <u, dev(.)> in the closed ball, without multiplicity.

    An OdeDevelopingMap is counted by boundary-winding subdivision of the
    ball's Euclidean bounding box; any other map is a Veronese curve, whose
    pairing is a polynomial with closed-form roots.  A hair of slack (1e-6
    in radius) is kept so boundary grazers survive to the counting stage,
    which classifies them into the uncertainty band.
    """
    if isinstance(dev, OdeDevelopingMap):
        ec, er = ball_euclidean(ball.center, ball.radius_t)
        lo = ec - er * (1 + 1e-9) - 1j * er * (1 + 1e-9)
        hi = ec + er * (1 + 1e-9) + 1j * er * (1 + 1e-9)
        lo = complex(lo.real, max(lo.imag, 1e-12))
        zeros = _dedupe_points(_winding_zeros(
            _memo_edges(lambda za, zb, taus: dev.segment_pairings(u, za, zb, taus)),
            lo, hi, restol=resolution * max(1.0, er)))
    else:
        coeffs = np.trim_zeros(pairing_poly_coeffs(dev, u), "f")
        roots = np.roots(coeffs) if len(coeffs) > 1 else ()
        zeros = _dedupe_points([z for z in roots if z.imag > 1e-10 * max(1.0, abs(z.real))])
    out = []
    for z in zeros:
        if z.imag <= 0:
            continue
        if hyp_dist(ball.center, HPoint(z.real, z.imag)) <= ball.radius_t + 1e-6:
            out.append(z)
    return out
