"""Developing-map oracles and bad-locus counting.

A developing map is an equivariant holomorphic map from the half-plane to
a projective space, given by homogeneous coordinates; pairing it with a
covector u gives a holomorphic function whose zero set is the bad locus
of u.  Built-ins: the identity chart on P^1 (uniformizing case) and the
Veronese curve of symmetric powers.  Rank-2 opers come from integrating
u'' + phi/2 u = 0 along paths; their zeros are counted by adaptive
boundary-winding subdivision.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import HPoint, ball_euclidean, hyp_dist
from .linrep import sym_power


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
    """evaluator: complex z in H -> homogeneous coordinate vector."""

    evaluator: object
    kind: str  # 'identity' | 'veronese' | 'ode'
    dim: int   # number of homogeneous coordinates
    equivariance_rep: object = None

    def __call__(self, z):
        return self.evaluator(complex(z))


def identity_dev(rep2):
    """Uniformizing developing map z -> [z : 1] on P^1."""
    return DevelopingMap(
        evaluator=lambda z: np.array([z, 1.0], dtype=complex),
        kind="identity",
        dim=2,
        equivariance_rep=rep2,
    )


def veronese_dev(n, rep2=None):
    """Rational normal curve of degree n-1 in the Sym^(n-1) monomial basis.

    Coordinates are binomially weighted so the curve is exactly the image
    of [z : 1] under the symmetric power: with e1 > e2 monomial order,
    (z e1 + e2)^(n-1) has coordinates C(n-1,j) z^(n-1-j).  For n = 2 this
    reduces to the identity chart.
    """
    if n < 2:
        raise ValueError("veronese needs n >= 2")
    weights = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    powers = np.arange(n - 1, -1, -1)

    def ev(z):
        return weights * np.power(complex(z), powers)

    eq_rep = sym_power(rep2, n - 1) if rep2 is not None else None
    return DevelopingMap(evaluator=ev, kind="veronese", dim=n,
                         equivariance_rep=eq_rep)


def pairing_poly_coeffs(dev, u):
    """Descending-power coefficients of z -> <u, dev(z)> for closed forms."""
    ua = u.array()
    if dev.kind == "identity":
        return np.array([ua[0], ua[1]])
    if dev.kind == "veronese":
        n = dev.dim
        return np.array([ua[j] * math.comb(n - 1, j) for j in range(n)])
    raise ValueError(f"no closed-form pairing for kind {dev.kind!r}")


def projective_sine(v, w):
    """sin of the angle between homogeneous vectors (0 iff same point).

    Computed as the relative norm of w minus its projection onto v, which
    keeps full precision near zero (no sqrt(1 - cos^2) cancellation).
    """
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0 or nw == 0:
        return 1.0
    r = w - v * (np.vdot(v, w) / (nv * nv))
    return min(1.0, np.linalg.norm(r) / nw)


def equivariance_residual(dev, mobius_list, samples=100, seed=0):
    """max projective distance between s(g z) and rho(g) s(z) over samples."""
    rep = dev.equivariance_rep
    if rep is None:
        raise ValueError("developing map carries no equivariance data")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        gi = int(rng.integers(0, len(mobius_list)))
        g = mobius_list[gi]
        gz = g.apply_complex(z)
        lhs = dev(gz)
        rhs = rep.generators[gi] @ dev(z)
        worst = max(worst, projective_sine(lhs, rhs))
    return worst


def phi_equivariance_residual(phi, mobius_list, samples=60, seed=0):
    """Spot check of the quadratic-differential contract
    phi(g z) g'(z)^2 = phi(z); returns the worst relative residual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        g = mobius_list[int(rng.integers(0, len(mobius_list)))]
        a, b, c, d = g.mat.ravel()
        dg = 1.0 / (c * z + d) ** 2
        lhs = phi(g.apply_complex(z)) * dg * dg
        rhs = phi(z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


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


def _ode_rhs(phi, z, y, dz):
    # y = frame flattened; du/dtau = dz * u', du'/dtau = dz * (-phi/2) u
    u = y[:2]
    up = y[2:]
    return np.concatenate([dz * up, dz * (-0.5 * phi(z)) * u])


def _integrate_outputs(phi, frame, za, zb, taus, rtol=1e-10, atol=1e-13):
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
        scale = atol + rtol * max(np.abs(y5).max(), np.abs(y).max())
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


def _integrate_segment(phi, frame, za, zb, rtol=1e-10, atol=1e-13):
    """Dormand-Prince 4(5) from za to zb; returns the end frame."""
    _, end = _integrate_outputs(phi, frame, za, zb, (), rtol=rtol, atol=atol)
    return end


@dataclass(frozen=True)
class OdePathResult:
    frames: tuple       # frame at every path vertex
    dev_points: tuple   # homogeneous [u1 : u2] at every path vertex
    wronskian_drift: float


def ode_develop(phi, init, path, rtol=1e-10):
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
        frame = _integrate_segment(phi, frame, za, zb, rtol=rtol)
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


def loop_monodromy(phi, init, loop, rtol=1e-10):
    """Frame transfer around a closed polyline: end_frame @ init^{-1}."""
    res = ode_develop(phi, init, list(loop) + [loop[0]], rtol=rtol)
    return res.frames[-1] @ np.linalg.inv(res.frames[0])


class OdeDevelopingMap:
    """Developing map backed by ODE integration from an anchor point.

    Values at arbitrary points integrate along the straight segment from
    the anchor (path independence on the simply connected half-plane);
    segment_values integrates once along a segment and reports the dev
    pairing at many parameters, which is what winding counting needs.
    """

    def __init__(self, phi, init, anchor, rtol=1e-10):
        self.phi = phi
        self.anchor = complex(anchor.z) if isinstance(anchor, HPoint) else complex(anchor)
        self.init = np.asarray(init, dtype=complex)
        self.rtol = rtol
        self._frame_cache = {self._key(self.anchor): self.init}

    @staticmethod
    def _key(z):
        return (round(z.real, 13), round(z.imag, 13))

    def as_developing_map(self, equivariance_rep=None):
        return DevelopingMap(
            evaluator=lambda z: self.frame_at(z)[0].copy(),
            kind="ode",
            dim=2,
            equivariance_rep=equivariance_rep,
        )

    def frame_at(self, z):
        z = complex(z)
        key = self._key(z)
        cached = self._frame_cache.get(key)
        if cached is None:
            cached = _integrate_segment(self.phi, self.init, self.anchor, z,
                                        rtol=self.rtol)
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
        frames, end = _integrate_outputs(self.phi, start, za, zb, inner,
                                         rtol=self.rtol)
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

    def pairing_fn(self, u):
        return lambda za, zb, taus: self.segment_pairings(u, za, zb, taus)

    def bad_locus_count(self, u, ball, boundary_tol=1e-9, resolution=1e-9):
        dev = self.as_developing_map()
        return bad_locus_count(dev, u, ball, boundary_tol, resolution,
                               pair_fn=self.pairing_fn(u))

    def bad_locus_points(self, u, ball, resolution=1e-9):
        dev = self.as_developing_map()
        return bad_locus_points(dev, u, ball, resolution,
                                pair_fn=self.pairing_fn(u))


# ---------------------------------------------------------------------------
# zero counting


@dataclass(frozen=True)
class LocusCount:
    """Zeros in the closed ball, counted without multiplicity.

    boundary_uncertain is the number of zeros within tolerance of the ball
    boundary (the count is reliable to +- that band).
    """

    count: int
    boundary_uncertain: int
    points: tuple


def _closed_form_zeros(dev, u):
    coeffs = np.trim_zeros(pairing_poly_coeffs(dev, u), "f")
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs)
    zeros = [z for z in roots if z.imag > 1e-10 * max(1.0, abs(z.real))]
    return _dedupe_points(zeros)


def _dedupe_points(pts, tol=1e-7):
    out = []
    for z in pts:
        if all(abs(z - w) > tol * max(1.0, abs(z)) for w in out):
            out.append(complex(z))
    return out


def _edge_winding(pair_fn, za, zb, max_doublings=12):
    """Total phase increment of the pairing along one edge.

    Refines until consecutive phase steps are < pi/2; returns (total phase,
    min |f| seen / max |f| seen) so the caller can detect boundary zeros.
    """
    ns = 17
    for _ in range(max_doublings):
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


def _rect_winding(pair_fn, lo, hi):
    corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        w, _ = _edge_winding(pair_fn, a, b)
        if w is None:
            return None
        total += w
    return int(round(total / (2.0 * math.pi)))


def _winding_zeros(pair_fn, lo, hi, restol, depth=0, jiggle=0):
    """Recursive dyadic subdivision; returns representative zero locations."""
    if depth > 60:
        raise CountingError("subdivision depth exceeded")
    w = _rect_winding(pair_fn, lo, hi)
    if w is None:
        if jiggle >= 4:
            raise CountingError("zero pinned to a cell boundary")
        pad = (hi - lo) * (0.013 * (jiggle + 1))
        return _winding_zeros(pair_fn, lo - pad, hi + pad, restol,
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
        out.extend(_winding_zeros(pair_fn, a, b, restol, depth + 1))
    return out


def bad_locus_points(dev, u, ball, resolution=1e-9, pair_fn=None):
    """Zeros of <u, dev(.)> in the closed ball, without multiplicity.

    A hair of slack (1e-6 in radius) is kept so boundary grazers survive
    to the counting stage, which classifies them into the uncertainty band.
    """
    if dev.kind in ("identity", "veronese"):
        zeros = _closed_form_zeros(dev, u)
    elif dev.kind == "ode" or pair_fn is not None:
        if pair_fn is None:
            raise ValueError("ode counting needs the OdeDevelopingMap pairing")
        ec, er = ball_euclidean(ball.center, ball.radius_t)
        lo = ec - er * (1 + 1e-9) - 1j * er * (1 + 1e-9)
        hi = ec + er * (1 + 1e-9) + 1j * er * (1 + 1e-9)
        lo = complex(lo.real, max(lo.imag, 1e-12))
        zeros = _dedupe_points(
            _winding_zeros(pair_fn, lo, hi, restol=resolution * max(1.0, er))
        )
    else:
        raise ValueError(f"kind {dev.kind!r} does not support counting")
    out = []
    for z in zeros:
        if z.imag <= 0:
            continue
        if hyp_dist(ball.center, HPoint(z.real, z.imag)) <= ball.radius_t + 1e-6:
            out.append(z)
    return out


def bad_locus_count(dev, u, ball, boundary_tol=1e-9, resolution=1e-9,
                    pair_fn=None):
    """Number of bad-locus points in the closed ball (no multiplicity)."""
    zeros = bad_locus_points(dev, u, ball, resolution, pair_fn)
    count = 0
    uncertain = 0
    inside = []
    for z in zeros:
        d = hyp_dist(ball.center, HPoint(z.real, z.imag))
        if abs(d - ball.radius_t) <= boundary_tol:
            uncertain += 1
            count += 1 if d <= ball.radius_t else 0
            inside.append(z)
        elif d < ball.radius_t:
            count += 1
            inside.append(z)
    return LocusCount(count=count, boundary_uncertain=uncertain,
                      points=tuple(inside))
