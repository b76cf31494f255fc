"""Upper half-plane geometry: points, isometries, geodesics, flow, balls.

Everything here is in curvature -1 units (metric |dz|/y).  Geodesics are
kept in closed form (vertical lines or Euclidean semicircles centered on
the real axis), parametrized by arc length, so long flows accumulate no
time-stepping error.  Conversion to the curvature -4 reporting convention
happens elsewhere, at the spectrum-reporting edge.

All types are immutable values and all operations are pure, so everything
can be shared freely across workers.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

# membership / degeneracy predicates
MEMBERSHIP_TOL = 1e-12


class NumericDegeneracyError(ArithmeticError):
    """A Mobius image or geodesic computation left the model (y <= eps)."""


@dataclass(frozen=True)
class HPoint:
    """Point x + iy of the upper half-plane, y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite coordinates")
        if self.y <= 0.0:
            raise ValueError(f"point not in upper half-plane: y={self.y}")

    @property
    def z(self):
        return complex(self.x, self.y)


@dataclass(frozen=True)
class UnitTangent:
    """Unit tangent vector: base point plus direction angle in [0, 2pi).

    The angle is the Euclidean argument of the tangent direction in the
    chart; hyperbolic and Euclidean angles agree (the metric is conformal).
    """

    base: HPoint
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * math.pi))


def _normalize_sl2(mat):
    m = np.asarray(mat)
    if m.shape != (2, 2):
        raise ValueError("Mobius needs a 2x2 matrix")
    if not np.iscomplexobj(m):
        m = m.astype(float)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-100:
        raise NumericDegeneracyError("singular matrix")
    if not np.iscomplexobj(m) and det.real < 0:
        raise ValueError("negative determinant: orientation-reversing")
    m = m / np.sqrt(complex(det)) if np.iscomplexobj(m) else m / math.sqrt(det)
    m = np.real_if_close(m, tol=1)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Mobius:
    """Element of PSL(2, R) (or PSL(2, C)) acting on the half-plane.

    Stored as a unit-determinant matrix; the determinant is re-scaled to 1
    after every composition to suppress drift.
    """

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _normalize_sl2(self.mat))

    @staticmethod
    def identity():
        return Mobius(np.eye(2))

    def __matmul__(self, other):
        return Mobius(self.mat @ other.mat)

    def inv(self):
        a, b, c, d = self.mat.ravel()
        return Mobius(np.array([[d, -b], [-c, a]]))

    def apply_complex(self, z):
        a, b, c, d = self.mat.ravel()
        den = c * z + d
        if abs(den) < 1e-150:
            raise NumericDegeneracyError("Mobius image at infinity")
        return (a * z + b) / den

    def apply(self, p):
        w = self.apply_complex(p.z)
        if w.imag <= MEMBERSHIP_TOL * max(1.0, abs(w)):
            raise NumericDegeneracyError("image degenerated to the boundary")
        return HPoint(w.real, w.imag)

    def deriv_arg(self, z):
        """arg of the derivative 1/(cz+d)^2 at z; rotates tangent angles."""
        a, b, c, d = self.mat.ravel()
        return -2.0 * cmath.phase(c * z + d)

    def apply_tangent(self, ut):
        return UnitTangent(self.apply(ut.base), ut.angle + self.deriv_arg(ut.base.z))

    @staticmethod
    def to_point(p):
        """The upper-triangular map sending i to p (derivative real positive)."""
        s = math.sqrt(p.y)
        return Mobius(np.array([[s, p.x / s], [0.0, 1.0 / s]]))

    @staticmethod
    def rotation_at_i(theta):
        """Rotation of tangent vectors at i by +theta (counterclockwise)."""
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return Mobius(np.array([[c, s], [-s, c]]))

    @staticmethod
    def rotation_about(p, theta):
        m = Mobius.to_point(p)
        return m @ Mobius.rotation_at_i(theta) @ m.inv()

    @staticmethod
    def align(p, angle):
        """Isometry taking (i, direction pi/2) to (p, direction angle)."""
        return Mobius.to_point(p) @ Mobius.rotation_at_i(angle - math.pi / 2.0)

    @staticmethod
    def segment_map(p, q, s, r):
        """The unique orientation-preserving isometry with p -> s, q -> r.

        Requires d(p,q) = d(s,r); used to realize polygon side pairings.
        """
        dpq, dsr = hyp_dist(p, q), hyp_dist(s, r)
        if abs(dpq - dsr) > 1e-9 * max(1.0, dpq):
            raise ValueError("segment lengths differ; no isometry exists")
        a = Mobius.align(p, direction_to(p, q))
        b = Mobius.align(s, direction_to(s, r))
        return b @ a.inv()


def hyp_dist(p, q):
    """Hyperbolic distance, d = arccosh(1 + |p-q|^2 / (2 y_p y_q))."""
    dx = p.x - q.x
    dy = p.y - q.y
    t = 1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y)
    return math.acosh(t) if t > 1.0 else 0.0


def ball_volume(t):
    """Hyperbolic area of a radius-t disk: 4 pi sinh^2(t/2).

    Returns inf once the area exceeds the float range (t ~ 1400), which is
    the correct limit for count/volume ratios.
    """
    if t < 0:
        raise ValueError("negative radius")
    try:
        return 4.0 * math.pi * math.sinh(t / 2.0) ** 2
    except OverflowError:
        return math.inf


def ball_euclidean(center, t):
    """Euclidean (center, radius) of the hyperbolic disk D_t(center)."""
    return complex(center.x, center.y * math.cosh(t)), center.y * math.sinh(t)


@dataclass(frozen=True)
class BallSpec:
    """Hyperbolic disk D_t(center), radius in curvature -1 arc length."""

    center: HPoint
    radius_t: float

    def __post_init__(self):
        if self.radius_t < 0:
            raise ValueError("ball radius must be nonnegative")


def direction_to(p, q):
    """Initial angle of the geodesic from p to q."""
    if abs(p.x - q.x) < 1e-14 * max(1.0, abs(p.x)):
        return math.pi / 2.0 if q.y > p.y else -math.pi / 2.0
    c = (abs(q.z) ** 2 - abs(p.z) ** 2) / (2.0 * (q.x - p.x))
    phi_p = math.atan2(p.y, p.x - c)
    phi_q = math.atan2(q.y, q.x - c)
    return phi_p + math.copysign(math.pi / 2.0, phi_q - phi_p)


# Geodesic carriers.  A carrier is a tuple:
#   ('v', x0, u0, s)        vertical line x = x0, point at arclength t is
#                           x0 + i*exp(u0 + s*t)
#   ('c', c, r, u0, s)      semicircle |z - c| = r; with u = log tan(phi/2)
#                           the point at arclength t has phi = 2*atan(e^u),
#                           u = u0 + s*t.  u is arclength along the carrier.
_VERTICAL_COS = 1e-13


def _carrier_from_tangent(x, y, theta):
    ct = math.cos(theta)
    if abs(ct) < _VERTICAL_COS:
        s = 1.0 if math.sin(theta) > 0 else -1.0
        return ("v", x, math.log(y), s)
    c = x + y * math.tan(theta)
    r = y / abs(ct)
    phi = math.atan2(y, x - c)
    u0 = math.log(math.tan(phi / 2.0))
    # increasing phi moves with tangent angle phi + pi/2
    s = 1.0 if math.cos(theta - phi - math.pi / 2.0) > 0 else -1.0
    return ("c", c, r, u0, s)


def _carrier_point(car, t):
    if car[0] == "v":
        _, x0, u0, s = car
        return x0, math.exp(u0 + s * t)
    _, c, r, u0, s = car
    phi = 2.0 * math.atan(math.exp(u0 + s * t))
    return c + r * math.cos(phi), r * math.sin(phi)


def _carrier_angle(car, t):
    if car[0] == "v":
        return math.pi / 2.0 if car[3] > 0 else -math.pi / 2.0
    _, c, r, u0, s = car
    phi = 2.0 * math.atan(math.exp(u0 + s * t))
    return phi + s * math.pi / 2.0


def _carrier_param(car, x, y):
    """Arclength parameter of a point assumed to lie on the carrier."""
    if car[0] == "v":
        _, x0, u0, s = car
        return s * (math.log(y) - u0)
    _, c, r, u0, s = car
    phi = math.atan2(y, x - c)
    return s * (math.log(math.tan(phi / 2.0)) - u0)


@dataclass(frozen=True)
class GeodesicArc:
    """Oriented geodesic segment, unit-speed in curvature -1.

    `carrier` is the closed-form description above; the arc covers
    parameters [0, length].
    """

    carrier: tuple
    length: float

    @staticmethod
    def segment(p, q):
        car = _carrier_from_tangent(p.x, p.y, direction_to(p, q))
        return GeodesicArc(car, hyp_dist(p, q))

    def point_at(self, t):
        x, y = _carrier_point(self.carrier, t)
        return HPoint(x, y)

    @property
    def start(self):
        return self.point_at(0.0)

    @property
    def end(self):
        return self.point_at(self.length)


_COINCIDE_TOL = 1e-8  # carriers closer than this are one geodesic numerically


def _carrier_intersections(car1, car2):
    """(x, y) intersection candidates of two carriers, y > 0; [] or [pt].

    Returns None when the carriers coincide within tolerance (the ray runs
    along the geodesic: a tangency the caller must perturb away).  The
    tolerance is generous because a ray mapped through a vertex rotation
    can land on a side's geodesic up to accumulated rounding, and the
    intersection formula below degenerates there.
    """
    k1, k2 = car1[0], car2[0]
    if k1 == "v" and k2 == "v":
        if abs(car1[1] - car2[1]) < _COINCIDE_TOL * max(1.0, abs(car1[1])):
            return None
        return []
    if k1 == "v" or k2 == "v":
        vx = car1[1] if k1 == "v" else car2[1]
        _, c, r = (car2[:3] if k1 == "v" else car1[:3])
        disc = r * r - (vx - c) ** 2
        if disc <= 1e-24 * r * r:
            return []
        return [(vx, math.sqrt(disc))]
    _, c1, r1, _, _ = car1
    _, c2, r2, _, _ = car2
    scale = max(1.0, r1, r2, abs(c1), abs(c2))
    if abs(c1 - c2) < _COINCIDE_TOL * scale:
        if abs(r1 - r2) < _COINCIDE_TOL * scale:
            return None
        return []
    x = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1))
    disc = r1 * r1 - (x - c1) ** 2
    if disc <= 1e-24 * r1 * r1:
        return []
    return [(x, math.sqrt(disc))]


def geodesic_flow(ut, t):
    """Unit-speed geodesic flow g_t on the unit tangent bundle."""
    if not math.isfinite(t):
        raise ValueError("non-finite flow time")
    if t == 0.0:
        return ut
    if t < 0.0:
        flipped = UnitTangent(ut.base, ut.angle + math.pi)
        out = geodesic_flow(flipped, -t)
        return UnitTangent(out.base, out.angle + math.pi)
    car = _carrier_from_tangent(ut.base.x, ut.base.y, ut.angle)
    x, y = _carrier_point(car, t)
    return UnitTangent(HPoint(x, y), _carrier_angle(car, t))


def side_clearance(carrier, x, y):
    """sinh of the signed distance from (x, y) to the carrier geodesic.

    Sign convention: positive on the side of larger x for vertical lines
    and outside the semicircle for circles; callers orient it per polygon.
    """
    if carrier[0] == "v":
        return (x - carrier[1]) / y
    _, c, r = carrier[:3]
    return ((x - c) ** 2 + y * y - r * r) / (2.0 * r * y)
