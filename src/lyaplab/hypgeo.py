"""Upper half-plane geometry: points, real Mobius maps, geodesics, flow.

Everything here is in curvature -1 units (metric |dz|/y).  A geodesic is
the image of the imaginary axis t -> i e^t under the isometry that aligns
it with a unit tangent, so the flow is one Mobius map evaluated in closed
form and long flows accumulate no time-stepping error.  Conversion to the
curvature -4 reporting convention happens elsewhere, at the
spectrum-reporting edge.

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
    m = np.asarray(mat, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("Mobius needs a 2x2 matrix")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-100:
        raise NumericDegeneracyError("singular matrix")
    if det < 0:
        raise ValueError("negative determinant: orientation-reversing")
    m = m / math.sqrt(det)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Mobius:
    """Element of PSL(2, R) acting on the half-plane.

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
    """Hyperbolic distance, d = 2 arcsinh(|p-q| / (2 sqrt(y_p y_q))).

    Equal to arccosh(1 + |p-q|^2 / (2 y_p y_q)), but keeps full relative
    precision for nearby points, where 1 + eps cancels in the arccosh form.
    """
    dx = p.x - q.x
    dy = p.y - q.y
    return 2.0 * math.asinh(math.sqrt((dx * dx + dy * dy) / (4.0 * p.y * q.y)))


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


def direction_to(p, q):
    """Initial angle of the geodesic from p to q.

    Its tangent at p is the radius p - c of its carrier (centre c on the
    real axis) turned by -pi/2.  Scaled by 2 dx, dx = x_q - x_p, whose sign
    picks the way toward q, that is (2 y_p dx, dx^2 + y_q^2 - y_p^2), which
    also holds on a vertical carrier (dx = 0).
    """
    dx = q.x - p.x
    return math.atan2(dx * dx + (q.y - p.y) * (q.y + p.y), 2.0 * p.y * dx)


def geodesic_flow(ut, t):
    """Unit-speed geodesic flow g_t on the unit tangent bundle.

    Every geodesic is an isometric image of the imaginary axis: g_t(ut) is
    the image of (i e^t, pi/2) under [[a, b], [c, d]] =
    Mobius.align(ut.base, ut.angle), whose derivative 1/(cz + d)^2 at z
    turns the direction by -2 arg(cz + d).
    """
    if not math.isfinite(t):
        raise ValueError("non-finite flow time")
    if t == 0.0:
        return ut
    m = Mobius.align(ut.base, ut.angle)
    z = 1j * math.exp(t)
    w = m.apply_complex(z)
    c, d = m.mat[1]
    return UnitTangent(HPoint(float(w.real), float(w.imag)),
                       math.pi / 2.0 - 2.0 * cmath.phase(c * z + d))
