"""Cocompact Fuchsian groups as geometric objects.

Triangle groups D(p,q,r) and genus-g surface groups with explicit
fundamental polygons and side pairings, the ray tracer producing the
side-crossing coding (one call per geodesic, returning arrays of crossing
times and signed generators) and pulling points back into the polygon, orbit
enumeration in balls, and quasi-Fuchsian bending deformations.  The
polygon lives on the hyperboloid model: each side is the plane of a unit
covector, which clearances, membership and the bounding box read; the
tracer reads the signs of the vertices' lifts, and each pairing is an
SO(2,1) matrix.  The build certifies the polygon as the Dirichlet domain
about its interior point, whose pairings start every orbit ball.

Domains and generator data are immutable after construction; coding and
orbit enumeration are pure functions of their inputs, so Monte-Carlo
workers can share one domain and own their codings.
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import linrep
from .hypgeo import (
    HPoint,
    Mobius,
    NumericDegeneracyError,
    UnitTangent,
    direction_to,
    geodesic_flow,
    hyp_dist,
)

Word = tuple  # signed 1-based generator indices, negative = inverse

SIDE_TOL = 1e-10      # side membership tolerance (sinh of distance)
# crossings a tracer chunk walks past its expected count (see trace_geodesic)
_CHUNK_MARGIN = 14
_CHUNK_MAX = 4096     # cap on a tracer chunk, which bounds its temporary lists


class ResourceError(RuntimeError):
    """Refusal in place of a truncated or unsettled result."""


class DegenerateBendingError(ValueError):
    """The bending curve is parabolic or its centralizer is ill-conditioned."""


@dataclass(frozen=True)
class GroupSpec:
    """Either triangle(p, q, r) or surface(genus)."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind == "triangle":
            p, q, r = self.params
            if min(p, q, r) < 2 or any(int(v) != v for v in self.params):
                raise ValueError("triangle orders must be integers >= 2")
            if 1.0 / p + 1.0 / q + 1.0 / r >= 1.0:
                raise ValueError(f"triangle({p},{q},{r}) is not hyperbolic")
        elif self.kind == "surface":
            (g,) = self.params
            if int(g) != g or g < 2:
                raise ValueError("surface genus must be an integer >= 2")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @staticmethod
    def triangle(p, q, r):
        return GroupSpec("triangle", (p, q, r))

    @staticmethod
    def surface(g):
        return GroupSpec("surface", (g,))

    def __str__(self):
        if self.kind == "triangle":
            return "triangle:%d,%d,%d" % self.params
        return "surface:%d" % self.params


def parse_group_spec(text):
    """Parse 'triangle:p,q,r' or 'surface:g'."""
    kind, _, rest = text.strip().partition(":")
    try:
        nums = tuple(int(v) for v in rest.split(",")) if rest else ()
        if kind == "triangle":
            return GroupSpec.triangle(*nums)
        if kind == "surface":
            return GroupSpec.surface(*nums)
    except TypeError as exc:
        raise ValueError(f"bad group spec {text!r}") from exc
    raise ValueError(f"bad group spec {text!r}")


@dataclass(frozen=True)
class SidePairing:
    partner: int
    mobius: Mobius
    word: Word  # single signed generator index


class FundamentalDomain:
    """Convex fundamental polygon with side pairings.

    vertices are listed counterclockwise; side k joins vertex k to k+1 and
    has hyperbolic length sides[k].length; pairings[k].mobius maps side k
    onto side pairings[k].partner setwise; area is the exact orbifold area,
    from the group signature.
    """

    def __init__(self, vertices, pairings, interior_point, area):
        self.vertices = list(vertices)
        self.area = area
        ends = zip(self.vertices, self.vertices[1:] + self.vertices[:1])
        self.sides = [SimpleNamespace(length=hyp_dist(p, q)) for p, q in ends]
        self.pairings = list(pairings)
        self.interior_point = interior_point
        # the polygon on the hyperboloid: vertex lifts and a covector per side
        self._lifts = lifts = [_lift(v.x, v.y) for v in self.vertices]
        inside, n = _lift(interior_point.x, interior_point.y), len(lifts)
        self._normals = [_unit_covector(lifts[k], lifts[(k + 1) % n], inside) for k in range(n)]
        self.inradius = math.asinh(min(self.clearances(interior_point.x, interior_point.y)))

    @functools.cached_property
    def _exits(self):
        """The tracer's tables, built at its first call.  walk[k] is the
        record its first pass reads at side k: L_k^-1 = J L_k^T J (the image
        of g_k's adjugate) by rows, k, the walk (w_i, walk[i - 1]) for
        i = j+2 .. j-1 over the partner j, and walk[j - 1].  Column k of table
        holds what its second pass reads: w_k, w_(k+1), 2 <w_k, w_(k+1)>, and
        the partner's w_(j+1), w_j; gens[k] is g_k.  rate is the expected
        number of crossings per unit time, perimeter / (pi area) (Santalo,
        Integral Geometry and Geometric Probability, 1976), which sizes the
        chunks of the walk."""
        lifts, n, walk = self._lifts, len(self._lifts), [[] for _ in self.pairings]
        table = []
        for k, p in enumerate(self.pairings):
            u, v, j = lifts[k], lifts[(k + 1) % n], p.partner
            walk[k] += [*_so21(_inverse(p.mobius.mat)).ravel().tolist(), k,
                        tuple((*lifts[(j + i) % n], walk[(j + i - 1) % n]) for i in range(2, n)),
                        walk[j - 1]]
            table.append([*u, *v, 2.0 * (u[0] * v[0] - u[1] * v[1] - u[2] * v[2]),
                          *lifts[(j + 1) % n], *lifts[j]])
        rate = sum(side.length for side in self.sides) / (math.pi * self.area)
        gens = np.array([p.word[0] for p in self.pairings], dtype=np.int64)
        return walk, np.array(table).T.copy(), gens, rate

    def clearances(self, x, y):
        """Signed sinh-distances n_k . lift(x, y) to each side carrier,
        positive inside; x and y may be numpy arrays, which broadcast."""
        p0, p1, p2 = _lift(x, y)
        return [n0 * p0 + n1 * p1 + n2 * p2 for n0, n1, n2 in self._normals]

    def contains(self, p):
        x, y = (p.x, p.y) if isinstance(p, HPoint) else (p.real, p.imag)
        return all(c >= -SIDE_TOL for c in self.clearances(x, y))

    def bounding_box(self):
        """Euclidean box (x_lo, x_hi, y_lo, y_hi) of the closed polygon.

        Along a carrier x is monotone and y peaks only at a circle's apex, so
        the box is that of the vertices, raised to the apex of each side whose
        carrier centre lies strictly between the side's end x's.  Side k's
        carrier n_k . lift(z) = 0 is the circle of centre -n2/(n0 + n1) and
        radius 1/|n0 + n1|, or a vertical line when n0 + n1 = 0.
        """
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        y_hi = max(ys)
        for k, (n0, n1, n2) in enumerate(self._normals):
            s, ends = n0 + n1, (xs[k], xs[(k + 1) % len(xs)])
            if s != 0.0 and min(ends) < -n2 / s < max(ends):
                y_hi = max(y_hi, 1.0 / abs(s))
        return min(xs), max(xs), min(ys), y_hi


def _triangle_side(alpha, beta, gamma):
    """Length of the side between the alpha- and beta-vertices."""
    return math.acosh(
        (math.cos(alpha) * math.cos(beta) + math.cos(gamma))
        / (math.sin(alpha) * math.sin(beta))
    )


def _axis_incenter(dom, y_lo, y_hi):
    """Point on the imaginary axis maximizing the minimal side clearance."""

    def worst(y):
        return min(dom.clearances(0.0, y))

    lo, hi = y_lo, y_hi
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if worst(m1) < worst(m2):
            lo = m1
        else:
            hi = m2
    return HPoint(0.0, 0.5 * (lo + hi))


def build_group(spec):
    """Construct (FundamentalDomain, generators, relations) for a group spec.

    Triangle groups: the doubled (p,q,r) triangle with rotation generators
    a, b, c about its vertices and relations a^p, b^q, c^r, abc.  Surface
    groups: the regular 4g-gon with the standard pairing and the single
    relation [a1,b1]...[ag,bg].  Words multiply left to right.
    """
    if spec.kind == "triangle":
        return _build_triangle(*spec.params)
    return _build_surface(*spec.params)


def _build_triangle(p, q, r):
    al, be, ga = math.pi / p, math.pi / q, math.pi / r
    c_ab = _triangle_side(al, be, ga)
    b_ac = _triangle_side(al, ga, be)
    A = HPoint(0.0, 1.0)
    B = HPoint(0.0, math.exp(c_ab))
    C = geodesic_flow(UnitTangent(A, math.pi / 2.0 - al), b_ac).base
    Cb = HPoint(-C.x, C.y)

    # clockwise rotations close up the clockwise-oriented triangle A, B, C
    gen_a = Mobius.rotation_about(A, -2.0 * math.pi / p)
    gen_b = Mobius.rotation_about(B, -2.0 * math.pi / q)
    gen_c = Mobius.rotation_about(C, -2.0 * math.pi / r)
    gens = [gen_a, gen_b, gen_c]
    relations = [(1,) * p, (2,) * q, (3,) * r, (1, 2, 3)]

    # quadrilateral A, C, B, Cb (counterclockwise); a maps side 3 -> side 0,
    # b maps side 1 -> side 2
    pairings = [
        SidePairing(3, gen_a.inv(), (-1,)),
        SidePairing(2, gen_b, (2,)),
        SidePairing(1, gen_b.inv(), (-2,)),
        SidePairing(0, gen_a, (1,)),
    ]
    vertices = [A, C, B, Cb]
    area = 2.0 * math.pi * (1.0 - 1.0 / p - 1.0 / q - 1.0 / r)
    probe = FundamentalDomain(vertices, pairings, HPoint(0.0, math.exp(c_ab / 2.0)), area)
    interior = _axis_incenter(probe, 1.0 + 1e-9, math.exp(c_ab) - 1e-9)
    dom = FundamentalDomain(vertices, pairings, interior, area)
    _check_build(dom, gens, relations)
    return dom, gens, relations


def _build_surface(g):
    n = 4 * g
    R = math.acosh(1.0 / math.tan(math.pi / n) ** 2)
    ctr = HPoint(0.0, 1.0)
    V = [
        geodesic_flow(UnitTangent(ctr, 2.0 * math.pi * k / n + math.pi / n), R).base
        for k in range(n)
    ]
    gens = []
    pairings = [None] * n
    for j in range(g):
        # generator pair j lives on polygon block g-1-j: the Poincare vertex
        # cycle composes the blocks in descending order, so reversing the
        # labels makes the relator the canonical ascending [a1,b1]...[ag,bg]
        base = 4 * (g - 1 - j)
        v = lambda k, b=base: V[(b + k) % n]
        # a_j maps side base+1 onto side base+3 reversed,
        # b_j maps side base+2 onto side base   reversed
        a_j = Mobius.segment_map(v(1), v(2), v(4), v(3))
        b_j = Mobius.segment_map(v(2), v(3), v(1), v(0))
        ia, ib = 2 * j + 1, 2 * j + 2
        gens.extend([a_j, b_j])
        pairings[base + 1] = SidePairing((base + 3) % n, a_j, (ia,))
        pairings[(base + 3) % n] = SidePairing(base + 1, a_j.inv(), (-ia,))
        pairings[base + 2] = SidePairing(base, b_j, (ib,))
        pairings[base] = SidePairing(base + 2, b_j.inv(), (-ib,))
    relation = ()
    for j in range(g):
        ia, ib = 2 * j + 1, 2 * j + 2
        relation += (ia, ib, -ia, -ib)
    relations = [relation]
    dom = FundamentalDomain(V, pairings, ctr, 4.0 * math.pi * (g - 1))
    _check_build(dom, gens, relations)
    return dom, gens, relations


def _check_build(dom, gens, relations):
    report = linrep.check_relations(linrep.uniformizing_rep(gens, relations))
    if not report.holds():
        raise NumericDegeneracyError(
            f"relations fail to close: relative residual {report.max_relative:.2e}")
    defect = dirichlet_defect(dom)
    if defect > 1e-9:
        raise NumericDegeneracyError(f"sides miss their Dirichlet bisectors: defect {defect:.2e}")


def dirichlet_defect(dom):
    """Largest sinh-distance of the ends of a side j from the bisector of
    the interior point c and g.c, g the pairing onto side j.  At 0 the
    polygon is the Dirichlet domain about c (Beardon 1983, 9.4) and g maps
    its partner's carrier onto side j's; rounding reads 9.4e-10 on
    surface:100 and 2.2e-9 on surface:128."""
    c, n, worst = dom.interior_point, len(dom._lifts), 0.0
    p = _lift(c.x, c.y)
    for pair in dom.pairings:
        gc = pair.mobius.apply(c)
        q = _lift(gc.x, gc.y)
        d = p[0] - q[0], q[1] - p[1], q[2] - p[2]  # the covector of p - q
        r, j = math.sqrt(d[1] ** 2 + d[2] ** 2 - d[0] ** 2), pair.partner
        worst = max(worst, *(abs(_dot(d, w)) / r for w in (dom._lifts[j], dom._lifts[(j + 1) % n])))
    return worst


def pull_back(dom, z):
    """Translate z into the closed fundamental domain.

    Returns (z', word) with z' in the closed domain and the word evaluating
    (left-to-right product of generators) to the element sending z' back to
    z.  The tracer walks the geodesic segment from the interior point to z,
    and z goes through the pairing of each side it crosses, in crossing
    order; the word is the negated coding of that segment.  A point at
    infinite distance is refused (ResourceError).
    """
    p = z if isinstance(z, HPoint) else HPoint(z.real, z.imag)
    c = dom.interior_point
    d = hyp_dist(c, p)
    if not math.isfinite(d):
        raise ResourceError(f"pull_back: {z} is at infinite distance")
    pairing = {pair.word[0]: pair.mobius for pair in dom.pairings}
    _, crossed = trace_geodesic(dom, UnitTangent(c, direction_to(c, p)), d)
    for g in crossed.tolist():
        p = pairing[g].apply(p)
    return p, tuple((-crossed).tolist())


def _lift(x, y):
    """The point x + iy on the hyperboloid X0^2 - X1^2 - X2^2 = 1: the
    coordinates of M(z) = (1/y)[[|z|^2, x], [x, 1]] = [[X0 + X1, X2], [X2, X0 - X1]];
    y = 1/(X0 - X1) and x = X2 y invert it."""
    r = x * x + y * y
    return (1.0 + r) / (2.0 * y), (r - 1.0) / (2.0 * y), x / y


def _so21(g):
    """The matrix of M -> g M g^T in those coordinates: it maps the lift of z
    to the lift of g.z and preserves the Minkowski form."""
    basis = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    cols = [g @ e @ g.T for e in basis]
    return np.array([[0.5 * (s[0, 0] + s[1, 1]), 0.5 * (s[0, 0] - s[1, 1]), s[0, 1]]
                     for s in cols]).T


def _cross(u, v):
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _unit_covector(u, v, inside):
    """The covector c (c . X is the Minkowski product with a unit spacelike
    normal) of the plane through the lifts u and v, positive at inside."""
    c = _cross(u, v)
    r = math.copysign(math.sqrt(c[1] ** 2 + c[2] ** 2 - c[0] ** 2), _dot(c, inside))
    return c[0] / r, c[1] / r, c[2] / r


def trace_geodesic(dom, ut, T):
    """(times, gens): the side crossings in (0, T] of the geodesic from ut,
    as float64 times and int64 signed generators, in crossing order.

    A vertex-sign walk.  The geodesic from P with velocity V on the
    hyperboloid is the covector l = V x P, negative at the polygon's vertices
    w_i to its right.  The polygon is convex, so the exit is the side k with
    s_k < 0 <= s_(k+1) (s_i = l . w_i), at the point
    X = (s_(k+1) w_k - s_k w_(k+1)) / sqrt(s_k^2 + s_(k+1)^2 - 2 s_k s_(k+1) <w_k, w_(k+1)>),
    2 asinh(|X - X_entry| / 2) after the entry (Minkowski <,> and norm).
    Crossing maps l to l L_k^-1; the pairing L_k carries w_k, w_(k+1) onto
    the partner's w_(j+1), w_j, whose signs and the entry's coefficients are
    inherited exactly, and the walk from w_(j+1) stops at the first vertex
    with s >= 0, w_j at the latest.  l's scale enters no sign and no X, so
    it is never renormalized; s_k < 0 keeps X finite; a vertex of angle pi
    is an ordinary one.  A geodesic through a vertex (s = 0 counts as left)
    passes the corner copies around it in crossings of length 0.  The first
    X is at asinh(-<X, V>) from P: a crossing behind P (from a start on or
    along its exit side) comes out at t = 0.  The state at crossing k is the
    flow's pushed by g_k ... g_1; the final partial segment is not coded.
    A start outside the closed polygon (at SIDE_TOL) is refused.

    No sign needs a time, so the walk runs in two passes over chunks of
    crossings.  The first, in Python, walks the signs and records k, s_k and
    s_(k+1) per crossing.  The second computes the chunk's X, entries, times
    and running time with numpy, in the scalar walk's expressions and order:
    asinh is taken per element by math.asinh, since np.arcsinh may differ
    from libm by an ulp and by CPU, and cumsum adds in sequence, so the times
    are those of a one-crossing-at-a-time walk bit for bit and do not depend
    on where the chunks end.  A chunk is the expected count of the time left,
    rate (T - t) from dom._exits, plus _CHUNK_MARGIN, at most _CHUNK_MAX; a
    chunk that falls short of T is followed by another, and the chunks'
    arrays are joined once.  A crossing walked past T costs about 0.7 us, a
    further chunk about 37 us: at the count's spread (std 14.6 of 2,093 on
    triangle:3,3,4 at T = 1000, 9.3 of 310 on surface:2 at 500) a margin of
    14 costs least.  At most 64 + 16 T / inradius crossings are walked; past
    that the trace is refused.
    """
    (walks, table, gens, rate), lifts = dom._exits, dom._lifts
    x, y, c, s = ut.base.x, ut.base.y, math.cos(ut.angle), math.sin(ut.angle)
    w, h = s / (2.0 * y), y * y - x * x  # V = dP/dt for dz/dt = y e^(i angle)
    vel = x * c + (h - 1.0) * w, x * c + (h + 1.0) * w, c - 2.0 * x * w
    l0, l1, l2 = _cross(vel, _lift(x, y))
    signs = [l0 * w0 + l1 * w1 + l2 * w2 for w0, w1, w2 in lifts]
    k = next((k for k in range(-1, len(signs) - 1) if signs[k] < 0.0 <= signs[k + 1]), None)
    if k is None:
        raise ResourceError("ray tracing: no outward exit at t=0.000000")
    if not dom.contains(ut.base):  # the entry into the polygon would go uncoded
        raise ResourceError("ray tracing: the start lies outside the polygon")
    side, s0, s1 = walks[k], signs[k], signs[k + 1]
    r = 1.0 / math.sqrt(s0 * (s0 - float(table[6, k]) * s1) + s1 * s1)
    e = [s1 * r * u - s0 * r * v for u, v in zip(lifts[k], lifts[k + 1])]
    t_acc = math.asinh(e[1] * vel[1] + e[2] * vel[2] - e[0] * vel[0])
    left, times, codes = int(64 + 16.0 * T / dom.inradius), [], []
    while left > 0:
        n = min(int(max(rate * (T - t_acc), 0.0)) + _CHUNK_MARGIN, _CHUNK_MAX, left)
        left -= n
        rec = []  # k, s_k, s_(k+1) of each crossing
        put = rec.extend
        for _ in range(n):
            m00, m01, m02, m10, m11, m12, m20, m21, m22, k, walk, last = side
            put((k, s0, s1))
            l0, l1, l2 = (l0 * m00 + l1 * m10 + l2 * m20, l0 * m01 + l1 * m11 + l2 * m21,
                          l0 * m02 + l1 * m12 + l2 * m22)
            for w0, w1, w2, nxt in walk:
                sw = l0 * w0 + l1 * w1 + l2 * w2
                if sw >= 0.0:
                    side, s1 = nxt, sw
                    break
                s0 = sw
            else:
                side = last
        ks, s_k, s_k1 = np.fromiter(rec, float, 3 * n).reshape(n, 3).T
        ks = ks.astype(np.intp)
        cols = table.take(ks, axis=1)
        r = 1.0 / np.sqrt(s_k * (s_k - cols[6] * s_k1) + s_k1 * s_k1)
        a, b = s_k1 * r, -s_k * r
        exits, entries = a * cols[0:3] + b * cols[3:6], a * cols[7:10] + b * cols[10:13]
        d = exits - np.column_stack((e, entries[:, :-1]))
        e = entries[:, -1]
        q = d[1] * d[1] + d[2] * d[2] - d[0] * d[0]
        half = (0.5 * np.sqrt(np.where(q > 0.0, q, 0.0))).tolist()
        t = 2.0 * np.fromiter(map(math.asinh, half), float, n)
        acc = np.cumsum(np.concatenate(((t_acc,), t)))
        stop = np.flatnonzero(t > T - acc[:-1])  # the first crossing past T ends the trace
        m = stop[0] if len(stop) else n
        reached = acc[1:m + 1]
        times.append(np.where(reached > 0.0, reached, 0.0))
        codes.append(ks[:m])
        if len(stop):
            return np.concatenate(times), gens[np.concatenate(codes)]
        t_acc = acc[-1]
    raise ResourceError("crossing budget exceeded (tracing runaway)")


# ---------------------------------------------------------------------------
# orbit enumeration
#
# Reverse search (Avis & Fukuda 1996) over the face pairings S_D of the
# Dirichlet domain D about c (Voight, JTNB 2009): the polygon, about its
# interior point.  The geodesic from g.c to c leaves g.D through a face
# shared with g.s.D, s in S_D, at a point equidistant from g.c and g.s.c, so
# g.s is strictly closer to c.  Keeping g.s only when g is its least
# S_D-neighbour yields each element once, with no seen-set.  In the frame
# c = i, cosh d = |g|_F^2/2; a ball about another centre is filtered from it.
#
# A level of the search is a (4, N) array of the entries a, b, c, d of its
# elements.  The norms it tests are linear in a parent's Gram entries
# G = (a^2 + c^2, ab + cd, b^2 + d^2): |g s|_F^2 = tr(g^T g s s^T) = w(s) . G,
# so one product C @ G gives the (k, j, N) block of |g s_k s_j|_F^2, every
# neighbour of every child of a block of parents, with the rows of C the
# weights w(s_k s_j).  Each test reduces over j, an axis contiguous over N,
# and entries are formed only for the children kept.

ORBIT_MAX_POINTS = 6_000_000  # cap on the elements a ball's search enumerates
TIE_BAND = 1e-11  # neighbour norms this close (relative) tie; lower index wins


@dataclass(frozen=True)
class OrbitBall:
    """Orbit points of z0 within hyperbolic distance t_max, each once."""

    points: np.ndarray  # complex coordinates
    dists: np.ndarray


def _inverse(g):
    return np.stack([g[..., 1, 1], -g[..., 0, 1], -g[..., 1, 0], g[..., 0, 0]], -1).reshape(g.shape)


def _matches(S, g):
    """[..., i]: whether S[i] equals g, or each matrix of a stack g, as
    elements of PSL(2, R)."""
    g = g[..., None, :, :]
    err = np.minimum(np.abs(S - g).max(axis=(-2, -1)), np.abs(S + g).max(axis=(-2, -1)))
    return err < 1e-9 * (1.0 + np.abs(g).max(axis=(-2, -1)))


def _distinct(mats):
    """The stack mats without repeats (as elements of PSL(2, R)), in order."""
    return mats[~np.tril(_matches(mats, mats), -1).any(axis=1)]


def _norm_weights(M):
    """The rows w(M) with |g M|_F^2 = w(M) . G, G the Gram entries
    (a^2 + c^2, ab + cd, b^2 + d^2) of g = [[a, b], [c, d]], for a stack M."""
    P = M @ np.swapaxes(M, -1, -2)
    return np.stack([P[:, 0, 0], 2.0 * P[:, 0, 1], P[:, 1, 1]], axis=1)


def _descend(S, limit):
    """Reverse search over the pairings S (closed under inverses), yielding
    the elements g with |g|_F^2 <= limit, as (4, N) entries, per block of
    parents.  g.s is kept when g is its least S-neighbour (norms within
    TIE_BAND tie, the lower index wins; a gap too near the band raises).
    S are certified Dirichlet faces, so a candidate with no strictly closer
    neighbour (a cone point or a descent tie) raises too, and so does a
    search past ORBIT_MAX_POINTS elements.

    A block's (k, j, N) neighbour norms, at most 2^17 of them so that they
    stay in a core's cache, come from one product with the parents' Gram
    entries; its children are grouped by generator, and the identity
    comes first."""
    m, hit = len(S), _matches(S, _inverse(S))
    if not hit.any(axis=1).all():
        raise ResourceError("orbit pairings are not closed under inverses")
    inv = np.argmax(hit, axis=1)
    W, C = _norm_weights(S), _norm_weights((S[:, None] @ S[None]).reshape(-1, 2, 2))
    R = np.zeros((m, 4, 4))  # g -> g s_k on entries: diag(s_k^T, s_k^T)
    R[:, :2, :2] = R[:, 2:, 2:] = np.swapaxes(S, 1, 2)
    earlier = np.arange(m) < inv[:, None]  # [k, j]: j wins a tie over k's back step
    front, gen, total, step = np.eye(2).reshape(4, 1), np.array([-1]), 1, max(1, 2**17 // m**2)
    yield front
    while front.shape[1]:
        nxt = []
        for i in range(0, front.shape[1], step):
            par, pgen = front[:, i:i + step], gen[i:i + step]
            if total > ORBIT_MAX_POINTS:
                raise ResourceError(f"orbit ball exceeds {ORBIT_MAX_POINTS} points")
            a, b, c, d = par
            G = np.stack([a * a + c * c, a * b + c * d, b * b + d * d])
            norms = W @ G
            back = np.flatnonzero(pgen >= 0)
            norms[inv[pgen[back]], back] = np.inf  # the step back to the parent
            nbr = (C @ G).reshape(m, m, -1)
            least = nbr.min(axis=1)
            wide = least * (1.0 + 10.0 * TIE_BAND)
            tie = nbr <= (least * (1.0 + TIE_BAND))[:, None]
            cand = norms <= limit
            if np.any(((nbr <= wide[:, None]) != tie).any(axis=1) & cand):
                raise ResourceError("orbit descent: a neighbour tie the band cannot settle")
            strict = norms > wide
            if np.any(cand & ~strict):
                raise ResourceError("orbit descent: an element has no strictly closer neighbour")
            keep = cand & tie[np.arange(m), inv] & ~(tie & earlier[..., None]).any(axis=1)
            kids = [R[k] @ np.compress(keep[k], par, axis=1) for k in np.flatnonzero(keep.any(1))]
            kids = np.concatenate(kids, axis=1) if kids else par[:, :0]
            nxt.append((kids, np.repeat(np.arange(m), np.count_nonzero(keep, axis=1))))
            total += kids.shape[1]
            yield kids
        front, gen = np.concatenate([k for k, _ in nxt], axis=1), np.concatenate([g for _, g in nxt])


def _orbit_bfs(pairings, frame, K, t_max):
    """The orbit ball of q = K.i over the faces (pairings) of the Dirichlet
    domain about i.  With delta = d(i, q), one search to t_max + 2 delta
    holds it (triangle inequality), and g is kept when h = K^-1 g K has
    |h|_F^2 <= 2 cosh t_max, a quadratic form in g's entries; h is formed
    for the kept g only.  At delta = 0 (K = I) the search is the ball and
    h = g.  Distances 2 asinh(sqrt((a - d)^2 + (b + c)^2) / 2) of h's
    entries have no cancellation; points are (frame @ h).i.  A kept h != I
    with (a - d)^2 + (b + c)^2 <= 20 TIE_BAND fixes q: a cone point."""
    L = np.kron(_inverse(K), K.T)  # g's row-major entries to h's
    limit = 2.0 * max(math.cosh(t_max), 1.0 + 10.0 * TIE_BAND)  # keeps an h fixing q at t_max ~ 0
    delta = 2.0 * math.asinh(0.5 * math.hypot(K[0, 0] - K[1, 1], K[0, 1] + K[1, 0]))
    blocks = _descend(pairings, 2.0 * math.cosh(t_max + 2.0 * delta))
    next(blocks)  # the identity, the centre itself
    (p, q), (r, s) = frame
    pts, dists = [np.array([(p * r + q * s + 1j) / (r * r + s * s)])], [np.zeros(1)]
    for g in blocks:
        if delta:
            g = L @ np.compress((g * (L.T @ L @ g)).sum(axis=0) <= limit, g, axis=1)
        a, b, c, d = g
        x = (a - d) ** 2 + (b + c) ** 2  # |h|_F^2 - 2 = 4 sinh^2(d(q, h.q) / 2)
        if np.any(x <= 20.0 * TIE_BAND):
            raise ResourceError("the orbit centre is a cone point")
        u, v = r * a + s * c, r * b + s * d  # the bottom row of frame @ h
        pts.append(((p * a + q * c) * u + (p * b + q * d) * v + 1j) / (u * u + v * v))
        dists.append(2.0 * np.arcsinh(0.5 * np.sqrt(x)))
    return OrbitBall(points=np.concatenate(pts), dists=np.concatenate(dists))


def orbit_ball(dom, z0, t_max):
    """(points, dists) arrays for the orbit points with d(z0, g z0) <= t_max.

    z0 is pulled back to q in the polygon along the geodesic traced to it
    from the interior point c (pull_back; the distances stay), and the
    pairings crossed frame its orbit.  The polygon's distinct pairings are
    the faces of the Dirichlet domain about c (dirichlet_defect, checked at
    build), so the ball is one search about c, filtered by the distance to
    q (_orbit_bfs).  Refuses (ResourceError) a cone point, a tie or local
    minimum of the search and a search past ORBIT_MAX_POINTS elements."""
    if not 0.0 <= t_max <= 18.0:
        raise ValueError("orbit enumeration supports radii in [0, 18]")
    c, (q, word) = dom.interior_point, pull_back(dom, z0)
    Mc, pairing = Mobius.to_point(c).mat, {p.word[0]: p.mobius.mat for p in dom.pairings}
    Sc = _distinct(np.array([_inverse(Mc) @ g @ Mc for g in pairing.values()]))
    K = Mobius.to_point(HPoint((q.x - c.x) / c.y, q.y / c.y)).mat  # Mc^-1 Mq, I at q = c
    frame = functools.reduce(np.matmul, [pairing[g] for g in word], np.eye(2))
    ball = _orbit_bfs(Sc, frame @ Mobius.to_point(q).mat, K, t_max)
    return ball.points, ball.dists


# ---------------------------------------------------------------------------
# bending


@dataclass(frozen=True)
class BendingSplit:
    """Amalgam data: generator indices conjugated by the bend, and the
    splitting curve word (must commute with the conjugating one-parameter
    subgroup for relations to survive)."""

    moving: frozenset
    curve: Word

    @staticmethod
    def surface_standard(genus):
        """Split of the genus-g group along the separating curve [a1,b1]:
        a2, b2, ..., ag, bg move."""
        return BendingSplit(frozenset(range(3, 2 * genus + 1)), (1, 2, -1, -2))

    @staticmethod
    def genus2_standard():
        return BendingSplit.surface_standard(2)


def bend_representation(rep, split, s):
    """The bend of rep by s (see bend_representations), or the refusal raised."""
    (out,) = bend_representations(rep, split, [s])
    if isinstance(out, Exception):
        raise out
    return out


def bend_representations(rep, split, values):
    """Conjugate the moving side of an amalgam by exp(s X) for each s of
    values, X spanning the centralizer of the splitting curve's holonomy
    (trace-free normalized), from one eigensplit of the curve and with one
    stacked relation gate per scalar field.  Per value: the bent rep (rep
    at s = 0) or the DegenerateBendingError or RepresentationError refusing
    it.  s real twists along the curve; s imaginary bends into PSL(2, C)."""
    if rep.n != 2:
        raise ValueError("bending is defined for rank-2 representations")
    out = [rep if s == 0 else None for s in values]
    if all(s == 0 for s in values):
        return out
    M = linrep.eval_word(rep, split.curve)
    tr = M[0, 0] + M[1, 1]
    if abs(tr * tr - 4.0) < 1e-8:
        return [DegenerateBendingError("splitting curve is parabolic") if o is None else o
                for o in out]
    _, P = np.linalg.eig(M)
    if np.linalg.cond(P) > 1e8:
        return [DegenerateBendingError("centralizer eigenbasis ill-conditioned")
                if o is None else o for o in out]
    Pinv = np.linalg.inv(P)
    complex_rep = rep.field == "complex" or np.iscomplexobj(P)  # as X = P diag(1, -1) P^-1
    core = {i: Pinv @ g @ P for i, g in enumerate(rep.generators, start=1) if i in split.moving}
    fields = {}  # is_complex -> positions of its bent reps
    for k, s in enumerate(values):
        if out[k] is not None:
            continue
        # conjugation by exp(sX) entrywise in the eigenbasis: exact scaling by
        # e^(+-2s), no cancellation for large |Re s|; validation refuses overflow
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.array([[1.0, np.exp(2.0 * s)], [np.exp(-2.0 * s), 1.0]])
            new_gens = [P @ (core[i] * scale) @ Pinv if i in core else np.asarray(g, dtype=complex)
                        for i, g in enumerate(rep.generators, start=1)]
        complex_out = complex_rep or abs(complex(s).imag) > 0
        if not complex_out:
            new_gens = [np.real_if_close(h, tol=1e6) for h in new_gens]
        try:
            out[k] = linrep.Representation(
                2, "complex" if complex_out else "real", new_gens, rep.relations,
                f"{rep.label}|bend:{complex(s).real:g},{complex(s).imag:g}",
                rep.projective_flag, rep.unit_det)
            fields.setdefault(complex_out, []).append(k)
        except linrep.RepresentationError as exc:
            out[k] = exc
    for ks in fields.values():
        for k, report in zip(ks, linrep.relation_reports([out[k] for k in ks])):
            if not report.holds():
                out[k] = DegenerateBendingError(
                    f"bent relations fail: residual {report.max_residual:.2e} "
                    f"(relative {report.max_relative:.2e})")
    return out
