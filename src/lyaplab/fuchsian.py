"""Cocompact Fuchsian groups as geometric objects.

Triangle groups D(p,q,r) and genus-g surface groups with explicit
fundamental polygons and side pairings; the ray tracer, which returns a
geodesic's side crossings as arrays of times and signed generators and
pulls points back into the polygon; orbit balls; and quasi-Fuchsian
bending.  The polygon lives on the hyperboloid: a unit covector per side,
the lifts of its vertices and an SO(2,1) matrix per pairing.  The build
certifies it as the Dirichlet domain about its interior point, where
orbit balls start.  Domains are immutable; coding and orbit balls are
pure functions.
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
_CHUNK_MARGIN = 16
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
    """Convex fundamental polygon with side pairings: vertices listed
    counterclockwise; side k, from vertex k to k+1, of hyperbolic length
    sides[k].length; pairings[k].mobius maps side k onto side
    pairings[k].partner setwise; area, the exact orbifold area."""

    def __init__(self, vertices, pairings, interior_point, area):
        self.vertices = list(vertices)
        self.area = area
        ends = zip(self.vertices, self.vertices[1:] + self.vertices[:1])
        self.sides = [SimpleNamespace(length=hyp_dist(p, q)) for p, q in ends]
        self.pairings = list(pairings)
        self.interior_point = interior_point
        # vertex lifts, a covector per side
        self._lifts = lifts = [_lift(v.x, v.y) for v in self.vertices]
        inside, n = _lift(interior_point.x, interior_point.y), len(lifts)
        self._normals = [_unit_covector(lifts[k], lifts[(k + 1) % n], inside) for k in range(n)]
        self.inradius = math.asinh(min(self.clearances(interior_point.x, interior_point.y)))

    @functools.cached_property
    def _exits(self):
        """The tracer's tables, built at its first call.  Side k's state is
        the signs of w_b, w_k, w_(k+1): b = base[k] is k - 1, or k + 2 if
        vertex k is straight (sides k - 1 and k share a carrier).  Past side
        k (partner j), w_i's sign is row(i) . state, row(i) the coefficients
        of L_k^-1 w_i in that basis, by cross products; row(j), row(j+1)
        are (0, 0, 1), (0, 1, 0).
        walk[k] is k, (row(i), row(base[i-1]) if i-1 is straight else None,
        walk[i-1]) for i = j+2 .. j-1 (the first two unpacked), and those
        last two for i = j.  table[:, k] is w_k, w_(k+1), 2 <w_k, w_(k+1)>,
        w_(j+1), w_j; rate, perimeter / (pi area), the crossings per unit
        time (Santalo 1976).  A pairing must carry w_k, w_(k+1) onto w_(j+1),
        w_j."""
        lifts, cov, table, ends = self._lifts, self._normals, [], ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        n, W, walk = len(lifts), np.array(lifts).T, [[] for _ in lifts]
        straight = [math.dist(cov[k - 1], cov[k]) <= 1e-9 * math.hypot(*cov[k]) for k in range(n)]
        base = [(k + 2 if straight[k] else k - 1) % n for k in range(n)]
        for k, p in enumerate(self.pairings):
            u, v, b, j = lifts[k], lifts[(k + 1) % n], lifts[base[k]], p.partner
            dual = np.array([_cross(u, v), _cross(v, b), _cross(b, u)])
            x = _so21(linrep.adjugate(p.mobius.mat)) @ W  # columns L_k^-1 w_i
            row = [*map(tuple, (dual @ x / _dot(b, dual[0])).T.tolist())]
            if math.dist(row[j], ends[1]) + math.dist(row[(j + 1) % n], ends[0]) > 1e-6:
                raise ValueError(f"the pairing of side {k} does not carry its ends onto side {j}'s")
            row[(j + 1) % n], row[j] = ends
            e = [(*row[i], row[base[i - 1]] if straight[i - 1] else None, walk[i - 1]) for i in range(n)]
            walk[k] += [k, *e[(j + 2) % n], *e[(j + 3) % n], tuple(e[(j + i) % n] for i in range(4, n)), e[j][3:]]
            table.append([*u, *v, 2.0 * (u[0] * v[0] - u[1] * v[1] - u[2] * v[2]),
                          *lifts[(j + 1) % n], *lifts[j]])
        rate = sum(side.length for side in self.sides) / (math.pi * self.area)
        gens = np.array([p.word[0] for p in self.pairings], dtype=np.int64)
        return walk, base, np.array(table).T.copy(), gens, rate

    def clearances(self, x, y):
        """Signed sinh-distances n_k . lift(x, y) to each side carrier,
        positive inside; x and y may be numpy arrays."""
        p0, p1, p2 = _lift(x, y)
        return [n0 * p0 + n1 * p1 + n2 * p2 for n0, n1, n2 in self._normals]

    def contains(self, p):
        return all(c >= -SIDE_TOL for c in self.clearances(p.x, p.y))

    def bounding_box(self):
        """Euclidean box (x_lo, x_hi, y_lo, y_hi) of the closed polygon: the
        vertices' (along a carrier x is monotone, y peaks only at an apex),
        raised to the apex of each side whose carrier centre lies strictly
        between its ends' x.  Side k's carrier n_k . lift(z) = 0 is the
        circle of centre -n2/(n0 + n1), radius 1/|n0 + n1|, or a vertical
        line if n0 + n1 = 0."""
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
    """(FundamentalDomain, generators, relations) of a group spec: the
    doubled (p,q,r) triangle, the rotations a, b, c about its vertices and
    a^p, b^q, c^r, abc; or the regular 4g-gon, its standard pairing and
    [a1,b1]...[ag,bg].  Words multiply left to right."""
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
    """Largest sinh-distance of a side j's ends from the bisector of the
    interior point c and g.c, g the pairing onto side j.  At 0 the polygon
    is the Dirichlet domain about c (Beardon 1983, 9.4) and g maps its
    partner's carrier onto side j's; rounding reads 9.4e-10 on surface:100
    and 2.2e-9 on surface:128."""
    c, n, worst = dom.interior_point, len(dom._lifts), 0.0
    p = _lift(c.x, c.y)
    for pair in dom.pairings:
        gc = pair.mobius.apply(c)
        q = _lift(gc.x, gc.y)
        d = p[0] - q[0], q[1] - p[1], q[2] - p[2]  # the covector of p - q
        r, j = math.sqrt(d[1] ** 2 + d[2] ** 2 - d[0] ** 2), pair.partner
        worst = max(worst, *(abs(_dot(d, w)) / r for w in (dom._lifts[j], dom._lifts[(j + 1) % n])))
    return worst


def pull_back(dom, p):
    """(p', word): the HPoint p moved into the closed polygon, and the word
    (a left-to-right product) of the element taking p' to p.  p goes through
    the pairing of each side the segment traced from the interior point to
    p crosses, in order; the word is that coding negated.  A point at
    infinite distance is refused (ResourceError)."""
    c = dom.interior_point
    d = hyp_dist(c, p)
    if not math.isfinite(d):
        raise ResourceError(f"pull_back: {p} is at infinite distance")
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
    hyperboloid is the covector l = V x P, negative at the vertices w_i to
    its right.  The polygon is convex, so the exit is the side k with
    s_k < 0 <= s_(k+1) (s_i = l . w_i), at
    X = (s_(k+1) w_k - s_k w_(k+1)) / sqrt(s_k^2 + s_(k+1)^2 - 2 s_k s_(k+1) <w_k, w_(k+1)>),
    2 asinh(|X - X_entry| / 2) after the entry (Minkowski <,> and norm).
    Crossing maps l to l L_k^-1, which carries w_k, w_(k+1) to the partner's
    w_(j+1), w_j: their signs and the entry's coefficients are inherited.
    l is never formed: the walk carries three signs (dom._exits), each
    further sign a row dotted with them, and from w_(j+1) stops at the
    first vertex with s >= 0, w_j at the latest.  A geodesic through a
    vertex (s = 0 counts as left) passes its corner copies in crossings of
    length 0.  The first X is asinh(-<X, V>) from P, 0 if behind it.  The
    state at crossing k is the flow's pushed by g_k ... g_1; the final
    partial segment is not coded.  A start outside the closed polygon (at
    SIDE_TOL) is refused.

    Two passes run over chunks of crossings.  The first, in Python, walks
    the signs and records k, s_k, s_(k+1): 0.23 us a crossing on
    triangle:3,3,4, 0.40 on surface:2 (x86-64, CPython 3.11).  The second
    computes the times with numpy in the one-crossing walk's order (libm's
    asinh per element), bit for bit wherever chunks end.  A chunk, rate
    (T - t) + _CHUNK_MARGIN but at most _CHUNK_MAX, is followed by another
    if it falls short of T.  A crossing walked past T costs 0.43 us (0.63 on
    surface:2), a further chunk 33 us: at the count's spread (std 14.6 of
    2,093 on triangle:3,3,4 at T = 1000, 9.3 of 310 on surface:2 at 500) a
    margin of 16 costs least.  Past 64 + 16 T / inradius crossings the trace
    is refused.
    """
    (walks, base, table, gens, rate), lifts = dom._exits, dom._lifts
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
    side, sb, s0, s1 = walks[k], signs[base[k]], signs[k], signs[k + 1]
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
            k, r0, r1, r2, fix, nxt, t0, t1, t2, fix2, nxt2, walk, last = side
            put((k, s0, s1))
            sw = sb * r0 + s0 * r1 + s1 * r2
            if sw >= 0.0:
                sb, s1, side = s1 if fix is None else sb * fix[0] + s0 * fix[1] + s1 * fix[2], sw, nxt
                continue
            sv = sb * t0 + s0 * t1 + s1 * t2
            if sv >= 0.0:
                sb, s0, s1, side = s0 if fix2 is None else sb * fix2[0] + s0 * fix2[1] + s1 * fix2[2], sw, sv, nxt2
                continue
            p2, p1 = sw, sv  # the signs of w_(i-2), w_(i-1) as w_i is walked
            for r0, r1, r2, fix, nxt in walk:
                sw = sb * r0 + s0 * r1 + s1 * r2
                if sw >= 0.0:
                    sb, s0, s1, side = p2 if fix is None else sb * fix[0] + s0 * fix[1] + s1 * fix[2], p1, sw, nxt
                    break
                p2, p1 = p1, sw
            else:
                fix, side = last
                sb, s0 = p2 if fix is None else sb * fix[0] + s0 * fix[1] + s1 * fix[2], p1
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
# Reverse search (Avis & Fukuda 1996) over the face pairings of the
# Dirichlet domain D about c (Voight, JTNB 2009): the polygon, about its
# interior point.  h != 1 has the geodesic parent h.s^-1 if the geodesic
# from c toward h^-1.c leaves D through the face of s: from h.c it leaves
# h.D at x on the bisector of h.c and h.s^-1.c, so d(c, h.s^-1.c) <
# d(c, x) + d(x, h.c) = d(c, h.c).  Keeping g.s only when g is its geodesic
# parent yields each element once, with no seen-set.  In the frame c = i,
# cosh d = |g|_F^2/2; a ball about another centre is filtered from it.
#
# A level is a (4, N) array of entries a, b, c, d.  Its tests are linear in
# a parent's Gram entries G = (a^2 + c^2, ab + cd, b^2 + d^2): for h = g s,
# |h|_F^2 = tr(s s^T g^T g), and h^-1.i has the Minkowski product
# tr(s N s^T g^T g) / 2 with a ray's unit normal n, N = _sym(n); one product
# gives each child's norm and cone values, and only kept children are formed.

ORBIT_MAX_POINTS = 6_000_000  # cap on the elements a ball's search enumerates
TIE_BAND = 1e-11  # cone values this close (relative) to a ray tie; the later face wins


@dataclass(frozen=True)
class OrbitBall:
    """Orbit points of z0 within hyperbolic distance t_max, each once."""

    points: np.ndarray  # complex coordinates
    dists: np.ndarray


def _matches(S, g):
    """[..., i]: whether S[i] equals g, or each matrix of a stack g, as
    elements of PSL(2, R)."""
    g = g[..., None, :, :]
    err = np.minimum(np.abs(S - g).max(axis=(-2, -1)), np.abs(S + g).max(axis=(-2, -1)))
    return err < 1e-9 * (1.0 + np.abs(g).max(axis=(-2, -1)))


def _sym(x0, x1, x2):
    """The matrices [[x0 + x1, x2], [x2, x0 - x1]] of vectors (as _lift's)."""
    return np.stack([x0 + x1, x2, x2, x0 - x1], axis=-1).reshape(*np.shape(x0), 2, 2)


def _weights(P):
    """The rows w(P) with tr(P g^T g) = w(P) . G, G the Gram entries
    (a^2 + c^2, ab + cd, b^2 + d^2) of g = [[a, b], [c, d]], for a stack of
    symmetric P."""
    return np.stack([P[:, 0, 0], 2.0 * P[:, 0, 1], P[:, 1, 1]], axis=1)


def _faces(dom, M):
    """The polygon's distinct pairings M^-1 s M, and the lifts (seen from
    M.i) of the vertices that start and end each one's sides: an order-2
    pairing's two sides meet at its fixed point at an angle pi."""
    Mi = linrep.adjugate(M)
    S = np.array([Mi @ p.mobius.mat @ M for p in dom.pairings])
    V = np.array(dom._lifts) @ _so21(Mi).T
    k, same = np.arange(len(S)), _matches(S, S)
    lo = np.where(same[k, k - 1], k - 1, k)
    hi = np.where(same[k, (k + 1) % len(k)], k + 2, k + 1) % len(k)
    first = ~np.tril(same, -1).any(axis=1)
    return S[first], np.stack([V[lo], V[hi]], axis=1)[first]


def _descend(S, ends, limit):
    """Reverse search over the faces S (closed under inverses) of the
    Dirichlet domain about i, yielding the elements g with |g|_F^2 <= limit
    as (4, N) entries, per block of parents, the identity first.  g.s_k is
    kept when the direction from i to (g s_k)^-1.i lies in face k's cone,
    from the ray through ends[k, 0] up to the one through ends[k, 1] (vertex
    lifts, counterclockwise).  A value within TIE_BAND of a ray (relative to
    |g s_k|_F^2) is on it, so the later face wins a tie; one in
    (band, 10 band] raises, as do ends off their bisectors and a search past
    ORBIT_MAX_POINTS elements.  A block's (3m, N) tests, at most 2^15 values
    to stay in a core's cache, are one product with its parents' Gram
    entries; its children are grouped by face."""
    m, hit = len(S), _matches(S, linrep.adjugate(S))
    if not hit.any(axis=1).all():
        raise ResourceError("orbit pairings are not closed under inverses")
    inv = np.argmax(hit, axis=1)
    X0, X1, X2 = np.moveaxis(ends, -1, 0)
    St = np.swapaxes(S, 1, 2)[:, None]
    # |s v|_F = |v|_F at a face's ends; rounding: 9.4e-12 on surface:100
    if np.abs(np.trace(S[:, None] @ _sym(X0, X1, X2) @ St, axis1=2, axis2=3) / (2.0 * X0) - 1.0).max() > 1e-8:
        raise ResourceError("orbit pairings are not the Dirichlet faces of their polygon")
    # unit normals n = (0, -X2, X1) / |(X1, X2)|, positive counterclockwise
    rays = S[:, None] @ _sym(0.0 * X0, -X2, X1) @ St / np.hypot(X1, X2)[..., None, None]
    T = np.concatenate([_weights(S @ St[:, 0]), _weights(rays[:, 0]), _weights(rays[:, 1])])
    R = np.zeros((m, 4, 4))  # g -> g s_k on entries: diag(s_k^T, s_k^T)
    R[:, :2, :2] = R[:, 2:, 2:] = np.swapaxes(S, 1, 2)
    front, gen, total, step = np.eye(2).reshape(4, 1), np.array([-1]), 1, max(1, 2**15 // (3 * m))
    buf = np.empty(3 * m * step)  # reused: a fresh block would be mapped anew each time
    yield front
    while front.shape[1]:
        nxt = []
        for i in range(0, front.shape[1], step):
            par, pgen = front[:, i:i + step], gen[i:i + step]
            if total > ORBIT_MAX_POINTS:
                raise ResourceError(f"orbit ball exceeds {ORBIT_MAX_POINTS} points")
            (a, b, c, d), n = par, par.shape[1]
            vals = np.matmul(T, np.stack([a * a + c * c, a * b + c * d, b * b + d * d]),
                             out=buf[:3 * m * n].reshape(3 * m, n)).reshape(3, m, n)
            norms, cone = vals[0], vals[1:]
            back = np.flatnonzero(pgen >= 0)
            norms[inv[pgen[back]], back] = np.inf  # the step back to the parent
            band, cand = TIE_BAND * norms, norms <= limit
            keep = cand & (cone[0] >= -band) & (cone[1] < -band)
            size = np.abs(cone, out=cone)
            if np.any(cand & ((size > band) & (size <= 10.0 * band)).any(axis=0)):
                raise ResourceError("orbit descent: a ray tie the band cannot settle")
            kids = [R[k] @ np.compress(keep[k], par, axis=1) for k in np.flatnonzero(keep.any(1))]
            kids = np.concatenate(kids, axis=1) if kids else par[:, :0]
            nxt.append((kids, np.repeat(np.arange(m), np.count_nonzero(keep, axis=1))))
            total += kids.shape[1]
            yield kids
        front, gen = np.concatenate([k for k, _ in nxt], axis=1), np.concatenate([g for _, g in nxt])


def _orbit_bfs(pairings, ends, frame, K, t_max):
    """The orbit ball of q = K.i over the faces (pairings, ends: _faces) of
    the Dirichlet domain about i: one search to t_max + 2 d(i, q) holds it;
    g is kept if h = K^-1 g K has |h|_F^2 <= 2 cosh t_max, a quadratic form
    in g's entries (h is formed for kept g only; at K = I the search is the
    ball and h = g).  Distances 2 asinh(sqrt((a - d)^2 + (b + c)^2) / 2) do
    not cancel; points are (frame @ h).i.  A kept h != I with (a - d)^2 +
    (b + c)^2 <= 20 TIE_BAND fixes q: a cone point."""
    L = np.kron(linrep.adjugate(K), K.T)  # g's row-major entries to h's
    limit = 2.0 * max(math.cosh(t_max), 1.0 + 10.0 * TIE_BAND)  # keeps an h fixing q at t_max ~ 0
    delta = 2.0 * math.asinh(0.5 * math.hypot(K[0, 0] - K[1, 1], K[0, 1] + K[1, 0]))
    blocks = _descend(pairings, ends, 2.0 * math.cosh(t_max + 2.0 * delta))
    next(blocks)  # the identity: the centre itself
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
    """(points, dists) arrays of the orbit points with d(z0, g z0) <= t_max:
    z0 is pulled back to q in the polygon (pull_back; distances stay), and
    the pairings crossed frame its orbit.  The polygon's faces are those of
    the Dirichlet domain about its interior point c (dirichlet_defect,
    checked at build), so the ball is one search about c, filtered by the
    distance to q (_orbit_bfs).  Refuses (ResourceError) a cone point, a ray
    tie the search cannot settle and a search past ORBIT_MAX_POINTS."""
    if not 0.0 <= t_max <= 18.0:
        raise ValueError("orbit enumeration supports radii in [0, 18]")
    c, (q, word) = dom.interior_point, pull_back(dom, z0)
    pairing = {p.word[0]: p.mobius.mat for p in dom.pairings}
    K = Mobius.to_point(HPoint((q.x - c.x) / c.y, q.y / c.y)).mat  # Mc^-1 Mq, I at q = c
    frame = functools.reduce(np.matmul, [pairing[g] for g in word], np.eye(2))
    ball = _orbit_bfs(*_faces(dom, Mobius.to_point(c).mat), frame @ Mobius.to_point(q).mat, K, t_max)
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
    (trace-free normalized), from one eigensplit of the curve, with one
    stacked relation gate per scalar field.  Per value: the bent rep (rep
    at s = 0) or the DegenerateBendingError or RepresentationError refusing
    it.  Real s twists along the curve; imaginary s bends into PSL(2, C)."""
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
