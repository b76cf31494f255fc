"""Cocompact Fuchsian groups as geometric objects.

Triangle groups D(p,q,r) and genus-g surface groups with explicit
fundamental polygons and side pairings, geodesic ray tracing producing
the side-crossing coding, orbit enumeration in balls, and quasi-Fuchsian
bending deformations.

Domains and generator data are immutable after construction; coding and
orbit enumeration are pure functions of their inputs, so Monte-Carlo
workers can share one domain and own their streams.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import (
    GeodesicArc,
    HPoint,
    Mobius,
    UnitTangent,
    _carrier_from_tangent,
    _carrier_intersections,
    _carrier_param,
    geodesic_flow,
    hyp_dist,
    side_clearance,
)

Word = tuple  # signed 1-based generator indices, negative = inverse

SIDE_TOL = 1e-10      # side membership tolerance (sinh of distance)
VERTEX_TOL = 1e-9     # arclength window around vertices treated as hits


class NonConvergenceError(RuntimeError):
    """pull_back failed to reach the fundamental domain in its budget."""


class DegenerateDirectionError(RuntimeError):
    """Ray tracing kept hitting vertices after the perturbation retries."""


class DegenerateBendingError(ValueError):
    """The bending curve is parabolic or its centralizer is ill-conditioned."""


class ResourceError(RuntimeError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


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


@dataclass(frozen=True)
class CodingStream:
    """Side crossings of a geodesic segment of length total_time.

    times are strictly increasing in (0, total_time]; gens[i] is the signed
    generator index of the pairing applied at crossing i (the element whose
    holonomy the cocycle multiplies next).
    """

    times: np.ndarray
    gens: np.ndarray
    total_time: float
    end_state: UnitTangent
    perturbations: int = 0


class FundamentalDomain:
    """Convex fundamental polygon with side pairings.

    vertices are listed counterclockwise; side k joins vertex k to k+1;
    pairings[k].mobius maps side k onto side pairings[k].partner setwise.
    """

    def __init__(self, vertices, pairings, interior_point):
        self.vertices = list(vertices)
        self.sides = [
            GeodesicArc.segment(self.vertices[k], self.vertices[(k + 1) % len(vertices)])
            for k in range(len(vertices))
        ]
        self.pairings = list(pairings)
        self.interior_point = interior_point
        # raw side data for the tracing hot loop: carrier, [u_lo, u_hi] in
        # carrier arclength, orientation sign of the interior clearance
        self._raw = []
        for arc in self.sides:
            car = arc.carrier
            u0 = _carrier_param(car, arc.start.x, arc.start.y)
            u1 = _carrier_param(car, arc.end.x, arc.end.y)
            sign = 1.0 if side_clearance(car, interior_point.x, interior_point.y) > 0 else -1.0
            self._raw.append((car, min(u0, u1), max(u0, u1), sign))
        self._pair_mats = [p.mobius.mat for p in self.pairings]
        self.inradius = min(
            math.asinh(abs(side_clearance(car, interior_point.x, interior_point.y)))
            for car, _, _, _ in self._raw
        )
        self.diameter = max(
            hyp_dist(u, v) for u in self.vertices for v in self.vertices
        )

    def clearances(self, x, y):
        """Signed sinh-distances to each side carrier, positive inside."""
        return [s * side_clearance(car, x, y) for car, _, _, s in self._raw]

    def contains(self, p, tol=SIDE_TOL):
        x, y = (p.x, p.y) if isinstance(p, HPoint) else (p.real, p.imag)
        return all(c >= -tol for c in self.clearances(x, y))

    def bounding_box(self):
        """Euclidean box guaranteed to contain the closed polygon."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        y_hi = max(ys)
        for car, lo, hi, _ in self._raw:
            if car[0] == "c" and lo < 0.0 < hi:  # u=0 is the circle apex
                y_hi = max(y_hi, car[2])
        return min(xs), max(xs), min(ys), y_hi


def _triangle_side(alpha, beta, gamma):
    """Length of the side between the alpha- and beta-vertices."""
    return math.acosh(
        (math.cos(alpha) * math.cos(beta) + math.cos(gamma))
        / (math.sin(alpha) * math.sin(beta))
    )


def _axis_incenter(dom_raw, y_lo, y_hi):
    """Point on the imaginary axis maximizing the minimal side clearance."""

    def worst(y):
        return min(s * side_clearance(car, 0.0, y) for car, _, _, s in dom_raw)

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
    probe = FundamentalDomain(vertices, pairings, HPoint(0.0, math.exp(c_ab / 2.0)))
    interior = _axis_incenter(probe._raw, 1.0 + 1e-9, math.exp(c_ab) - 1e-9)
    dom = FundamentalDomain(vertices, pairings, interior)
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
    dom = FundamentalDomain(V, pairings, ctr)
    _check_build(dom, gens, relations)
    return dom, gens, relations


def _mobius_word(gens, word):
    m = Mobius.identity()
    for s in word:
        g = gens[abs(s) - 1]
        m = m @ (g if s > 0 else g.inv())
    return m


def _check_build(dom, gens, relations):
    for w in relations:
        m = _mobius_word(gens, w).mat
        res = min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max())
        if res > 1e-9:
            raise AssertionError(f"relation {w} fails to close: residual {res:.2e}")
    for k, pair in enumerate(dom.pairings):
        arc = dom.sides[k]
        car = dom._raw[pair.partner][0]
        for t in np.linspace(0.0, arc.length, 5):
            w = pair.mobius.apply(arc.point_at(t))
            if abs(side_clearance(car, w.x, w.y)) > 1e-9:
                raise AssertionError(f"pairing of side {k} misses its partner")


def pull_back(dom, z, max_factor=10.0):
    """Translate z into the closed fundamental domain.

    Returns (z', word) with z' in the closed domain and the word evaluating
    (left-to-right product of generators) to the element sending z' back to
    z.  Greedy distance descent toward the interior point, with a
    side-crossing fallback; bounded by 10*(1 + d/inradius) steps.
    """
    p = z if isinstance(z, HPoint) else HPoint(z.real, z.imag)
    x0 = dom.interior_point
    budget = int(max_factor * (1.0 + hyp_dist(p, x0) / dom.inradius)) + 4
    applied = []
    for _ in range(budget):
        if dom.contains(p):
            return p, tuple(-s for s in applied)
        best, best_d, best_side = None, hyp_dist(p, x0), None
        for k, pair in enumerate(dom.pairings):
            cand = pair.mobius.apply(p)
            d = hyp_dist(cand, x0)
            if d < best_d - 1e-15:
                best, best_d, best_side = cand, d, k
        if best is None:
            clear = dom.clearances(p.x, p.y)
            k = int(np.argmin(clear))
            best, best_side = dom.pairings[k].mobius.apply(p), k
        p = best
        applied.append(dom.pairings[best_side].word[0])
    raise NonConvergenceError(f"pull_back did not converge from {z}")


def _crossing_candidates(ray_car, raw_side, t_min):
    """Outward (t, u, x, y) crossings of the ray with one side, t > t_min.

    Outward means the interior clearance of the side decreases through the
    crossing, i.e. the ray actually exits there; inward re-entries (the
    point where the previous pull-back landed) and tangential grazes are
    not crossings.
    """
    car, lo, hi, s_in = raw_side
    pts = _carrier_intersections(ray_car, car)
    if pts is None:
        return "tangent"
    out = []
    for xx, yy in pts:
        u = _carrier_param(car, xx, yy)
        if u < lo - SIDE_TOL or u > hi + SIDE_TOL:
            continue
        t = _carrier_param(ray_car, xx, yy)
        if t <= t_min:
            continue
        th = _angle_on_ray(ray_car, xx, yy)
        if car[0] == "v":
            deriv = math.cos(th)
        else:
            dx, dy = xx - car[1], yy
            norm = math.hypot(dx, dy)
            deriv = (dx * math.cos(th) + dy * math.sin(th)) / norm
        if s_in * deriv >= -1e-12:
            continue  # inward or tangential
        out.append((t, u, xx, yy))
    return out


def iter_crossings(dom, ut, T, eps0=1e-9, max_retries=5, perturb_log=None):
    """Yield (time, signed generator, state) for each side crossing in (0, T].

    state is the (x, y, angle) tuple after the pairing pull-back.  Only
    outward transversal crossings count, so the side just entered through
    is never immediately re-crossed.  Vertex hits perturb the direction by
    a growing epsilon (appended to perturb_log when given); a crossing
    pinned inside the vertex window after all retries is taken anyway and
    any outside drift is repaired by extra pairing hops (the corner routes
    of the unfolded geodesic).  The final partial segment is not yielded.
    """
    x, y, th = ut.base.x, ut.base.y, ut.angle
    t_acc = 0.0
    max_steps = int(64 + 16.0 * T / dom.inradius)
    for _ in range(max_steps):
        remaining = T - t_acc
        if remaining <= 0.0:
            return
        hit = None
        for attempt in range(max_retries + 1):
            ray = _carrier_from_tangent(x, y, th)
            best = None
            tangent = False
            for k in range(len(dom._raw)):
                cands = _crossing_candidates(ray, dom._raw[k], 1e-12)
                if cands == "tangent":
                    tangent = True
                    continue
                for t, u, xx, yy in cands:
                    if best is None or t < best[0]:
                        lo, hi = dom._raw[k][1], dom._raw[k][2]
                        near_vertex = u < lo + VERTEX_TOL or u > hi - VERTEX_TOL
                        best = (t, k, xx, yy, near_vertex)
            if best is not None and best[0] > remaining:
                return  # segment ends inside the domain
            if best is not None and not best[4] and not tangent:
                hit = best
                break
            if best is not None and not tangent and attempt == max_retries:
                hit = best
                if perturb_log is not None:
                    perturb_log.append((t_acc, 0.0))
                break
            th = (th + eps0 * (32.0**attempt)) % (2.0 * math.pi)
            hit = None
            if perturb_log is not None:
                perturb_log.append((t_acc, eps0 * (32.0**attempt)))
        if hit is None:
            raise DegenerateDirectionError(
                f"ray tracing stuck near a vertex at t={t_acc:.6f}"
            )
        t, k, xx, yy, _ = hit
        ray = _carrier_from_tangent(x, y, th)
        th_c = _angle_on_ray(ray, xx, yy)
        x, y, th = _apply_pairing(dom, k, xx, yy, th_c)
        t_acc += t
        yield t_acc, dom.pairings[k].word[0], (x, y, th)
        for hop in range(1, 9):
            clear = dom.clearances(x, y)
            k2 = int(np.argmin(clear))
            if clear[k2] >= -SIDE_TOL:
                break
            x, y, th = _apply_pairing(dom, k2, x, y, th)
            yield t_acc + hop * 1e-12, dom.pairings[k2].word[0], (x, y, th)
        else:
            raise DegenerateDirectionError(
                f"state failed to re-enter the domain at t={t_acc:.6f}"
            )
    raise ResourceError("crossing budget exceeded (tracing runaway)")


def _apply_pairing(dom, k, xx, yy, th):
    a, b, c, d = dom._pair_mats[k].ravel()
    z = complex(xx, yy)
    den = c * z + d
    w = (a * z + b) / den
    return w.real, w.imag, (th - 2.0 * math.atan2(den.imag, den.real)) % (2.0 * math.pi)


def _angle_on_ray(ray_car, xx, yy):
    if ray_car[0] == "v":
        return math.pi / 2.0 if ray_car[3] > 0 else -math.pi / 2.0
    _, c, r, _, s = ray_car
    phi = math.atan2(yy, xx - c)
    return phi + s * math.pi / 2.0


def code_geodesic(dom, ut, T):
    """Ray-trace the geodesic from ut for time T into a CodingStream."""
    if T <= 0:
        raise ValueError("coding time must be positive")
    if not dom.contains(ut.base, tol=1e-8):
        raise ValueError("start point is not in the closed fundamental domain")
    times, gens, perturbs = [], [], []
    state = (ut.base.x, ut.base.y, ut.angle)
    for t, g, st in iter_crossings(dom, ut, T, perturb_log=perturbs):
        times.append(t)
        gens.append(g)
        state = st
    last_t = times[-1] if times else 0.0
    end = geodesic_flow(UnitTangent(HPoint(state[0], state[1]), state[2]), T - last_t)
    return CodingStream(
        times=np.asarray(times, dtype=float),
        gens=np.asarray(gens, dtype=np.int64),
        total_time=float(T),
        end_state=end,
        perturbations=len(perturbs),
    )


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass(frozen=True)
class OrbitBall:
    """Orbit points of z0 within hyperbolic distance t_max, each once."""

    points: np.ndarray  # complex coordinates
    dists: np.ndarray
    parents: np.ndarray  # BFS tree: index of parent element, -1 for identity
    gen_ids: np.ndarray  # signed generator applied last (0 for identity)
    truncated: bool = False


_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _canonical_entries(mats):
    """Sign-canonicalized (n, 4) entry rows (PSL representative)."""
    e = mats.reshape(len(mats), 4)
    amax = np.abs(e).max(axis=1)
    qual = np.abs(e) >= 0.25 * amax[:, None]
    first = qual.argmax(axis=1)
    sign = np.sign(e[np.arange(len(e)), first])
    return e * sign[:, None]


def _grid_hash(entries, q, offset):
    """64-bit hash of the rounded entry grid cell (polynomial + splitmix64).

    Plain xor-of-products is degenerate on the +-symmetric entry patterns
    of rotation matrices; the polynomial accumulation breaks that symmetry.
    """
    k = np.rint(entries / q + offset).astype(np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = k[:, 0].copy()
        for j in (1, 2, 3):
            h = h * _HASH_MULT + k[:, j]
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def _orbit_bfs(generators, z0, t_max, margin, max_points, chunk=500_000):
    """Vectorized breadth-first expansion over the tiling adjacency graph.

    Children are parent @ generator (right multiplication), so one BFS step
    moves to a neighboring copy of the fundamental domain; every copy whose
    base point lies within t_max is then reachable through copies crossing
    the geodesic to it, all within t_max + diam(domain).  That makes a
    margin of one polygon diameter sufficient, which the tests validate
    against larger margins.

    Elements are deduplicated by sign-canonicalized matrix entries rounded
    on two staggered grids: an element straddling one grid's cell boundary
    lands inside a cell of the other, while distinct group elements stay
    many cells apart (discreteness separates entries by >> q up to the
    supported radius).
    """
    if t_max + margin > 18.0:
        raise ValueError("orbit enumeration supported up to radius 18")
    z = complex(z0.x, z0.y) if isinstance(z0, HPoint) else complex(z0)
    gmats, gids = [], []
    for i, g in enumerate(generators, start=1):
        gmats.append(np.asarray(g.mat, dtype=float))
        gids.append(i)
        gmats.append(np.asarray(g.inv().mat, dtype=float))
        gids.append(-i)
    gstack = np.stack(gmats)
    gid_arr = np.array(gids, dtype=np.int64)

    q = 1e-5
    eye_entries = _canonical_entries(np.eye(2)[None, :, :])
    seenA = np.sort(_grid_hash(eye_entries, q, 0.0))
    seenB = np.sort(_grid_hash(eye_entries, q, 0.5))

    pts = [np.array([z])]
    dists = [np.array([0.0])]
    parents = [np.array([-1], dtype=np.int64)]
    genids = [np.array([0], dtype=np.int64)]
    frontier = np.eye(2)[None, :, :]
    frontier_idx = np.array([0], dtype=np.int64)
    total = 1
    truncated = False
    cutoff = t_max + margin

    while len(frontier) and not truncated:
        new_mats, new_idx = [], []
        for s in range(0, len(frontier), chunk):
            fm = frontier[s : s + chunk]
            fi = frontier_idx[s : s + chunk]
            cand = np.einsum("nij,gjk->gnik", fm, gstack).reshape(-1, 2, 2)
            cand_par = np.broadcast_to(fi, (len(gstack), len(fi))).reshape(-1)
            cand_gen = np.repeat(gid_arr, len(fi))
            ent = _canonical_entries(cand)
            hA = _grid_hash(ent, q, 0.0)
            hB = _grid_hash(ent, q, 0.5)
            _, keep = np.unique(hA, return_index=True)
            keep = keep[np.unique(hB[keep], return_index=True)[1]]
            cand, cand_par, cand_gen = cand[keep], cand_par[keep], cand_gen[keep]
            hA, hB = hA[keep], hB[keep]
            fresh = ~(np.isin(hA, seenA) | np.isin(hB, seenB))
            cand, cand_par, cand_gen = cand[fresh], cand_par[fresh], cand_gen[fresh]
            hA, hB = hA[fresh], hB[fresh]
            den = cand[:, 1, 0] * z + cand[:, 1, 1]
            w = (cand[:, 0, 0] * z + cand[:, 0, 1]) / den
            d = np.arccosh(
                1.0 + (np.abs(w - z) ** 2) / (2.0 * z.imag * np.clip(w.imag, 1e-300, None))
            )
            inside = d <= cutoff
            cand, cand_par, cand_gen = cand[inside], cand_par[inside], cand_gen[inside]
            hA, hB, w, d = hA[inside], hB[inside], w[inside], d[inside]
            # stable sort exploits the two presorted runs
            seenA = np.sort(np.concatenate([seenA, np.sort(hA)]), kind="stable")
            seenB = np.sort(np.concatenate([seenB, np.sort(hB)]), kind="stable")
            idx0 = total
            total += len(cand)
            pts.append(w)
            dists.append(d)
            parents.append(cand_par)
            genids.append(cand_gen)
            new_mats.append(cand)
            new_idx.append(np.arange(idx0, total, dtype=np.int64))
            if total > max_points:
                truncated = True
                break
        frontier = np.concatenate(new_mats) if new_mats else np.empty((0, 2, 2))
        frontier_idx = (
            np.concatenate(new_idx) if new_idx else np.empty(0, dtype=np.int64)
        )

    return OrbitBall(
        points=np.concatenate(pts),
        dists=np.concatenate(dists),
        parents=np.concatenate(parents),
        gen_ids=np.concatenate(genids),
        truncated=truncated,
    )


def orbit_ball(dom, generators, z0, t_max, margin=None, max_points=6_000_000):
    """(points, dists) arrays for the orbit points with d(z0, g z0) <= t_max.

    margin defaults to the polygon diameter plus a safety pad, which makes
    the adjacency-graph BFS complete (see _orbit_bfs); the tests validate
    the default against larger margins.
    """
    if margin is None:
        margin = dom.diameter + 0.25
    ball = _orbit_bfs(generators, z0, t_max, margin, max_points)
    keep = ball.dists <= t_max
    if ball.truncated:
        raise ResourceError(
            "orbit enumeration exceeded max_points",
            partial=(ball.points[keep], ball.dists[keep]),
        )
    return ball.points[keep], ball.dists[keep]


def orbit_points(dom, generators, z0, t_max, margin=None, max_points=6_000_000):
    """Orbit points Gamma.z0 within distance t_max as (HPoint, Word) pairs.

    Each orbit point appears exactly once; the word evaluates (left to
    right) to the group element g with g(z0) = point, read off the BFS tree.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if margin is None:
        margin = dom.diameter + 0.25
    full = _orbit_bfs(generators, z0, t_max, margin, max_points)
    if full.truncated:
        raise ResourceError("orbit enumeration exceeded max_points")
    out = []
    for idx in np.flatnonzero(full.dists <= t_max):
        chain = []
        j = idx
        while j >= 0 and full.gen_ids[j] != 0:
            chain.append(int(full.gen_ids[j]))
            j = int(full.parents[j])
        chain.reverse()
        zz = full.points[idx]
        out.append((HPoint(zz.real, zz.imag), tuple(chain)))
    return out


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
    """Conjugate the moving side of an amalgam by exp(s X), X spanning the
    centralizer of the splitting curve's holonomy (trace-free normalized).

    s real twists along the curve; s imaginary bends into PSL(2, C).
    """
    from . import linrep

    if rep.n != 2:
        raise ValueError("bending is defined for rank-2 representations")
    if s == 0:
        return rep
    M = linrep.eval_word(rep, split.curve)
    tr = M[0, 0] + M[1, 1]
    disc = tr * tr - 4.0
    if abs(disc) < 1e-8:
        raise DegenerateBendingError("splitting curve is parabolic")
    _, P = np.linalg.eig(M)
    if np.linalg.cond(P) > 1e8:
        raise DegenerateBendingError("centralizer eigenbasis ill-conditioned")
    Pinv = np.linalg.inv(P)
    X = P @ np.diag([1.0, -1.0]) @ Pinv  # trace-free normalized
    # conjugation by exp(sX) done entrywise in the eigenbasis: exact scaling
    # by e^(+-2s), no cancellation even for large |Re s|
    scale = np.array([[1.0, np.exp(2.0 * s)], [np.exp(-2.0 * s), 1.0]])
    new_gens = []
    complex_out = rep.field == "complex" or abs(complex(s).imag) > 0 or np.iscomplexobj(X)
    for i, g in enumerate(rep.generators, start=1):
        if i in split.moving:
            h = P @ ((Pinv @ g @ P) * scale) @ Pinv
        else:
            h = np.asarray(g, dtype=complex)
        new_gens.append(h if complex_out else np.real_if_close(h, tol=1e6))
    out = linrep.Representation(
        n=2,
        field="complex" if complex_out else "real",
        generators=new_gens,
        relations=rep.relations,
        label=f"{rep.label}|bend:{complex(s).real:g},{complex(s).imag:g}",
        projective_flag=rep.projective_flag,
        unit_det=rep.unit_det,
    )
    report = linrep.check_relations(out)
    # conjugation by exp(sX) scales entries like e^(2|Re s|), so large
    # twists pass on the gate's backward-stability fallback
    if not report.holds(1e-8):
        raise DegenerateBendingError(
            f"bent relations fail: residual {report.max_residual:.2e} "
            f"(relative {report.max_relative:.2e})"
        )
    return out
