import cmath
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from lyaplab import fuchsian, linrep
from lyaplab.hypgeo import Mobius, hyp_dist


@pytest.fixture(scope="session")
def tri334():
    """(domain, generators, relations) for the (3,3,4) triangle group."""
    return fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))


@pytest.fixture(scope="session")
def genus2():
    return fuchsian.build_group(fuchsian.GroupSpec.surface(2))


@pytest.fixture(scope="session")
def fuchs334(tri334):
    dom, gens, rels = tri334
    return linrep.uniformizing_rep(gens, rels, "fuchsian")


@pytest.fixture(scope="session")
def fuchs_g2(genus2):
    dom, gens, rels = genus2
    return linrep.uniformizing_rep(gens, rels, "fuchsian-g2")


def mobius_of_word(gens, word):
    m = Mobius.identity()
    for s in word:
        g = gens[abs(s) - 1]
        m = m @ (g if s > 0 else g.inv())
    return m


def random_sl2(rng):
    """A not-too-degenerate random real unimodular matrix."""
    while True:
        a = rng.normal(size=(2, 2))
        d = np.linalg.det(a)
        if abs(d) > 0.1:
            if d < 0:
                a = a[[1, 0]]
                d = -d
            return a / np.sqrt(d)


def coding(dom, ut, T):
    """The crossings of the geodesic from ut up to time T, from
    fuchsian.trace_geodesic: times and signed generators."""
    times, gens = fuchsian.trace_geodesic(dom, ut, T)
    return SimpleNamespace(times=times, gens=gens)


def _scalar_walk_sides(dom):
    """The flat per-side records of the one-pass walk: w_k, w_(k+1),
    2 <w_k, w_(k+1)>, L_k^-1 by rows, the generator, the partner j's
    w_(j+1), w_j, the walk (w_i, side i - 1) for i = j+2 .. j-1, and
    side j - 1."""
    lifts, n, sides = dom._lifts, len(dom._lifts), [[] for _ in dom.pairings]
    for k, p in enumerate(dom.pairings):
        u, v, j, inverse = lifts[k], lifts[(k + 1) % n], p.partner, linrep.adjugate(p.mobius.mat)
        sides[k] += [*u, *v, 2.0 * (u[0] * v[0] - u[1] * v[1] - u[2] * v[2]),
                     *fuchsian._so21(inverse).ravel().tolist(), p.word[0], *lifts[(j + 1) % n],
                     *lifts[j], tuple((*lifts[(j + i) % n], sides[(j + i - 1) % n])
                                      for i in range(2, n)), sides[j - 1]]
    return sides


def scalar_walk_crossings(dom, ut, T):
    """The one-pass vertex-sign walk that the two-pass walk of
    `fuchsian.trace_geodesic` replaced, kept as its oracle: it computes each
    crossing's time as it walks, one crossing at a time, and the two must
    give the same (time, signed generator) pairs bit for bit."""
    _cross = fuchsian._cross
    _lift = fuchsian._lift
    ResourceError = fuchsian.ResourceError
    sides, lifts = _scalar_walk_sides(dom), dom._lifts
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
    side, s0, s1 = sides[k], signs[k], signs[k + 1]
    r = 1.0 / math.sqrt(s0 * (s0 - side[6] * s1) + s1 * s1)
    e0, e1, e2 = (s1 * r * u - s0 * r * v for u, v in zip(lifts[k], lifts[k + 1]))
    t_acc = math.asinh(e1 * vel[1] + e2 * vel[2] - e0 * vel[0])
    for _ in range(int(64 + 16.0 * T / dom.inradius)):
        (u0, u1, u2, v0, v1, v2, ck2, m00, m01, m02, m10, m11, m12, m20, m21, m22,
         gen, p0, p1, p2, q0, q1, q2, walk, last) = side
        r = 1.0 / math.sqrt(s0 * (s0 - ck2 * s1) + s1 * s1)
        a, b = s1 * r, -s0 * r
        d0, d1, d2 = a * u0 + b * v0 - e0, a * u1 + b * v1 - e1, a * u2 + b * v2 - e2
        q = d1 * d1 + d2 * d2 - d0 * d0
        t = 2.0 * math.asinh(0.5 * math.sqrt(q)) if q > 0.0 else 0.0
        if t > T - t_acc:
            return
        t_acc += t
        yield (t_acc if t_acc > 0.0 else 0.0), gen
        l0, l1, l2 = (l0 * m00 + l1 * m10 + l2 * m20, l0 * m01 + l1 * m11 + l2 * m21,
                      l0 * m02 + l1 * m12 + l2 * m22)
        e0, e1, e2 = a * p0 + b * q0, a * p1 + b * q1, a * p2 + b * q2
        for w0, w1, w2, nxt in walk:
            sw = l0 * w0 + l1 * w1 + l2 * w2
            if sw >= 0.0:
                side, s1 = nxt, sw
                break
            s0 = sw
        else:
            side = last
    raise ResourceError("crossing budget exceeded (tracing runaway)")


def hyperboloid_crossings(dom, ut, T):
    """The hyperboloid tracer that the vertex-sign walk of
    `fuchsian.trace_geodesic` replaced, kept as its oracle; it yields the
    same (time, signed generator) pairs.

    The geodesic runs as P(t) = P cosh t + V sinh t.  Along it a side k's
    carrier n_k . X = 0 (n_k in dom._normals, the polygon at n_k . X > 0)
    reads a cosh t + b sinh t with a = n_k . P and b = n_k . V, so the exit
    is the side of least tau = max(a, 0) / -b over the sides with b < 0, at
    t = atanh tau.  Where two sides share a carrier (a vertex of angle pi),
    the side of the exit point is read off the carrier's tangent functional
    at that vertex.  The side's pairing then maps (P, V), which are put back
    on the hyperboloid and its tangent plane.
    """
    lifts = [fuchsian._lift(v.x, v.y) for v in dom.vertices]
    normals, n = dom._normals, len(lifts)
    pairs = [(tuple(fuchsian._so21(p.mobius.mat).ravel().tolist()), p.word[0])
             for p in dom.pairings]
    flat = {}
    for k in range(n):  # a vertex of angle pi: both its sides on one carrier
        if max(abs(a - b) for a, b in zip(normals[k - 1], normals[k])) < 1e-9:
            c0, c1, c2 = normals[k]
            f = fuchsian._cross((c0, -c1, -c2), lifts[k])
            f = f if fuchsian._dot(f, lifts[(k + 1) % n]) > 0.0 else tuple(-v for v in f)
            flat[k] = flat[(k - 1) % n] = (f, (k - 1) % n, k)
    x, y, c, s = ut.base.x, ut.base.y, math.cos(ut.angle), math.sin(ut.angle)
    p0, p1, p2 = fuchsian._lift(x, y)
    w, h = s / (2.0 * y), y * y - x * x  # V = dP/dt for dz/dt = y e^(i angle)
    v0, v1, v2 = x * c + (h - 1.0) * w, x * c + (h + 1.0) * w, c - 2.0 * x * w
    t_acc = 0.0
    for _ in range(int(64 + 16.0 * T / dom.inradius)):
        tau, k = 1.0, -1
        for j, (n0, n1, n2) in enumerate(normals):
            b = n0 * v0 + n1 * v1 + n2 * v2
            if b < 0.0:
                a = n0 * p0 + n1 * p1 + n2 * p2
                q = a / -b if a > 0.0 else 0.0
                if q < tau:
                    tau, k = q, j
        if k < 0:
            raise fuchsian.ResourceError(f"ray tracing: no outward exit at t={t_acc:.6f}")
        t = math.atanh(tau)
        if t > T - t_acc:
            return
        t_acc += t
        ch = 1.0 / math.sqrt(1.0 - tau * tau)
        sh = tau * ch
        p0, p1, p2, v0, v1, v2 = (ch * p0 + sh * v0, ch * p1 + sh * v1, ch * p2 + sh * v2,
                                  sh * p0 + ch * v0, sh * p1 + ch * v1, sh * p2 + ch * v2)
        if k in flat:
            (f0, f1, f2), before, after = flat[k]
            k = after if f0 * p0 + f1 * p1 + f2 * p2 > 0.0 else before
        (l00, l01, l02, l10, l11, l12, l20, l21, l22), gen = pairs[k]
        p0, p1, p2 = (l00 * p0 + l01 * p1 + l02 * p2, l10 * p0 + l11 * p1 + l12 * p2,
                      l20 * p0 + l21 * p1 + l22 * p2)
        v0, v1, v2 = (l00 * v0 + l01 * v1 + l02 * v2, l10 * v0 + l11 * v1 + l12 * v2,
                      l20 * v0 + l21 * v1 + l22 * v2)
        r = 1.0 / math.sqrt(p0 * p0 - p1 * p1 - p2 * p2)
        p0, p1, p2 = r * p0, r * p1, r * p2
        d = p0 * v0 - p1 * v1 - p2 * v2
        v0, v1, v2 = v0 - d * p0, v1 - d * p1, v2 - d * p2
        r = 1.0 / math.sqrt(v1 * v1 + v2 * v2 - v0 * v0)
        v0, v1, v2 = r * v0, r * v1, r * v2
        yield t_acc, gen
    raise fuchsian.ResourceError("crossing budget exceeded (tracing runaway)")


def greedy_pull_back(dom, z):
    """The greedy distance descent that `fuchsian.pull_back` replaced, kept
    as its oracle: apply the pairing that brings z closest to the interior
    point (the least clearance's side when none is closer), at most
    10 (1 + d / inradius) + 4 times.  Returns (z', word) under the same
    convention; its words may differ from the tracer's, its points may not."""
    p, x0 = z, dom.interior_point
    applied = []
    for _ in range(int(10.0 * (1.0 + hyp_dist(p, x0) / dom.inradius)) + 4):
        if dom.contains(p):
            return p, tuple(-s for s in applied)
        best, best_d, best_side = None, hyp_dist(p, x0), None
        for k, pair in enumerate(dom.pairings):
            cand = pair.mobius.apply(p)
            d = hyp_dist(cand, x0)
            if d < best_d - 1e-15:
                best, best_d, best_side = cand, d, k
        if best is None:
            best_side = int(np.argmin(dom.clearances(p.x, p.y)))
            best = dom.pairings[best_side].mobius.apply(p)
        p = best
        applied.append(dom.pairings[best_side].word[0])
    raise fuchsian.ResourceError(f"greedy pull-back did not converge from {z}")


def _stack_gram(g):
    """Entries of g^T g for a stack g; |g s|_F^2 = tr(g^T g s s^T) is linear in them."""
    return np.stack([g[:, 0, 0] ** 2 + g[:, 1, 0] ** 2,
                     g[:, 0, 0] * g[:, 0, 1] + g[:, 1, 0] * g[:, 1, 1],
                     g[:, 0, 1] ** 2 + g[:, 1, 1] ** 2], axis=1)


def stack_descend(S, limit):
    """The reverse search that `fuchsian._descend` replaced, kept as its
    oracle: levels are (N, 2, 2) stacks, every candidate child is formed as
    a matrix product, and its neighbour norms are read off that product.
    It yields (elements, norms, local minima) under the same rules."""
    hit = fuchsian._matches(S, linrep.adjugate(S))
    if not hit.any(axis=1).all():
        raise fuchsian.ResourceError("orbit pairings are not closed under inverses")
    inv = np.argmax(hit, axis=1)
    W = _stack_gram(np.swapaxes(S, 1, 2)).T * np.array([[1.0], [2.0], [1.0]])
    front, gen, total, step = np.eye(2)[None], np.array([-1]), 1, max(1, 2**20 // len(S) ** 2)
    yield front, np.array([2.0]), front[:0]
    while len(front):
        nxt = []
        for i in range(0, len(front), step):
            par, pgen = front[i:i + step], gen[i:i + step]
            if total > fuchsian.ORBIT_MAX_POINTS:
                raise fuchsian.ResourceError(f"orbit ball exceeds {fuchsian.ORBIT_MAX_POINTS} points")
            nf = _stack_gram(par) @ W
            back = np.flatnonzero(pgen >= 0)
            nf[back, inv[pgen[back]]] = np.inf  # the step back to the parent
            fi, ki = np.nonzero(nf <= limit)
            kids, norms = par[fi] @ S[ki], nf[fi, ki]
            rel = _stack_gram(kids) @ W
            least = rel.min(axis=1, initial=np.inf)
            rel = rel / least[:, None] - 1.0
            band = fuchsian.TIE_BAND
            if np.any((rel > band) & (rel <= 10.0 * band)):
                raise fuchsian.ResourceError("orbit descent: a neighbour tie the band cannot settle")
            strict = norms > least * (1.0 + 10.0 * band)
            keep = strict & (np.argmax(rel <= band, axis=1) == inv[ki])
            nxt.append((kids[keep], ki[keep]))
            total += keep.sum()
            yield kids[keep], norms[keep], kids[~strict]
        front, gen = (np.concatenate(x) for x in zip(*nxt))


def stack_orbit_bfs(pairings, frame, t_max):
    """The orbit ball over the faces of the Dirichlet domain about its own
    centre, as `fuchsian._orbit_bfs` counted it before the filter, over
    stack_descend: points (frame @ g).i and their distances, as an
    OrbitBall."""
    pts, dists = [], []
    for g, norms, minima in stack_descend(pairings, 2.0 * math.cosh(t_max)):
        if len(minima):
            raise fuchsian.ResourceError("orbit descent: an element has no strictly closer neighbour")
        m = frame @ g
        pts.append((m[:, 0, 0] * m[:, 1, 0] + m[:, 0, 1] * m[:, 1, 1] + 1j)
                   / (m[:, 1, 0] ** 2 + m[:, 1, 1] ** 2))
        dists.append(np.arccosh(np.maximum(0.5 * norms, 1.0)))
    return fuchsian.OrbitBall(points=np.concatenate(pts), dists=np.concatenate(dists))


def bfs_inputs(dom, z0):
    """The pairings, frame and centre map K that orbit_ball hands to
    fuchsian._orbit_bfs for the centre z0."""
    seen = []

    def record(pairings, frame, K, t_max):
        seen.append((pairings, frame, K))
        return fuchsian.OrbitBall(points=np.array([z0.z]), dists=np.zeros(1))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fuchsian, "_orbit_bfs", record)
        fuchsian.orbit_ball(dom, z0, 0.0)
    return seen[0]


def stack_ball_about_c(dom, z0, t_max):
    """The orbit ball of z0 from matrices and points, as an OrbitBall: the
    stack search over the polygon's distinct pairings about its interior
    point c to t_max + 2 d(c, q), q the pulled-back centre; g is kept where
    hyp_dist's formula puts g.q within t_max of q, and the point is
    frame.g.q, frame the word pull_back returns."""
    c, (q, word) = dom.interior_point, fuchsian.pull_back(dom, z0)
    Mc, pairing = Mobius.to_point(c).mat, {p.word[0]: p.mobius.mat for p in dom.pairings}
    Sc = fuchsian._distinct(np.array([linrep.adjugate(Mc) @ g @ Mc for g in pairing.values()]))
    levels = list(stack_descend(Sc, 2.0 * math.cosh(t_max + 2.0 * hyp_dist(c, q))))
    assert not any(len(m) for _, _, m in levels)
    g = Mc @ np.concatenate([x for x, _, _ in levels]) @ linrep.adjugate(Mc)
    gq = (g[:, 0, 0] * q.z + g[:, 0, 1]) / (g[:, 1, 0] * q.z + g[:, 1, 1])
    dists = 2.0 * np.arcsinh(np.abs(gq - q.z) / (2.0 * np.sqrt(gq.imag * q.y)))
    (a, b), (cc, d) = functools.reduce(np.matmul, [pairing[w] for w in word], np.eye(2))
    pts = (a * gq + b) / (cc * gq + d)
    keep = dists <= t_max
    return fuchsian.OrbitBall(points=pts[keep], dists=dists[keep])


def clip_cell(F):
    """The half-plane clipping that the convex-hull polar `fuchsian._cell`
    replaced, kept as the cell of the certification oracles below: the
    Klein-model polygon about i cut out by the bisectors of i and g.i, g in
    F, from the box |X|, |Y| <= 2, nearest bisector first; vertices, and the
    index in F of each edge's bisector (-1: a side of the box, so the cell
    is unbounded)."""
    a, b, c, d = F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]
    qx, qy = 0.5 * (a * a + b * b - c * c - d * d), a * c + b * d
    rhs = 0.5 * (a * a + b * b + c * c + d * d) - 1.0  # qx X + qy Y <= rhs
    poly = [((-2.0, -2.0), -1), ((2.0, -2.0), -1), ((2.0, 2.0), -1), ((-2.0, 2.0), -1)]
    for j in np.argsort(rhs / np.hypot(qx, qy)):  # nearest bisector first
        if rhs[j] > math.hypot(qx[j], qy[j]) * max(math.hypot(*v) for v, _ in poly):
            break
        s = [qx[j] * x + qy[j] * y - rhs[j] for (x, y), _ in poly]
        out = []
        for i, (v, tag) in enumerate(poly):
            w, s2 = poly[(i + 1) % len(poly)][0], s[(i + 1) % len(poly)]
            if s[i] <= 0.0:
                out.append((v, tag))
            if (s[i] <= 0.0) != (s2 <= 0.0):
                f = s[i] / (s[i] - s2)
                out.append(((v[0] + f * (w[0] - v[0]), v[1] + f * (w[1] - v[1])),
                            j if s[i] <= 0.0 else tag))
        poly = out
    return np.array([v for v, _ in poly]), np.array([t for _, t in poly])


CERT_TOL = 1e-9  # relative area tolerance of a Dirichlet cell; least face length


def cell_area(V):
    """Area of a Klein polygon star-shaped about 0, as the fan of triangles
    (o, p, q) with tan(A/2) = det(o, p, q) / (1 + cosh op + cosh pq + cosh qo)."""
    p = np.column_stack([np.ones(len(V)), V]) / np.sqrt(1.0 - (V * V).sum(axis=1))[:, None]
    q = np.roll(p, -1, axis=0)
    det = p[:, 1] * q[:, 2] - p[:, 2] * q[:, 1]
    cosh_pq = p[:, 0] * q[:, 0] - p[:, 1] * q[:, 1] - p[:, 2] * q[:, 2]
    return float(np.sum(2.0 * np.arctan2(np.abs(det), 1.0 + p[:, 0] + q[:, 0] + cosh_pq)))


def _clipped_faces(F):
    """The cell that the bisectors of F cut out (clip_cell): its distinct
    face pairings, its circumradius (inf if unbounded) and its area."""
    V, tags = clip_cell(F)
    r2 = (V * V).sum(axis=1).max()
    edge = np.hypot(*(np.roll(V, -1, axis=0) - V).T)
    faces = fuchsian._distinct(F[np.unique(tags[(edge > CERT_TOL) & (tags >= 0)])])
    if tags.min() < 0 or r2 >= 1.0:
        return faces, math.inf, math.nan
    return faces, math.atanh(math.sqrt(r2)), cell_area(V)


def _ball_bisectors(F, rho):
    """The elements of F within rho of i, refusing a centre that one fixes."""
    nF = (F * F).sum(axis=(1, 2))
    if np.any(nF <= 2.0 * (1.0 + 10.0 * fuchsian.TIE_BAND)):
        raise fuchsian.ResourceError("the orbit centre is a cone point")
    return F[nF <= 2.0 * math.cosh(rho)]


def certified_dirichlet(S, R, area, Q, delta):
    """The per-ball certification (`fuchsian._dirichlet`) that the filtered
    search about the interior point replaced, kept as its oracle over the
    stack search and the clipped cell: face pairings of the Dirichlet domain
    about Q.i (as Q^-1 g Q), from searches over the faces S of the one about
    i (delta = d(i, Q.i); R bounds the circumradius).  The bootstrap ball of
    radius rho grows until rho >= 2r, r the circumradius of the cell its
    bisectors cut out (a complete ball then misses no face), and the cell
    must have the orbifold area."""
    rho = R
    for _ in range(8):
        levels = list(stack_descend(S, 2.0 * math.cosh(rho + 2.0 * delta)))
        if any(len(m) for _, _, m in levels):
            raise fuchsian.ResourceError("orbit descent: an element has no strictly closer neighbour")
        F = linrep.adjugate(Q) @ np.concatenate([g for g, _, _ in levels[1:]]) @ Q
        faces, r, cell = _clipped_faces(_ball_bisectors(F, rho))
        if rho >= 2.0 * r and abs(cell - area) <= CERT_TOL * area:
            return faces
        rho = max(rho, 2.0 * min(r, R) + 1e-6) if r < math.inf else min(1.25 * rho, 2.0 * R)
    raise fuchsian.ResourceError("Dirichlet domain not certified: its cell misses the orbifold area")


def generator_dirichlet(S, R, area):
    """The generator mode that `fuchsian._dirichlet` dropped when the build
    began to certify the polygon as the Dirichlet domain about its interior
    point, kept as the oracle of that certificate: face pairings of the
    Dirichlet domain about i, grown from the generators S (conjugated to i;
    R bounds the circumradius).  Each round closes S under inverses and
    certifies the cell of a search ball as certified_dirichlet does, over
    the stack search and the clipped cell, which keep the local minima and
    the box; S gains the round's faces and local minima."""
    rho = R
    for _ in range(8):
        S = fuchsian._distinct(np.concatenate([S, linrep.adjugate(S)]))
        levels = list(stack_descend(S, 2.0 * math.cosh(rho)))
        minima = np.concatenate([m for _, _, m in levels])
        ball = np.concatenate([g for g, _, _ in levels[1:]])
        F = np.concatenate([ball, minima, linrep.adjugate(minima)])
        faces, r, cell = _clipped_faces(_ball_bisectors(F, rho))
        if rho >= 2.0 * r and not len(minima) and abs(cell - area) <= CERT_TOL * area:
            return faces
        S = np.concatenate([S, faces, minima])
        rho = max(rho, 2.0 * min(r, R) + 1e-6) if r < math.inf else min(1.25 * rho, 2.0 * R)
    raise fuchsian.ResourceError("Dirichlet domain not certified: its cell misses the orbifold area")


def per_rep_check_relations(rep):
    """The per-representation relation gate that `linrep.relation_reports`
    replaced, kept as its oracle: each relator's prefix and suffix products
    of one rep in a Python loop of 2-D products, the scale and residual
    reduced per product."""
    eye = np.eye(rep.n)
    dtype = complex if rep.is_complex else float
    max_res = max_rel = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for w in rep.relations:
            prefixes = [np.eye(rep.n, dtype=dtype)]
            for s in w:
                prefixes.append(prefixes[-1] @ rep.generator_image(s))
            suffix_scale = [1.0]
            m = np.eye(rep.n, dtype=dtype)
            for s in reversed(w):
                m = rep.generator_image(s) @ m
                suffix_scale.append(max(1.0, np.abs(m).max()))
            suffix_scale.reverse()
            scale = max(
                max(1.0, np.abs(p).max()) * ss for p, ss in zip(prefixes, suffix_scale)
            )
            m = prefixes[-1]
            res = np.linalg.norm(m - eye)
            if rep.projective_flag:
                res = min(res, np.linalg.norm(m + eye))
            if not math.isfinite(res):
                res = math.inf
            max_res = max(max_res, res)
            max_rel = max(max_rel, res / scale if res < math.inf else res)
    return linrep.RelationReport(max_res, max_rel)


def per_value_bend(rep, split, s):
    """The one-value bend that `fuchsian.bend_representations` replaced,
    kept as its oracle: the curve's eigensplit is made anew for each s, and
    the bent rep is gated by `per_rep_check_relations`."""
    if rep.n != 2:
        raise ValueError("bending is defined for rank-2 representations")
    if s == 0:
        return rep
    M = linrep.eval_word(rep, split.curve)
    tr = M[0, 0] + M[1, 1]
    disc = tr * tr - 4.0
    if abs(disc) < 1e-8:
        raise fuchsian.DegenerateBendingError("splitting curve is parabolic")
    _, P = np.linalg.eig(M)
    if np.linalg.cond(P) > 1e8:
        raise fuchsian.DegenerateBendingError("centralizer eigenbasis ill-conditioned")
    Pinv = np.linalg.inv(P)
    X = P @ np.diag([1.0, -1.0]) @ Pinv
    new_gens = []
    complex_out = rep.field == "complex" or abs(complex(s).imag) > 0 or np.iscomplexobj(X)
    # a large twist overflows here, as in bend_representations; the gate refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.array([[1.0, np.exp(2.0 * s)], [np.exp(-2.0 * s), 1.0]])
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
    report = per_rep_check_relations(out)
    if not report.holds():
        raise fuchsian.DegenerateBendingError(
            f"bent relations fail: residual {report.max_residual:.2e} "
            f"(relative {report.max_relative:.2e})"
        )
    return out


def deriv_arg(m, z):
    """arg of the derivative 1/(cz+d)^2 of the Mobius map m at z; it rotates
    tangent angles."""
    a, b, c, d = m.mat.ravel()
    return -2.0 * cmath.phase(c * z + d)


def save_rep(rep, path):
    with open(path, "w") as fh:
        fh.write(linrep.format_rep_text(rep))
