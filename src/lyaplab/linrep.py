"""Representation data and functors: word evaluation, relation checks,
symmetric and exterior powers, built-in representations, file I/O.

Words are tuples of signed 1-based generator indices (negative = inverse)
and evaluate to left-to-right matrix products; the empty word is the
identity.
"""

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

DET_MIN, DET_MAX = 1e-6, 1e6
# the one relation gate: backward stability (see RelationReport.holds)
RELATIVE_GATE = 1e-8
MAX_POWER_DIM = 512  # largest Sym^k / wedge^k dimension built


class RepresentationError(ValueError):
    pass


def adjugate(g):
    """The adjugate of a 2x2 matrix or of a stack of them: the inverse at
    unit determinant, entrywise exact even at extreme entry scales."""
    return np.stack([g[..., 1, 1], -g[..., 0, 1], -g[..., 1, 0], g[..., 0, 0]], -1).reshape(g.shape)


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images plus the abstract group's relation words.

    projective_flag means relations may close only up to sign (the built-in
    Fuchsian and unitary triangle-group reps do: rotation lifts of order p
    hit -I at the p-th power).
    """

    n: int
    field: str  # 'real' | 'complex'
    generators: tuple
    relations: tuple
    label: str = ""
    projective_flag: bool = False
    unit_det: bool = False

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise RepresentationError(f"bad field {self.field!r}")
        n, gens, dtype = self.n, self.generators, complex if self.field == "complex" else float
        # every check runs once on the whole stack; the first generator that
        # fails reports its first failed check, as a loop over them would
        shaped = next((i for i, g in enumerate(gens) if np.shape(g) != (n, n)), len(gens))
        stack = np.array(gens[:shaped]).reshape(shaped, n, n)
        with np.errstate(all="ignore"):
            finite = np.isfinite(stack).all(axis=(1, 2))  # both parts, before the cast
            stack = (stack if dtype is complex else stack.real).astype(dtype)
            top = np.abs(stack).max(axis=(1, 2), initial=0.0)
            det = np.abs(np.linalg.det(stack))
            # the float det of M carries cancellation noise ~ |M|^2 eps
            det_tol = np.maximum(1e-9, 32 * np.finfo(float).eps * top**2)
        # float64 cannot resolve det = ad - bc against entries >> 1e7
        # (large-twist bends); the gate certifies the moderate range only
        gated = finite & (top <= 1e7)
        faults = np.array([~finite, gated & ~((DET_MIN <= det) & (det <= DET_MAX)),
                           gated & self.unit_det & (np.abs(det - 1.0) > det_tol)])
        first = int(faults.any(axis=0).argmax()) if faults.any() else shaped
        passed = stack[:first]
        if self.unit_det and n == 2:
            inv = adjugate(passed)
        else:
            try:
                inv = np.linalg.inv(passed)
            except np.linalg.LinAlgError:  # entries past the det gate (Sym^k of a twist)
                # slogdet's sign is 0 exactly where inv's LU meets a zero pivot
                i = 1 + int(np.argmax(np.linalg.slogdet(passed)[0] == 0))
                raise RepresentationError(
                    f"generator {i} of {self.label or 'the representation'} "
                    "is singular in float64") from None
        if first < shaped:
            why = faults[:, first].argmax()
            raise RepresentationError(("non-finite generator entries",
                                       f"generator determinant {det[first]:g} out of range",
                                       f"determinant {det[first]:g} != 1")[why])
        if shaped < len(gens):
            raise RepresentationError(f"generator shape {np.shape(gens[shaped])} != n={n}")
        stack.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "generators", tuple(stack))
        object.__setattr__(self, "relations", tuple(tuple(w) for w in self.relations))
        object.__setattr__(self, "_inverses", tuple(inv))

    @property
    def num_generators(self):
        return len(self.generators)

    @property
    def is_complex(self):
        return self.field == "complex"

    def generator_image(self, signed):
        """Image of the signed generator index (negative = inverse)."""
        if signed > 0:
            return self.generators[signed - 1]
        return self._inverses[-signed - 1]


def eval_word(rep, word):
    """Left-to-right product of generator images; empty word -> identity."""
    out = np.eye(rep.n, dtype=complex if rep.is_complex else float)
    for s in word:
        if s == 0 or abs(s) > rep.num_generators:
            raise RepresentationError(f"word index {s} out of range")
        out = out @ rep.generator_image(s)
    return out


@dataclass(frozen=True)
class RelationReport:
    max_residual: float
    max_relative: float  # residual / largest intermediate prefix norm

    def holds(self):
        """True when every relation closes to rounding level relative to its
        intermediate products: the backward-stability test (Higham 2002,
        section 3), which no absolute residual can replace once entries grow
        large (big twists, high Sym powers).  A non-finite residual never
        holds."""
        return self.max_relative <= RELATIVE_GATE


def check_relations(rep):
    """The RelationReport of one representation (see relation_reports)."""
    return relation_reports([rep])[0]


def relation_reports(reps):
    """Frobenius residual min over sign of |eval(w) -+ I| per relation of
    each of reps (one n, field, relations and projective_flag), all at once.

    Sign minimization only applies when projective_flag is set.  Alongside
    the absolute residual each report carries a backward-stability measure:
    the residual divided by the largest intermediate prefix norm, which
    stays at rounding level for any float realization of a true relation
    even when conjugated generators have huge entries.  A product that
    overflows gets an infinite residual on both measures.
    """
    if len({(r.n, r.field, r.relations, r.projective_flag) for r in reps}) != 1:
        raise ValueError("stacked relation checks need one n, field, relations and sign rule")
    head = reps[0]
    gens = np.array([r.generators for r in reps]).swapaxes(0, 1)
    invs = np.array([r._inverses for r in reps]).swapaxes(0, 1)
    eye = np.broadcast_to(np.eye(head.n, dtype=gens.dtype), (len(reps), head.n, head.n))
    signs = np.array([eye, -eye] if head.projective_flag else [eye])
    max_res = max_rel = np.zeros(len(reps))
    # an overflowed product is reported as an infinite residual below, so
    # numpy's overflow warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for w in head.relations:
            images = [gens[s - 1] if s > 0 else invs[-s - 1] for s in w]
            prefixes, suffixes = [eye], [eye]
            for g, h in zip(images, reversed(images)):
                prefixes.append(prefixes[-1] @ g)
                suffixes.append(h @ suffixes[-1])
            # a backward-stable product has |prod - I| <~ eps * max_i |prefix_i||suffix_i|
            tops = np.fmax(1.0, np.abs(np.array(prefixes + suffixes[::-1])).max(axis=(2, 3)))
            scale = (tops[:len(w) + 1] * tops[len(w) + 1:]).max(axis=0)
            res = np.linalg.norm(prefixes[-1] - signs, axis=(2, 3)).min(axis=0)
            res[~np.isfinite(res)] = np.inf  # overflowed: inf / inf would be a NaN
            max_res = np.maximum(max_res, res)
            max_rel = np.maximum(max_rel, np.where(res < np.inf, res / scale, res))
    return [RelationReport(float(a), float(b)) for a, b in zip(max_res, max_rel)]


# ---------------------------------------------------------------------------
# symmetric and exterior powers


def sym_monomials(n, k):
    """Degree-k exponent vectors over n variables, lexicographic highest
    first (so rank-2 Sym^2 reads x^2, xy, y^2)."""
    return [tuple(c.count(i) for i in range(n))
            for c in itertools.combinations_with_replacement(range(n), k)]


def _sym_matrix(a, k):
    n = a.shape[0]
    mons = sym_monomials(n, k)
    index = {m: i for i, m in enumerate(mons)}
    out = np.zeros((len(mons), len(mons)), dtype=a.dtype)
    for col, alpha in enumerate(mons):
        # expand prod_i (A e_i)^(alpha_i) in the monomial basis
        poly = {(0,) * n: 1.0}
        for i, e in enumerate(alpha):
            for _ in range(e):
                nxt = {}
                for mono, coeff in poly.items():
                    for j in range(n):
                        if a[j, i] == 0:
                            continue
                        m2 = list(mono)
                        m2[j] += 1
                        m2 = tuple(m2)
                        nxt[m2] = nxt.get(m2, 0.0) + coeff * a[j, i]
                poly = nxt
        for mono, coeff in poly.items():
            out[index[mono], col] = coeff
    return out


def _power(rep, k, kind, name, dim, image):
    """The k-th power of rep by the functor whose generator images are
    image(g, k): Sym (kind sym) or wedge (kind ext) of dimension dim."""
    if dim > MAX_POWER_DIM:
        raise RepresentationError(f"{name}^{k} dimension {dim} over budget {MAX_POWER_DIM}")
    if k == 1:
        return rep
    tag = f"{kind}:{k}"
    return Representation(dim, rep.field, [image(g, k) for g in rep.generators], rep.relations,
                          f"{rep.label}|{tag}" if rep.label else tag,
                          rep.projective_flag, rep.unit_det)


def sym_power(rep, k):
    """Symmetric power functor; dimension binom(n+k-1, k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _power(rep, k, "sym", "Sym", math.comb(rep.n + k - 1, k), _sym_matrix)


def _ext_matrix(a, k):
    subs = list(itertools.combinations(range(a.shape[0]), k))
    out = np.empty((len(subs), len(subs)), dtype=a.dtype)
    for i, rows in enumerate(subs):
        for j, cols in enumerate(subs):
            out[i, j] = np.linalg.det(a[np.ix_(rows, cols)])
    return out


def ext_power(rep, k):
    """Exterior power functor; entries are k x k minors in canonical
    (lexicographic subset) order; wedge^n is the determinant character."""
    if not 1 <= k <= rep.n:
        raise ValueError("need 1 <= k <= n")
    return _power(rep, k, "ext", "wedge", math.comb(rep.n, k), _ext_matrix)


# ---------------------------------------------------------------------------
# built-in representations


def uniformizing_rep(mobius_generators, relations, label="fuchsian"):
    """The rank-2 real representation given by the group's own matrices."""
    gens = [m.mat for m in mobius_generators]
    return Representation(2, "real", gens, relations, label,
                          projective_flag=True, unit_det=True)


def trivial_rep(n, num_generators, relations=(), label="trivial"):
    gens = [np.eye(n) for _ in range(num_generators)]
    return Representation(n, "real", gens, relations, label, unit_det=True)


def _su2_rotation(axis, theta):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    h = n[0] * sx + n[1] * sy + n[2] * sz
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * h


def unitary_cube_rep():
    """Finite-image SU(2) representation of the (3,3,4) triangle group.

    a, b are lifted order-3 rotations about the cube diagonals (1, 1, 1)
    and (1, -1, -1), by 2 pi/3 and -2 pi/3, and c = (ab)^-1 squares to -I,
    so a^3 = b^3 = -I, c^4 = I, abc = I: all relations close up to sign and
    the image is finite (binary octahedral subgroup), hence the norm is
    preserved and the Lyapunov spectrum is forced to zero.
    """
    rels = ((1,) * 3, (2,) * 3, (3,) * 4, (1, 2, 3))  # a^3, b^3, c^4, abc
    a = _su2_rotation((1.0, 1.0, 1.0), 2 * math.pi / 3)
    b = _su2_rotation((1, -1, -1), -2 * math.pi / 3)
    c = np.linalg.inv(a @ b)
    return Representation(2, "complex", [a, b, c], rels, "unitary-cube",
                          projective_flag=True, unit_det=True)


# ---------------------------------------------------------------------------
# file format
#
#   n=<int> field=<real|complex> projective=<0|1> label=<text>
#   <n rows of n entries per generator, complex entries as re+imi>
#   relations:
#   <one word per line, space-separated signed indices>


def _format_entry(v, complex_field):
    if not complex_field:
        return repr(float(v))
    v = complex(v)
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def _parse_entry(tok, complex_field):
    return complex(tok[:-1] + "j") if complex_field and tok.endswith("i") else float(tok)


def format_rep_text(rep):
    lines = [
        f"n={rep.n} field={rep.field} projective={1 if rep.projective_flag else 0} "
        f"label={rep.label}"
    ]
    for g in rep.generators:
        lines.append("")
        for row in g:
            lines.append(" ".join(_format_entry(v, rep.is_complex) for v in row))
    lines.append("relations:")
    for w in rep.relations:
        lines.append(" ".join(str(s) for s in w))
    return "\n".join(lines) + "\n"


def parse_rep_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RepresentationError("empty representation file")
    m = re.match(r"n=(0*[1-9]\d*)\s+field=(real|complex)\s+projective=([01])\s+label=(.*)$",
                 lines[0])
    if not m:
        raise RepresentationError(f"bad header line: {lines[0]!r}")
    n, fieldname, label = int(m.group(1)), m.group(2), m.group(4).strip()
    split = lines.index("relations:") if "relations:" in lines else len(lines)
    numbers = [_parse_entry(tok, fieldname == "complex")
               for ln in lines[1:split] for tok in ln.split()]
    if len(numbers) % (n * n) != 0 or not numbers:
        raise RepresentationError(
            f"matrix data size {len(numbers)} is not a multiple of n^2={n * n}"
        )
    count = len(numbers) // (n * n)
    gens = np.array(numbers, dtype=complex if fieldname == "complex" else float)
    words = []
    # a repeated relations: line is skipped
    for row in (ln.split() for ln in lines[split + 1:] if ln != "relations:"):
        w = tuple(int(tok) for tok in row)
        if any(v == 0 or abs(v) > count for v in w):
            raise RepresentationError(f"relation {w} references missing generators")
        words.append(w)
    return Representation(n, fieldname, gens.reshape(count, n, n), words, label,
                          m.group(3) == "1")


def load_rep(path):
    with open(path) as fh:
        return parse_rep_text(fh.read())
