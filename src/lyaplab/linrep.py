"""Representation data and functors: word evaluation, relation checks,
symmetric and exterior powers, unitarity/elementarity diagnostics, file I/O.

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
# backward-stability fallback of every relation gate (see RelationReport.holds)
RELATIVE_GATE = 1e-8


class RepresentationError(ValueError):
    pass


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
        gens = []
        for g in self.generators:
            m = np.array(g, dtype=complex if self.field == "complex" else float)
            if m.shape != (self.n, self.n):
                raise RepresentationError(f"generator shape {m.shape} != n={self.n}")
            if not np.all(np.isfinite(m.view(float))):
                raise RepresentationError("non-finite generator entries")
            # float64 cannot resolve det = ad - bc against entries >> 1e7
            # (large-twist bends); the gate certifies the moderate range only
            if np.abs(m).max() <= 1e7:
                det = abs(np.linalg.det(m))
                if not (DET_MIN <= det <= DET_MAX):
                    raise RepresentationError(
                        f"generator determinant {det:g} out of range"
                    )
                # the float det of M carries cancellation noise ~ |M|^2 eps
                det_tol = max(1e-9, 32 * np.finfo(float).eps * np.abs(m).max() ** 2)
                if self.unit_det and abs(det - 1.0) > det_tol:
                    raise RepresentationError(f"determinant {det:g} != 1")
            m.setflags(write=False)
            gens.append(m)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "relations", tuple(tuple(w) for w in self.relations))
        if self.unit_det and self.n == 2:
            # adjugate inverse: entrywise exact even at extreme entry scales
            invs = tuple(
                np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) for g in gens
            )
        else:
            invs = tuple(np.linalg.inv(g) for g in gens)
        for m in invs:
            m.setflags(write=False)
        object.__setattr__(self, "_inverses", invs)

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

    def relabel(self, label):
        return Representation(
            self.n, self.field, self.generators, self.relations, label,
            self.projective_flag, self.unit_det,
        )


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

    def holds(self, atol):
        """True when every relation closes to the absolute residual atol or,
        failing that, to rounding level relative to its intermediate
        products: large-entry reps (big twists) cannot satisfy any absolute
        residual in float64, so backward stability is the fallback
        certificate.  A non-finite residual never holds."""
        return self.max_residual <= atol or self.max_relative <= RELATIVE_GATE


def check_relations(rep):
    """Frobenius residual min over sign of |eval(w) -+ I| per relation.

    Sign minimization only applies when projective_flag is set.  Alongside
    the absolute residual the report carries a backward-stability measure:
    the residual divided by the largest intermediate prefix norm, which
    stays at rounding level for any float realization of a true relation
    even when conjugated generators have huge entries.  A product that
    overflows gets an infinite residual on both measures.
    """
    eye = np.eye(rep.n)
    dtype = complex if rep.is_complex else float
    max_res = max_rel = 0.0
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
        # a backward-stable product has |prod - I| <~ eps * max_i |prefix_i||suffix_i|
        scale = max(
            max(1.0, np.abs(p).max()) * ss for p, ss in zip(prefixes, suffix_scale)
        )
        m = prefixes[-1]
        res = np.linalg.norm(m - eye)
        if rep.projective_flag:
            res = min(res, np.linalg.norm(m + eye))
        if not math.isfinite(res):
            res = math.inf  # overflowed: inf / inf would be a NaN that max() drops
        max_res = max(max_res, res)
        max_rel = max(max_rel, res / scale if res < math.inf else res)
    return RelationReport(max_res, max_rel)


# ---------------------------------------------------------------------------
# symmetric and exterior powers


def sym_monomials(n, k):
    """Degree-k exponent vectors over n variables, lexicographic highest
    first (so rank-2 Sym^2 reads x^2, xy, y^2)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), k, n)
    return out


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


def sym_power(rep, k, max_dim=512):
    """Symmetric power functor; dimension binom(n+k-1, k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dim = math.comb(rep.n + k - 1, k)
    if dim > max_dim:
        raise RepresentationError(f"Sym^{k} dimension {dim} over budget {max_dim}")
    if k == 1:
        return rep.relabel(rep.label)
    gens = [_sym_matrix(g, k) for g in rep.generators]
    return Representation(
        dim, rep.field, gens, rep.relations,
        f"{rep.label}|sym:{k}" if rep.label else f"sym:{k}",
        rep.projective_flag, rep.unit_det,
    )


def ext_subsets(n, k):
    return list(itertools.combinations(range(n), k))


def _ext_matrix(a, k):
    subs = ext_subsets(a.shape[0], k)
    out = np.empty((len(subs), len(subs)), dtype=a.dtype)
    for i, rows in enumerate(subs):
        for j, cols in enumerate(subs):
            out[i, j] = np.linalg.det(a[np.ix_(rows, cols)])
    return out


def ext_power(rep, k, max_dim=512):
    """Exterior power functor; entries are k x k minors in canonical
    (lexicographic subset) order; wedge^n is the determinant character."""
    if not 1 <= k <= rep.n:
        raise ValueError("need 1 <= k <= n")
    dim = math.comb(rep.n, k)
    if dim > max_dim:
        raise RepresentationError(f"wedge^{k} dimension {dim} over budget {max_dim}")
    if k == 1:
        return rep.relabel(rep.label)
    gens = [_ext_matrix(g, k) for g in rep.generators]
    return Representation(
        dim, rep.field, gens, rep.relations,
        f"{rep.label}|ext:{k}" if rep.label else f"ext:{k}",
        rep.projective_flag, rep.unit_det,
    )


# ---------------------------------------------------------------------------
# classification heuristics


def _random_words(rep, budget, rng, max_len=8):
    words = []
    for _ in range(budget):
        ln = int(rng.integers(2, max_len + 1))
        w = tuple(
            int(s) * int(rng.choice((-1, 1)))
            for s in rng.integers(1, rep.num_generators + 1, size=ln)
        )
        words.append(w)
    return words


def _is_invariant_line(rep, v, tol):
    v = v / np.linalg.norm(v)
    for g in rep.generators:
        w = g @ v
        w = w / np.linalg.norm(w)
        inner = abs(np.vdot(v, w))
        if math.sqrt(max(0.0, 1.0 - inner * inner)) > tol:
            return False
    return True


def classify(rep, sample_budget=64, seed=7):
    """Advisory label: unitary | reducible-suspected | elementary-suspected
    | non-elementary-suspected.

    Only 'unitary' is a certificate (generator-level check); the rest are
    suspicions from sampled words, never a definitive call.
    """
    eye = np.eye(rep.n)
    if all(np.linalg.norm(g.conj().T @ g - eye) < 1e-8 for g in rep.generators):
        return "unitary"
    rng = np.random.default_rng(seed)
    words = _random_words(rep, sample_budget, rng)
    # common invariant line among the eigenvectors of a sampled word
    probe = eval_word(rep, words[0]) if words else rep.generators[0]
    _, vecs = np.linalg.eig(probe)
    for i in range(rep.n):
        if _is_invariant_line(rep, vecs[:, i], 1e-6):
            return "reducible-suspected"
    ratios = []
    for w in words:
        m = eval_word(rep, w)
        sv = np.linalg.svd(m, compute_uv=False)
        ratios.append((sv[0] / sv[-1], w))
    ratios.sort(key=lambda rw: -rw[0])
    pinching = bool(ratios) and ratios[0][0] > 1.0 + 1e-3
    if rep.n == 2:
        # dihedral-type elementarity: some pinching word has a fixed pair of
        # lines preserved (possibly swapped) by every generator; words with
        # an odd number of swaps have off-pair eigenvectors, so several of
        # the most-pinching candidates are tried
        for ratio, w in ratios[:10]:
            if ratio < 1.0 + 1e-6:
                break
            _, vecs = np.linalg.eig(eval_word(rep, w))
            pair = [vecs[:, 0] / np.linalg.norm(vecs[:, 0]),
                    vecs[:, 1] / np.linalg.norm(vecs[:, 1])]

            def maps_pair(g, pair=pair):
                for v in pair:
                    gv = g @ v
                    gv = gv / np.linalg.norm(gv)
                    sines = []
                    for u in pair:
                        inner = abs(np.vdot(u, gv))
                        sines.append(math.sqrt(max(0.0, 1.0 - inner * inner)))
                    if min(sines) > 1e-6:
                        return False
                return True

            if all(maps_pair(g) for g in rep.generators):
                return "elementary-suspected"
    if not pinching:
        return "elementary-suspected"
    return "non-elementary-suspected"


# ---------------------------------------------------------------------------
# built-in representations


def uniformizing_rep(mobius_generators, relations, label="fuchsian"):
    """The rank-2 real representation given by the group's own matrices."""
    gens = [np.asarray(np.real_if_close(m.mat, tol=100), dtype=float)
            for m in mobius_generators]
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


def unitary_cube_rep(relations=((1,) * 3, (2,) * 3, (3,) * 4, (1, 2, 3)),
                     label="unitary-cube"):
    """Finite-image SU(2) representation of the (3,3,4) triangle group.

    a, b are lifted order-3 rotations about cube diagonals and c = (ab)^-1
    squares to -I, so a^3 = b^3 = -I, c^4 = I, abc = I: all relations close
    up to sign and the image is finite (binary octahedral subgroup), hence
    the norm is preserved and the Lyapunov spectrum is forced to zero.
    """
    diag1 = (1.0, 1.0, 1.0)
    a = _su2_rotation(diag1, 2 * math.pi / 3)
    for axis in [(1, -1, -1), (-1, 1, -1), (-1, -1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]:
        for sgn in (1, -1):
            b = _su2_rotation(axis, sgn * 2 * math.pi / 3)
            c = np.linalg.inv(a @ b)
            if abs(np.trace(c)) < 1e-12:  # order-2 rotation: c^2 = -I
                rep = Representation(2, "complex", [a, b, c], relations, label,
                                     projective_flag=True, unit_det=True)
                if check_relations(rep).max_residual < 1e-12:
                    return rep
    raise AssertionError("no unitary (3,3,4) triple found")


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
    if complex_field:
        if not tok.endswith("i") and "i" not in tok:
            return complex(float(tok))
        return complex(tok.replace("i", "j"))
    return float(tok)


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
    lines = text.splitlines()
    header = None
    idx = 0
    for idx, ln in enumerate(lines):
        if ln.strip():
            header = ln.strip()
            break
    if header is None:
        raise RepresentationError("empty representation file")
    m = re.match(
        r"n=(\d+)\s+field=(real|complex)\s+projective=([01])\s+label=(.*)$", header
    )
    if not m:
        raise RepresentationError(f"bad header line: {header!r}")
    n = int(m.group(1))
    fieldname = m.group(2)
    projective = m.group(3) == "1"
    label = m.group(4).strip()
    complex_field = fieldname == "complex"

    numbers = []
    rel_lines = []
    in_relations = False
    for ln in lines[idx + 1 :]:
        s = ln.strip()
        if not s:
            continue
        if s == "relations:":
            in_relations = True
            continue
        if in_relations:
            rel_lines.append(s)
        else:
            numbers.extend(_parse_entry(tok, complex_field) for tok in s.split())
    if len(numbers) % (n * n) != 0 or not numbers:
        raise RepresentationError(
            f"matrix data size {len(numbers)} is not a multiple of n^2={n * n}"
        )
    count = len(numbers) // (n * n)
    dtype = complex if complex_field else float
    gens = [
        np.array(numbers[i * n * n : (i + 1) * n * n], dtype=dtype).reshape(n, n)
        for i in range(count)
    ]
    relations = []
    for s in rel_lines:
        w = tuple(int(tok) for tok in s.split())
        if any(v == 0 or abs(v) > count for v in w):
            raise RepresentationError(f"relation {w} references missing generators")
        relations.append(w)
    return Representation(n, fieldname, gens, relations, label, projective)


def save_rep(rep, path):
    with open(path, "w") as fh:
        fh.write(format_rep_text(rep))


def load_rep(path):
    with open(path) as fh:
        return parse_rep_text(fh.read())
