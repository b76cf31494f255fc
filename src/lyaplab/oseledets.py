"""The cocycle engine: QR-reorthonormalized holonomy products driven by
geodesic codings, averaged over random geodesics into a Lyapunov spectrum.

Normalization: internally everything is a growth rate per unit curvature -1
arc length; the 'minus4' reporting convention multiplies by 2 (the metric
of curvature -4 halves lengths), which puts the uniformizing rank-2
representation at lambda_1 = 1.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fuchsian import trace_geodesic
from .hypgeo import HPoint, UnitTangent

# the two a-priori bounds of a representation's QR interval (see qr_interval)
FRAME_OVERFLOW = 1e120  # no frame entry reaches it, whatever the determinant
QR_BUDGET = 25.0  # log cond of a window product: eps * e^25 ~ 1.6e-5 relative error
FRAME_BUDGET = 1 << 25  # bytes of one chunk's frame stack (lanes, n, n) and of a block's fold arrays


class NumericCocycleError(ArithmeticError):
    pass


class InsufficientDataError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    T: float
    samples: int
    seed: int
    qr_interval: int = None  # cap on every representation's QR interval; None: no cap
    normalization: str = "minus4"
    random_base: bool = False
    burn_in: float = None  # None: min(50, T/10); frame-alignment transient

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.qr_interval is not None and self.qr_interval < 1:
            raise ValueError("qr_interval must be >= 1")
        if self.normalization not in ("minus4", "minus1"):
            raise ValueError("normalization must be minus4|minus1")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", min(50.0, self.T / 10.0))
        if not 0 <= self.burn_in < self.T:
            raise ValueError("burn_in must lie in [0, T)")


@dataclass(frozen=True)
class CodingBatch:
    """Side crossings of the sample geodesics of one run: lane i codes
    sample index[i], with crossing times times[i] in (0, T] and the signed
    generators gens[i] applied there, the float64 and int64 arrays of
    fuchsian.trace_geodesic as it returned them.  The coding depends only on the curve
    and key = (T, samples, seed, random_base), never on the representation.
    failures holds (sample index, exception repr) of each failed trace.
    """

    index: tuple
    times: tuple
    gens: tuple
    key: tuple = None
    failures: tuple = ()


def _coding_key(config):
    return (config.T, config.samples, config.seed, config.random_base)


def code_samples(dom, config):
    """Trace the geodesic of every sample of config into a CodingBatch;
    sample i starts from default_rng([seed, i]), whatever the batching."""
    index, times, gens, failures = [], [], [], []
    for i in range(config.samples):
        rng = np.random.default_rng([config.seed, i])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        base = _sample_base(dom, rng) if config.random_base else dom.interior_point
        try:
            t, g = trace_geodesic(dom, UnitTangent(base, angle), config.T)
        except (ArithmeticError, RuntimeError) as exc:  # keep sampling
            failures.append((i, repr(exc)))
            continue
        index.append(i)
        times.append(t)
        gens.append(g)
    return CodingBatch(tuple(index), tuple(times), tuple(gens),
                       _coding_key(config), tuple(failures))


class CocycleAccumulator:
    """Orthonormal frames of a batch of lanes + accumulated log R diagonals."""

    def __init__(self, lanes, n, complex_field=False):
        self.frames = np.zeros((lanes, n, n), dtype=complex if complex_field else float)
        self.frames[:, np.arange(n), np.arange(n)] = 1.0
        self.log_diag = np.zeros((lanes, n))

    def flush(self, lanes):
        """Re-orthonormalize lanes (a slice or an index array) by a QR, add
        log |diag R| and return the lanes that degenerated (an |r_ii| outside
        (0, inf)), their frames zeroed.  Q is kept as LAPACK returns it: QR is
        sign-equivariant, so no later |r_ii| depends on its columns' signs."""
        frames, bad = self.frames[lanes], np.empty(0, dtype=np.intp)
        with np.errstate(divide="ignore", invalid="ignore"):  # degenerate lanes: set aside
            q, r = np.linalg.qr(frames)
            log = np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
            degenerate = not math.isfinite(log.sum())  # some |r_ii| outside (0, inf)
        if degenerate:
            ok = np.isfinite(log).all(axis=1)
            lanes = np.arange(len(self.frames))[lanes]
            self.frames[lanes[~ok]] = 0.0
            q, log, lanes, bad = q[ok], log[ok], lanes[ok], lanes[~ok]
        self.frames[lanes] = q
        self.log_diag[lanes] += log
        return bad


def _scale(m, e):
    """m / 2^k per matrix of the stack m, in place, for k putting its largest
    real or imaginary |entry| in [1, 2) (exact; the identity stays); add k to e."""
    x = m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1]).view(float)
    k = np.frexp(np.maximum(x.max(axis=-1), -x.min(axis=-1)))[1] - 1
    e += k.reshape(-1, len(e)).sum(axis=0)
    return np.ldexp(x, -k[..., None], out=x).view(m.dtype).reshape(m.shape)


def _push(counter, m, key, e, work):
    """Merge leaves m, the first of index key, into counter (counter[k]: the level-k
    node waiting for its later sibling); nodes 2j, 2j + 1 merge as 2j + 1 @ 2j, scaled, in
    place in m, then in the two buffers of work by turns (room for len(m) + 1 nodes each);
    counter keeps copies."""
    m, level, free = _scale(m, e), 0, 0
    while len(m):
        if key % 2:  # the first node closes its pair
            m = np.concatenate([counter.pop(level)[None], m], out=work[free][:len(m) + 1])
            key, free = key - 1, 1 - free
        if len(m) % 2:
            counter[level], m = m[-1].copy(), m[:-1]
        m = np.matmul(m[1::2], m[::2], out=work[free][:len(m) // 2])
        m, key, level, free = _scale(m, e), key // 2, level + 1, 1 - free


def _images(reps):
    """The signed generator images of reps, one stack: image m + g of rep r
    at [r, m + g] (image m the identity)."""
    m, eye = reps[0].num_generators, np.eye(reps[0].n)
    return np.array([[rep.generator_image(g) if g else eye for g in range(-m, m + 1)]
                     for rep in reps])


def qr_interval(rep):
    """(q, unresolved): the QR interval of rep and, when no interval can
    resolve its spectrum, why ("" when q does).

    q is the least of two a-priori bounds over the signed generator images,
    and at least 1; cocycle caps it by config.qr_interval.  Overflow:
    q <= (log FRAME_OVERFLOW - log(n)/2 - 1) / log G for G the largest
    Frobenius norm (taken as at least e, so that q stays finite where
    nothing grows), so a product of q images keeps an orthonormal frame's
    entries below FRAME_OVERFLOW / e; this covers representations whose
    determinant is not 1.  Conditioning: q <= QR_BUDGET / c for c the
    largest log cond(g).  A window product A = g_q...g_1 has rounding error
    about eps * prod |g_i| and smallest singular value at least
    prod sigma_min(g_i), so its weakest direction carries a relative error
    of at most eps * e^(q c) <= eps * e^QR_BUDGET (the QR scheme of
    Benettin, Galgani, Giorgilli & Strelcyn, 1980).  When c > QR_BUDGET not
    even q = 1 certifies it, and rep is unresolved.  The rule is the same at
    rank 2, where it guards lambda1's windows alone (lambda2 is log|det|'s)."""
    return _intervals(_images([rep]), None)[0]


def _intervals(table, cap):
    """qr_interval of each representation r of table, whose signed
    generator images are table[r], with q capped by cap unless it is None:
    one batched SVD for all, of the generators alone, since an inverse has
    the condition number of its generator and the identity has 1."""
    s = np.linalg.svd(table[:, table.shape[1] // 2 + 1:], compute_uv=False)  # nonincreasing
    cond = np.full(s.shape[:2], math.inf)  # a singular image: infinite
    np.divide(s[..., 0], s[..., -1], out=cond, where=s[..., -1] > 0.0)
    growth = np.log(np.linalg.norm(table, axis=(2, 3)).max(axis=1)).clip(min=1.0)
    budget = math.log(FRAME_OVERFLOW) - 0.5 * math.log(table.shape[-1]) - 1.0
    out = []
    for c, g in zip(np.log(cond.max(axis=1)).tolist(), growth.tolist()):
        q = min(int(budget // g), int(QR_BUDGET // c) if c > 0.0 else math.inf,
                math.inf if cap is None else cap)
        out.append((max(1, q), "" if c <= QR_BUDGET else (
            f"spectrum unresolved: a generator image has log cond {c:.4g}, past the QR "
            f"budget {QR_BUDGET:g}, so no QR interval resolves " + ("the windows of its top "
            "exponent" if table.shape[-1] == 2 else "its weakest exponents"))))
    return out


def cocycle(reps, batch, config):
    """Per representation of reps, the exponent rows (sorted nonincreasing)
    of the lanes that ran through, in lane order, (sample index, repr) of
    those whose frame degenerated, and why no QR interval resolves its
    spectrum ("" when one does; see qr_interval).

    Between crossings the constant norm is flat, so the cocycle is exactly
    the product of the crossing holonomies.  The reps share size, generator
    count and scalar field.  Each runs at its own QR interval q, from
    qr_interval capped by config.qr_interval, and the reps of one q run
    fused: lane (r, i) multiplies rep r's images along lane i of batch, one
    QR window of q steps at a time (see _lockstep; complex images multiply
    in a real fold, read back only at rank 3 and up); log|det| of each image
    is tabled once for rank 2, exactly 0 for a unit_det rep.  Each lane's
    log counts from the end of its burn_in (log increments up to there, an
    O(1/T) frame-alignment bias, are discarded), at rank 3 and up a QR every
    q of its own steps and one after its last.  A lane's values depend
    neither on its batch nor on the other reps."""
    n, m, field = reps[0].n, reps[0].num_generators, reps[0].is_complex
    if any((rep.n, rep.num_generators, rep.is_complex) != (n, m, field) for rep in reps):
        raise ValueError("fused representations differ in size or scalar field")
    table = _images(reps).astype(complex if field else float)
    log_dets = np.where([[rep.unit_det] for rep in reps], 0.0, np.linalg.slogdet(table)[1])
    schedule = _intervals(table, config.qr_interval)
    chunk = max(1, FRAME_BUDGET // (n * n * table.itemsize))
    rows, failures = [[] for _ in reps], [[] for _ in reps]
    for q in sorted({q for q, _ in schedule}):
        group = [r for r, (qr, _) in enumerate(schedule) if qr == q]
        sub, lanes = table[group], len(group) * len(batch.index)
        for lo in range(0, lanes, chunk):
            _lockstep(sub, log_dets[group], batch, np.arange(lo, min(lo + chunk, lanes)),
                      config, q, [rows[r] for r in group], [failures[r] for r in group])
    return [(np.array(r).reshape(len(r), n), f, why)
            for r, f, (_, why) in zip(rows, failures, schedule)]


def _lockstep(table, log_dets, batch, part, config, q, rows, failures):
    """Run the fused lanes part (lane r·len(batch.index) + i is lane i of
    batch under rep r); append their rows and failures to those of rep r.

    Lane k takes its own step j at global step off[k] + j, with off chosen
    so that every burn-in ends at the same global step settle, a multiple of
    q.  Before its start and after its end a lane multiplies image 0, the
    identity.  The global steps run in windows [wq, wq + q): for a block of
    windows, the images of one step of every window and lane are gathered
    at a time and folded into one product per window and lane by q - 1
    batched matmuls.  Complex images fold in real arithmetic: A + iB maps to
    [[A, -B], [B, A]], a ring homomorphism; each real entry is a length-2n
    dot product over the magnitudes of the complex one, so the QR_BUDGET
    bound stands.  A block holds the running products, one gathered step
    and their product, at most FRAME_BUDGET bytes, or one window, in three
    buffers that every block reuses.

    At rank 2 lambda1 is the growth of one vector, lambda1 + lambda2 that of
    log|det| (Dieci, Russell & Van Vleck, 1997): a lane's windows after
    settle, and before it counted back from settle, are the leaves of two
    pairwise product trees (_push), folded if complex, its own up to
    identities that change no bit.  For u the first column of the earlier
    root and P the later, lambda1 logs log(|P u| / |u|) (a fold's first
    column is u's real part over its imaginary part), lambda2 the later
    windows' log|det| (log_dets, table's by row) less that; a lane fails at
    a window of log|det| not finite.

    At rank 3 and up each window product is read back from its fold, as its
    top-left block plus i times its bottom-left, for one matmul of the
    frames and one flush of every live lane (a flush zeroes a failed frame).
    A lane before its start holds the identity, whose flush is exact, and its
    log is read at the window of its last step."""
    samples = len(batch.index)
    rep_of, lane_of = np.divmod(part, samples)
    # lanes k and k + samples of part follow one sample and share its coding
    # column: what depends on the coding alone is taken once per column
    column = np.arange(len(part)) % samples
    own = lane_of[:samples].tolist()  # the sample of each column
    times = [batch.times[i] for i in own]
    lengths = np.array([len(t) for t in times], dtype=np.int64)
    burn = np.array([np.searchsorted(t, config.burn_in, "right") for t in times])
    # both span ends at crossing epochs: the log accrues only at crossings,
    # so a span ending mid-gap would bias the rate by the mean residual gap
    epochs = [np.append(0.0, t) for t in times]  # crossing epochs from the start
    span = (np.array([e[-1] - e[b] for e, b in zip(epochs, burn.tolist())])
            if config.burn_in > 0.0 else np.full(len(times), config.T))
    settle = -(-burn.max(initial=0) // q) * q  # global step at which every burn-in ends
    off = settle - burn
    ends = off + lengths
    width = -(-ends.max(initial=0) // q) * q
    steps = np.array([np.pad(batch.gens[i], (o, width - e))
                      for i, o, e in zip(own, off, ends)]).T + table.shape[1] // 2
    # rows of the flattened table, (windows, q, lanes); int32 halves the index
    windows = (steps[:, column] + rep_of * table.shape[1]).astype(np.int32)
    windows = windows.reshape(-1, q, len(part))
    off, ends, lengths = off[column], ends[column], lengths[column]  # per lane from here
    n, field = table.shape[2], table.dtype == complex
    flat, flat_dets = table.reshape(-1, n, n), log_dets.reshape(-1)
    if field:
        flat = np.block([[flat.real, -flat.imag], [flat.imag, flat.real]])
    failed, pre_windows = {}, int(settle) // q
    if n == 2:  # the earlier tree's leaves count back from settle: pad it in front
        eye = np.tile(np.eye(len(flat[0])), (len(part), 1, 1))
        pad = (1 << pre_windows.bit_length()) - pre_windows  # to 2^k leaves
        pre, post = {k: eye for k in range(pad.bit_length()) if pad >> k & 1}, {}
        exps = np.zeros(len(part), int)  # of the later tree
        dets = flat_dets[windows].sum(axis=1)  # (windows, lanes) log|det| of each window
        for w, lane in zip(*np.nonzero(~np.isfinite(dets))):  # in window order
            failed.setdefault(int(lane), min((w + 1) * q - off[lane], lengths[lane]))
        log_det = np.add.accumulate(np.concatenate([np.zeros((1, len(part))),
                                                    dets[pre_windows:]]))[-1]
    else:
        acc = CocycleAccumulator(len(part), n, field)
        base_log, frames = np.zeros_like(acc.log_diag), np.empty_like(acc.frames)
        final = np.zeros_like(acc.log_diag)  # each lane's log at its last window
        closing = {}  # window: the lanes whose last step falls in it
        for lane, w in enumerate(((ends - 1) // q).tolist()):
            closing.setdefault(w, []).append(lane)
        live = slice(None)  # every lane, until one degenerates
    block = max(1, FRAME_BUDGET // (3 * len(part) * flat[0].nbytes))
    # the running products, a gathered step and their product, then the trees' upper
    # levels: no view may outlive a block.  The rows are in range; clip does not buffer
    bufs = list(np.empty((3, min(block, len(windows)) + 1, len(part), *flat.shape[1:])))
    for w0 in range(0, len(windows), block):
        idx = windows[w0:w0 + block]
        prods, gathered, spare = (buf[:len(idx)] for buf in bufs)  # (windows, lanes, n, n)
        np.take(flat, idx[:, 0], axis=0, out=prods, mode="clip")
        for i in range(1, q):
            np.matmul(np.take(flat, idx[:, i], axis=0, out=gathered, mode="clip"), prods,
                      out=spare)
            prods, spare = spare, prods
            bufs[0], bufs[2] = bufs[2], bufs[0]
        if n == 2:
            cut = max(0, pre_windows - w0)
            _push(pre, prods[:cut], pad + w0, np.zeros(len(part), int), bufs[1:])
            _push(post, prods[cut:], max(0, w0 - pre_windows), exps, bufs[1:])
            continue
        if field:  # read the complex products back
            real, prods = prods, np.empty((*prods.shape[:2], n, n), dtype=complex)
            prods.real, prods.imag = real[..., :n, :n], real[..., n:, :n]
        for w, prod in enumerate(prods, w0):
            np.matmul(prod, acc.frames, out=frames)  # out=acc.frames would copy them first
            acc.frames, frames = frames, acc.frames
            bad = acc.flush(live)
            if len(bad):
                step = np.minimum((w + 1) * q - off[bad], lengths[bad])
                failed.update(zip(bad.tolist(), step.tolist()))
                live = np.setdiff1d(np.arange(len(part))[live], bad)
            if (w + 1) * q == settle:
                base_log = acc.log_diag.copy()
            if w in closing:
                final[closing[w]] = acc.log_diag[closing[w]]
    if n == 2:
        (u,), p = pre.values(), eye  # the earlier tree ends in its root
        for level in sorted(post):  # the later one is padded with identities to 2^k leaves
            p = _scale(p @ post[level], exps)
        with np.errstate(divide="ignore", invalid="ignore"):  # failed lanes: not read
            top = np.log(np.hypot.reduce(p @ u[:, :, :1], axis=1)[:, 0]
                         / np.hypot.reduce(u[:, :, 0], axis=1))
            top += exps * math.log(2.0)
            final, base_log = np.stack([top, log_det - top], axis=1), 0.0
    span = span[column, None]
    lam = np.divide(np.sort(final - base_log)[:, ::-1], span,
                    out=np.zeros_like(final), where=span > 0.0)
    if config.normalization == "minus4":
        lam = 2.0 * lam
    for lane, step in sorted(failed.items()):
        exc = NumericCocycleError(f"cocycle frame degenerated at step {step}")
        failures[rep_of[lane]].append((batch.index[lane_of[lane]], repr(exc)))
    kept = np.ones(len(part), bool)
    kept[list(failed)] = False
    for r, row in zip(rep_of[kept].tolist(), lam[kept]):
        rows[r].append(row)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Lyapunov spectrum with per-exponent standard errors.

    values are sorted nonincreasing in the requested normalization;
    sample_values holds the per-sample vectors (samples x n) for
    downstream combined-error computations; failures holds (sample index,
    exception repr) of each dropped sample.  unresolved, when not empty,
    says why no QR interval resolves the spectrum (see qr_interval): the
    values were run at q = 1 and their weakest exponents cannot be trusted.
    """

    values: np.ndarray
    stderr: np.ndarray
    samples: int
    normalization_tag: str
    label: str = ""
    T: float = 0.0
    seed: int = 0
    sample_values: np.ndarray = field(default=None, repr=False)
    failures: tuple = ()
    unresolved: str = ""


def _sample_base(dom, rng):
    x0, x1, y0, y1 = dom.bounding_box()
    for _ in range(20000):
        x = rng.uniform(x0, x1)
        u = rng.uniform(0.0, 1.0)
        # hyperbolic area density 1/y^2 on [y0, y1]
        y = 1.0 / (1.0 / y0 - u * (1.0 / y0 - 1.0 / y1))
        if dom.contains(HPoint(x, y)):
            return HPoint(x, y)
    raise RuntimeError("rejection sampling failed to land in the domain")


def estimate_spectra(dom, reps, config, coding=None):
    """Monte-Carlo spectra of reps (one size and scalar field, run fused):
    one long geodesic per sample, averaged, along coding (the CodingBatch
    of config, traced here when not given).  A rep left with fewer than 2
    samples gets its InsufficientDataError in place of an estimate."""
    batch = code_samples(dom, config) if coding is None else coding
    if batch.key != _coding_key(config):
        raise ValueError("coding batch was traced for another run configuration")
    out = []
    for rep, (sample_values, lost, unresolved) in zip(reps, cocycle(reps, batch, config)):
        failures = sorted(batch.failures + tuple(lost))
        rows = len(sample_values)
        if rows < 2:
            out.append(InsufficientDataError(
                f"only {rows} successful samples; failures: {failures[:3]}"))
            continue
        stderr = sample_values.std(axis=0, ddof=1) / math.sqrt(rows)
        out.append(SpectrumEstimate(sample_values.mean(axis=0), stderr, rows,
                                    config.normalization, rep.label, config.T, config.seed,
                                    sample_values, tuple(failures), unresolved))
    return out


def estimate_spectrum(dom, rep, config, coding=None):
    """The spectrum of one representation (see estimate_spectra)."""
    (est,) = estimate_spectra(dom, [rep], config, coding)
    if isinstance(est, InsufficientDataError):
        raise est
    return est


def spectrum_csv(est):
    """CSV per the schema label,i,lambda,stderr,samples,T,seed,normalization."""
    lines = ["label,i,lambda,stderr,samples,T,seed,normalization"]
    for i, (lam, se) in enumerate(zip(est.values, est.stderr), start=1):
        lines.append(
            f"{est.label},{i},{lam:.12g},{se:.12g},{est.samples},"
            f"{est.T:.12g},{est.seed},{est.normalization_tag}"
        )
    return "\n".join(lines) + "\n"
