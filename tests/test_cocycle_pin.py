"""Cocycle rows pinned bit for bit.  They were recorded when the lockstep
became one all-lane matmul per step on a global QR schedule, and recorded
again, with the cocycle unchanged, when the ray tracer moved to the
hyperboloid model: its codings part from the old tracer's after t ~ 20,
and it codes lane 0 of c1-seed4200, which the old tracer dropped.  They
were recorded a third time, with the codings unchanged, when burn-in
lanes moved from a QR at every crossing to the global every-q schedule;
that moved the rows by a few ulps (c1-seed4200, q1 and burn0-minus1 kept
their bits).  They were recorded a fourth time when the lockstep moved from
one step per crossing to one per QR window, each window's images folded
into one product before it meets the frames: the factors keep their order
but not their association, which moved the rows by at most 1.5e-14 on the
triangle group (q1 kept its bits), 1.4e-10 on imag-bend-triple and 6.3e-6
(1e-4 stderr) on real-bend.  `lockstep_per_crossing`, the code it replaced,
is kept below as the oracle of that move.  They were recorded a fifth time,
with the cocycle unchanged, when `geodesic_flow` became the Mobius image of
the imaginary axis: the polygons' vertices moved by ulps, so the codings
part after t ~ 20 and every row changed.  No configuration gained a trace
or cocycle failure.  The mean rows moved by at most 0.8 combined stderr,
except on sym3-q3-burn37 (0.2 to 1.2, and 2.2 on lambda3, from 1.6 stderr
above its exact -1 to 1.4 below); over 64 samples of that configuration
the two codings agree within 0.8 combined stderr.  They were recorded a
sixth time, with the codings unchanged, when the QR interval came to be
set by generator conditioning (`oseledets.qr_interval`) rather than by a
default cap of 8: c1-seed4200, burn0-minus1 and random-base moved from
q = 8 to 19 and real-bend from 8 to 3.  Each of the four was first run
over 64 samples under both schedules: the triangle group's per-sample
exponents moved by at most 1.2e-13 and real-bend's lambda1 by 2.4e-13,
while its lambda2 moved by up to 1.7e-3 a sample (0.003 combined stderr
on the mean), from a mean 2.6e-5 off -lambda1 to exactly -lambda1.  q1,
q16, sym3-q3-burn37 and imag-bend-triple, whose caps are at or below the
rule's q, kept their bits.  They were recorded a seventh time, with the
cocycle unchanged, when the vertex-sign walk replaced the hyperboloid
(P, V) flow as the ray tracer: the codings part after t ~ 30, so every
row changed.  Each configuration was first run over 64 samples under
both codings (the flow kept as `conftest.hyperboloid_crossings`): the
mean exponents agree within 2.04 combined stderr (real-bend; c1-seed4200
1.85, sym3-q3-burn37 1.69, the others at most 0.90), and no configuration
gained a trace or cocycle failure.  Only imag-bend-triple was recorded an
eighth time, when `CocycleAccumulator.flush` stopped turning Q's columns
so that R has a positive diagonal.  numpy's QR is sign-equivariant,
QR(F S) = (Q, R S) for S = diag(+-1), so the real rows kept their bits.
The complex ones moved by at most 2.5e-11 relative: numpy computes the
complex diag R / |diag R| as diag R * (1 / |diag R|), which is an ulp off
+-1 in about one case in seven, so the old flush rescaled complex frames
by 1 +- 2^-53 at those flushes, and the new one is the exact one.
`flush_positive_diagonal`, the old flush, is kept below as the oracle of
that move; every configuration agrees with it, failures included.
Only imag-bend-triple was recorded a ninth time, when complex windows came
to be folded in real arithmetic, A + iB as [[A, -B], [B, A]], each step
gathered on its own: its rows moved by at most 3.7e-11 relative, with the
same (no) failures, and the real rows kept their bits.
`lockstep_complex_fold`, the complex matmul fold, is kept below as the
oracle of that move.  Every rank-2 configuration was recorded a tenth
time when `CocycleAccumulator.flush` came to take the rank-2 QR in closed
form, Q from the frame's first column and log|r22| from each window's
exact log|det|.  Each was first run over 64 samples under both flushes:
lambda1 moved by rounding, at most 4.7e-15 a sample (real-bend), and
lambda2 became -lambda1 exactly, which moved it by at most 1.1e-13 a
sample on the triangle group and 9.5e-10 on imag-bend-triple; no mean
moved by more than 1e-8 combined stderr, and the failures were equal (none).
sym3-q3-burn37, at rank 4, kept its bits.  `flush_lapack`, the LAPACK
flush, is kept below as the oracle of that move.  Every rank-2
configuration was recorded an eleventh time when `oseledets._lockstep`
stopped carrying rank-2 frames: each lane's window products are reduced by
two pairwise product trees, before and after its burn-in end, every node
scaled by an exact power of two; lambda1 is the later root's growth of the
earlier root's first column and lambda2 the windows' log|det| less it.
Each was first run over 64 samples against the windowed lockstep with the
closed-form flush (`lockstep_windowed` below, the oracle of that move; the
older oracles run on its `OracleAccumulator` too): the rows moved by at
most 7.8e-16 a sample on the triangle group, 1.7e-15 on the imaginary
bends and 3.2e-14 on real-bend (q = 3, lambda1 about 1.5); no mean moved
by more than 1.3e-12 combined stderr, lambda2 stayed -lambda1 exactly and
the failures were equal (none).  sym3-q3-burn37, at rank 4, kept its bits.
Only imag-bend-triple was recorded a twelfth time, when complex rank-2
lanes came to stay in the real fold [[A, -B], [B, A]] through the product
trees, lambda1 read off the folded first column, rather than being read
back to complex 2 x 2 products: three of its rows moved by an ulp.  It was
first run over 64 samples under both trees and against `lockstep_windowed`:
the rows moved by at most 4.4e-16 a sample, and lie within 4.4e-16 of the
windowed oracle's, as the old tree's did; on imag-bends-n2 (ten bends,
T = 300) the moves were at most 2.6e-15 a sample, within 1.0e-15 of the
oracle (the old tree 1.7e-15).  No mean moved by more than 4e-14 combined
stderr, lambda2 stayed -lambda1 exactly and the failures were equal (none).
The real configurations and sym3-q3-burn37 kept their bits.  Only two
configurations were recorded a thirteenth time, with the engine unchanged,
when `RunConfig.burn_in` stopped being a field and came always to be
min(50, T/10): burn0-minus1 (a burn-in of 0, whose span ran to T rather
than between crossing epochs) and sym3-q3-burn37 (37 at T = 200) set
burn-ins that no T gives any more.  They became minus1 and sym3-q3, with
their seeds, T, q and normalization kept, at the derived burn-ins 15 and
20.  Their rows lie within 0.003 and 0.013 of the exact 1/2 and (3, 1, -1,
-3), with no trace or cocycle failure, and the engine that ran the old
configurations gives the same bits.

Each configuration runs `oseledets.cocycle` on a fresh coding and compares
every exponent row as `float.hex` strings, together with the trace and
cocycle failures.  The representations here run at the QR interval of the
conditioning rule, or at `qr_interval` where it caps that (their
generators grow far slower than the `FRAME_OVERFLOW` budget), so any
change of product order, QR schedule or burn-in bookkeeping shows.
"""

import functools
import math

import numpy as np
import pytest

from lyaplab import fuchsian, linrep, oseledets
from lyaplab.oseledets import RunConfig, code_samples, cocycle
from test_oseledets import _SteadyRep, _StubRep


@functools.lru_cache(maxsize=None)
def _group(spec):
    dom, gens, rels = fuchsian.build_group(fuchsian.parse_group_spec(spec))
    return dom, linrep.uniformizing_rep(gens, rels, "fuchsian")


def _bent(values):
    _, rep = _group("surface:2")
    split = fuchsian.BendingSplit.surface_standard(2)
    return [fuchsian.bend_representation(rep, split, s) for s in values]


def flush_closed_form(acc, lanes, log_det):
    """The `CocycleAccumulator.flush` that the rank-2 product tree replaced,
    kept as the flush of the oracles below.  Re-orthonormalize lanes (a
    slice or an index array), whose frames have log|det| log_det, by a QR;
    add log |diag R| and return the lanes that degenerated (an |r_ii|
    outside (0, inf)), their frames zeroed.  At rank 2 the QR is closed form
    (Dieci, Russell & Van Vleck, 1997): for (a, c) the frame's first column
    and r11 = hypot(|a|, |c|), Q = [[a, -c*], [c, a*]] / r11 is unitary with
    det 1, and log|r22| = log_det - log r11.  At rank 3 and up Q is kept as
    LAPACK returns it and log_det is not read."""
    frames, bad = acc.frames[lanes], np.empty(0, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate lanes: set aside
        if frames.shape[1] == 2:
            r11 = np.hypot(abs(frames[:, 0, 0]), abs(frames[:, 1, 0]))
            q = np.empty_like(frames)
            q[:, :, 0] = frames[:, :, 0] / r11[:, None]
            q[:, 0, 1], q[:, 1, 1] = -q[:, 1, 0].conj(), q[:, 0, 0].conj()
            log = np.empty((len(q), 2))
            np.subtract(log_det, np.log(r11, out=log[:, 0]), out=log[:, 1])
        else:
            q, r = np.linalg.qr(frames)
            log = np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
        degenerate = not math.isfinite(log.sum())  # some |r_ii| outside (0, inf)
    if degenerate:
        ok = np.isfinite(log).all(axis=1)
        lanes = np.arange(len(acc.frames))[lanes]
        acc.frames[lanes[~ok]] = 0.0
        q, log, lanes, bad = q[ok], log[ok], lanes[ok], lanes[~ok]
    acc.frames[lanes] = q
    acc.log_diag[lanes] += log
    return bad


class OracleAccumulator(oseledets.CocycleAccumulator):
    """The frames of the oracle locksteps: their flush takes each window's
    log|det|, as `CocycleAccumulator.flush` did before the product tree."""

    flush = flush_closed_form


def lockstep_windowed(table, log_dets, batch, part, config, q, rows, failures):
    """The windowed lockstep that the rank-2 product tree replaced, kept as
    its oracle; at rank 3 and up `oseledets._lockstep` still runs it, bit
    for bit.  Run the fused lanes part (lane r·len(batch.index) + i is lane
    i of batch under rep r); append their rows and failures to those of rep
    r.

    Lane k takes its own step j at global step off[k] + j, with off chosen
    so that every burn-in ends at the same global step settle, a multiple of
    q.  Before its start and after its end a lane multiplies image 0, the
    identity, which leaves its frame exactly as it is.  The global steps run
    in windows [wq, wq + q): for a block of windows, the images of one step
    of every window and lane are gathered at a time and folded into one
    product per window and lane by q - 1 batched matmuls (complex images in
    real arithmetic, A + iB as [[A, -B], [B, A]]), then each window is one
    matmul of the frames and one flush of every live lane, all lanes until
    one degenerates (a flush zeroes a failed frame), given the window's
    log|det|, the sum of log_dets (table's, by row) over its steps.  A lane
    before its start holds the identity, whose flush is exact, and its log
    is read at the window of its last step."""
    samples = len(batch.index)
    rep_of, lane_of = np.divmod(part, samples)
    times = [batch.times[i] for i in lane_of]
    lengths = np.array([len(t) for t in times], dtype=np.int64)
    burn = np.array([np.searchsorted(t, config.burn_in, "right") for t in times])
    settle = -(-burn.max(initial=0) // q) * q  # global step at which every burn-in ends
    off = settle - burn
    ends = off + lengths
    width = -(-ends.max(initial=0) // q) * q
    # lanes k and k + samples of part follow one sample and share its coding column
    column = np.arange(len(part)) % samples
    steps = np.array([np.pad(batch.gens[i], (o, width - e))
                      for i, o, e in zip(lane_of[:samples], off, ends)]).T + table.shape[1] // 2
    # rows of the flattened table, (windows, q, lanes)
    windows = (steps[:, column] + rep_of * table.shape[1]).reshape(-1, q, len(part))
    n, field = table.shape[2], table.dtype == complex
    flat, flat_dets = table.reshape(-1, n, n), log_dets.reshape(-1)
    if field:
        flat = np.block([[flat.real, -flat.imag], [flat.imag, flat.real]])
    acc = OracleAccumulator(len(part), n, field)
    base_log, failed, spare = np.zeros_like(acc.log_diag), {}, np.empty_like(acc.frames)
    final = np.zeros_like(acc.log_diag)  # each lane's log at its last window
    closing = {}  # window: the lanes whose last step falls in it
    for lane, w in enumerate(((ends - 1) // q).tolist()):
        closing.setdefault(w, []).append(lane)
    live = slice(None)  # every lane, until one degenerates
    block = max(1, oseledets.FRAME_BUDGET // (3 * len(part) * flat[0].nbytes))
    for w0 in range(0, len(windows), block):
        idx = windows[w0:w0 + block]
        dets = flat_dets[idx].sum(axis=1)  # (windows, lanes) log|det| of each window
        prods = flat[idx[:, 0]]  # (windows, lanes, n, n), 2n x 2n real if complex
        for i in range(1, q):
            prods = flat[idx[:, i]] @ prods
        if field:  # read the complex products back
            real, prods = prods, np.empty((*prods.shape[:2], n, n), dtype=complex)
            prods.real, prods.imag = real[..., :n, :n], real[..., n:, :n]
        for w, (prod, det) in enumerate(zip(prods, dets), w0):
            np.matmul(prod, acc.frames, out=spare)  # out=frames would copy them first
            acc.frames, spare = spare, acc.frames
            bad = acc.flush(live, det[live])
            if len(bad):
                step = np.minimum((w + 1) * q - off[bad], lengths[bad])
                failed.update(zip(bad.tolist(), step.tolist()))
                live = np.setdiff1d(np.arange(len(part))[live], bad)
            if (w + 1) * q == settle:
                base_log = acc.log_diag.copy()
            if w in closing:
                final[closing[w]] = acc.log_diag[closing[w]]
    for lane, (r, i, t) in enumerate(zip(rep_of, lane_of, times)):
        if lane in failed:
            exc = oseledets.NumericCocycleError(f"cocycle frame degenerated at step {failed[lane]}")
            failures[r].append((batch.index[i], repr(exc)))
            continue
        log = np.sort(final[lane] - base_log[lane])[::-1]
        t0 = np.append(0.0, t)  # crossing epochs from the start
        span = t0[-1] - t0[burn[lane]]
        lam = log / span if span > 0.0 else np.zeros(len(log))
        rows[r].append(2.0 * lam if config.normalization == "minus4" else lam)


def lockstep_per_crossing(table, log_dets, batch, part, config, q, rows, failures):
    """The per-crossing lockstep that `oseledets._lockstep` replaced, kept
    as its oracle.  Run the fused lanes part (lane r·len(batch.index) + i is
    lane i of batch under rep r); append their rows and failures to those of
    rep r.

    Lane k takes its own step j at global step off[k] + j, with off chosen
    so that every burn-in ends at the same global step settle.  A step is
    one matmul over all lanes: before its start a lane multiplies image 0,
    the identity, so its frame stays exactly the identity; after its end or
    failure (a flush zeroes a failed frame) it is never read.  The live
    lanes are flushed every q steps counted from settle (so also at settle,
    where the burn-in logs are taken), and a lane ending between two of
    those flushes at its last step.  Each flush is given the log|det| the
    lane's images have gathered since its last one (log_dets are table's)."""
    samples = len(batch.index)
    rep_of, lane_of = np.divmod(part, samples)
    times = [batch.times[i] for i in lane_of]
    lengths = np.array([len(t) for t in times], dtype=np.int64)
    burn = np.array([np.searchsorted(t, config.burn_in, "right") for t in times])
    settle = burn.max(initial=0)  # global step at which every burn-in ends
    off = settle - burn
    ends = off + lengths
    width = ends.max(initial=0)
    # lanes k and k + samples of part follow one sample and share its coding column
    column = np.arange(len(part)) % samples
    steps = np.array([np.pad(batch.gens[i], (o, width - e))
                      for i, o, e in zip(lane_of[:samples], off, ends)]).T + table.shape[1] // 2
    idx = steps[:, column] + rep_of * table.shape[1]  # rows of the flattened table
    flat, flat_dets = table.reshape(-1, *table.shape[2:]), log_dets.reshape(-1)
    acc = OracleAccumulator(len(part), table.shape[2], table.dtype == complex)
    base_log, failed, spare = np.zeros_like(acc.log_diag), {}, np.empty_like(acc.frames)
    changes, alive = set(off.tolist()) | set(ends.tolist()), lengths > 0
    pending = np.zeros(len(part))  # each lane's log|det| since its last flush
    for j in range(width):
        np.matmul(flat[idx[j]], acc.frames, out=spare)  # out=frames would copy them first
        acc.frames, spare = spare, acc.frames
        pending += flat_dets[idx[j]]
        if j in changes:
            live = np.flatnonzero(alive & (off <= j) & (j < ends))
        if (j + 1 - settle) % q == 0:
            due = live
        else:  # lanes ending between two scheduled flushes; every end is in changes
            due = live[ends[live] == j + 1] if j + 1 in changes else live[:0]
        bad = acc.flush(due, pending[due]) if len(due) else due
        pending[due] = 0.0
        if len(bad):
            failed.update(zip(bad.tolist(), (j + 1 - off[bad]).tolist()))
            alive[bad] = False
            changes.add(j + 1)  # drop them from the next step on
        if j + 1 == settle:
            base_log = acc.log_diag.copy()
    for lane, (r, i, t) in enumerate(zip(rep_of, lane_of, times)):
        if lane in failed:
            exc = oseledets.NumericCocycleError(f"cocycle frame degenerated at step {failed[lane]}")
            failures[r].append((batch.index[i], repr(exc)))
            continue
        log = np.sort(acc.log_diag[lane] - base_log[lane])[::-1]
        # both window ends at crossing epochs: the log accrues only at
        # crossings, so pairing it with a time span ending mid-gap would
        # bias the rate by the mean residual gap over T
        t0 = np.append(0.0, t)  # crossing epochs from the start
        span = t0[-1] - t0[burn[lane]]
        lam = log / span if span > 0.0 else np.zeros(len(log))
        rows[r].append(2.0 * lam if config.normalization == "minus4" else lam)


def flush_positive_diagonal(acc, lanes, log_det):
    """The sign-normalizing `CocycleAccumulator.flush` that the bare-QR one
    replaced, kept as its oracle: it turns each Q's columns so that R has a
    positive diagonal, Q * (diag R / |diag R|), before storing it; it
    reads no log_det."""
    lanes = np.arange(len(acc.frames))[lanes]
    if not len(lanes):
        return lanes
    q, r = np.linalg.qr(acc.frames[lanes])
    diag = np.diagonal(r, axis1=1, axis2=2)
    d, bad = np.abs(diag), lanes[:0]
    if not (0.0 < d.min() and d.max() < math.inf):  # set the degenerate lanes aside
        ok = np.all(np.isfinite(d) & (d != 0.0), axis=1)
        acc.frames[lanes[~ok]] = 0.0
        q, diag, d, lanes, bad = q[ok], diag[ok], d[ok], lanes[ok], lanes[~ok]
    acc.frames[lanes] = q * (diag / d)[:, None, :]
    acc.log_diag[lanes] += np.log(d)
    return bad


def flush_lapack(acc, lanes, log_det):
    """The LAPACK `CocycleAccumulator.flush` of every rank that the rank-2
    closed form replaced, kept as its oracle: Q is stored as LAPACK returns
    it and log |diag R| added; it reads no log_det."""
    q, r = np.linalg.qr(acc.frames[lanes])
    d, bad = np.abs(np.diagonal(r, axis1=1, axis2=2)), np.empty(0, dtype=np.intp)
    if not (0.0 < d.min(initial=1.0) and d.max(initial=0.0) < math.inf):
        # set the degenerate lanes aside
        ok = np.all(np.isfinite(d) & (d != 0.0), axis=1)
        lanes = np.arange(len(acc.frames))[lanes]
        acc.frames[lanes[~ok]] = 0.0
        q, d, lanes, bad = q[ok], d[ok], lanes[ok], lanes[~ok]
    acc.frames[lanes] = q
    acc.log_diag[lanes] += np.log(d)
    return bad


def lockstep_complex_fold(table, log_dets, batch, part, config, q, rows, failures):
    """The windowed lockstep before complex windows folded in real
    arithmetic, kept as the oracle of that move: every window folds in the
    table's own scalar field, from images gathered a whole block at a time.
    Run the fused lanes part (lane r·len(batch.index) + i is lane i of
    batch under rep r); append their rows and failures to those of rep r.

    Lane k takes its own step j at global step off[k] + j, with off chosen
    so that every burn-in ends at the same global step settle, a multiple of
    q.  Before its start and after its end a lane multiplies image 0, the
    identity, which leaves its frame exactly as it is.  The global steps run
    in windows [wq, wq + q): a block of windows at a time is gathered and
    folded into one product per window and lane by q - 1 batched matmuls,
    then each window is one matmul of the frames and one flush of every
    live lane, all lanes until one degenerates (a flush zeroes a failed
    frame), given the window's log|det| (log_dets are table's).  A lane
    before its start holds the identity, whose flush is exact (Q = R = I,
    log 0), and its log is read at the window of its last step: so it
    counts the flushes at its own steps burn + m·q (at burn the burn-in logs
    are taken) and at the window end after its last step.  A block holds at
    most FRAME_BUDGET bytes of images, or one window."""
    samples = len(batch.index)
    rep_of, lane_of = np.divmod(part, samples)
    times = [batch.times[i] for i in lane_of]
    lengths = np.array([len(t) for t in times], dtype=np.int64)
    burn = np.array([np.searchsorted(t, config.burn_in, "right") for t in times])
    settle = -(-burn.max(initial=0) // q) * q  # global step at which every burn-in ends
    off = settle - burn
    ends = off + lengths
    width = -(-ends.max(initial=0) // q) * q
    # lanes k and k + samples of part follow one sample and share its coding column
    column = np.arange(len(part)) % samples
    steps = np.array([np.pad(batch.gens[i], (o, width - e))
                      for i, o, e in zip(lane_of[:samples], off, ends)]).T + table.shape[1] // 2
    # rows of the flattened table, (windows, q, lanes)
    windows = (steps[:, column] + rep_of * table.shape[1]).reshape(-1, q, len(part))
    flat, flat_dets = table.reshape(-1, *table.shape[2:]), log_dets.reshape(-1)
    acc = OracleAccumulator(len(part), table.shape[2], table.dtype == complex)
    base_log, failed, spare = np.zeros_like(acc.log_diag), {}, np.empty_like(acc.frames)
    final = np.zeros_like(acc.log_diag)  # each lane's log at its last window
    closing = {}  # window: the lanes whose last step falls in it
    for lane, w in enumerate(((ends - 1) // q).tolist()):
        closing.setdefault(w, []).append(lane)
    live = slice(None)  # every lane, until one degenerates
    block = max(1, oseledets.FRAME_BUDGET // (q * acc.frames.nbytes))
    for w0 in range(0, len(windows), block):
        images = flat[windows[w0:w0 + block]]  # (windows, q, lanes, n, n)
        dets = flat_dets[windows[w0:w0 + block]].sum(axis=1)  # (windows, lanes)
        prods = images[:, 0]
        for i in range(1, q):
            prods = images[:, i] @ prods
        for w, (prod, det) in enumerate(zip(prods, dets), w0):
            np.matmul(prod, acc.frames, out=spare)  # out=frames would copy them first
            acc.frames, spare = spare, acc.frames
            bad = acc.flush(live, det[live])
            if len(bad):
                step = np.minimum((w + 1) * q - off[bad], lengths[bad])
                failed.update(zip(bad.tolist(), step.tolist()))
                live = np.setdiff1d(np.arange(len(part))[live], bad)
            if (w + 1) * q == settle:
                base_log = acc.log_diag.copy()
            if w in closing:
                final[closing[w]] = acc.log_diag[closing[w]]
    for lane, (r, i, t) in enumerate(zip(rep_of, lane_of, times)):
        if lane in failed:
            exc = oseledets.NumericCocycleError(f"cocycle frame degenerated at step {failed[lane]}")
            failures[r].append((batch.index[i], repr(exc)))
            continue
        log = np.sort(final[lane] - base_log[lane])[::-1]
        # both window ends at crossing epochs: the log accrues only at
        # crossings, so pairing it with a time span ending mid-gap would
        # bias the rate by the mean residual gap over T
        t0 = np.append(0.0, t)  # crossing epochs from the start
        span = t0[-1] - t0[burn[lane]]
        lam = log / span if span > 0.0 else np.zeros(len(log))
        rows[r].append(2.0 * lam if config.normalization == "minus4" else lam)


# name: (group, representations, RunConfig keyword arguments)
CONFIGS = {
    "c1-seed4200": ("triangle:3,3,4", lambda rep: [rep],
                    dict(T=1000.0, samples=4, seed=4200)),
    "sym3-q3": ("triangle:3,3,4", lambda rep: [linrep.sym_power(rep, 3)],
                dict(T=200.0, samples=4, seed=51, qr_interval=3)),
    "q1": ("triangle:3,3,4", lambda rep: [rep], dict(T=150.0, samples=4, seed=52, qr_interval=1)),
    "q16": ("triangle:3,3,4", lambda rep: [rep],
            dict(T=300.0, samples=4, seed=53, qr_interval=16)),
    "minus1": ("triangle:3,3,4", lambda rep: [rep],
               dict(T=150.0, samples=4, seed=54, normalization="minus1")),
    "random-base": ("triangle:3,3,4", lambda rep: [rep],
                    dict(T=150.0, samples=4, seed=55, random_base=True)),
    "imag-bend-triple": ("surface:2", lambda rep: _bent([0.5j, 1j, 2j]),
                         dict(T=150.0, samples=4, seed=56)),
    "real-bend": ("surface:2", lambda rep: _bent([1.5]), dict(T=150.0, samples=4, seed=57)),
}

# complex configurations at n = 2, 3 and 16, with the bound on their move
# against lockstep_complex_fold relative to each row's largest exponent, or
# None where the rows are rounding noise and compared absolutely (see
# test_real_fold_matches_complex_fold_oracle)
FOLDED = {
    "imag-bends-n2": ("surface:2", lambda rep: _bent([0.2j * k for k in range(1, 11)]),
                      dict(T=300.0, samples=4, seed=11), 1e-9),
    "bend-sym2-n3": ("surface:2", lambda rep: [linrep.sym_power(b, 2) for b in _bent([0.5j])],
                     dict(T=300.0, samples=4, seed=12), 1e-8),
    "cube-sym15-n16": ("triangle:3,3,4",
                       lambda rep: [linrep.sym_power(linrep.unitary_cube_rep(), 15)],
                       dict(T=100.0, samples=4, seed=13), None),
}


def _scaled(rep):
    """rep's generators times 1 + g/10: no relation holds, but log|det| != 0."""
    return linrep.Representation(2, "real", [(1.0 + 0.1 * g) * rep.generator_image(g)
                                             for g in range(1, rep.num_generators + 1)],
                                 (), "scaled")


# a rank-2 configuration whose lambda2 reads the windows' log|det|
SCALED = {"scaled-det": ("triangle:3,3,4", lambda rep: [_scaled(rep)],
                         dict(T=150.0, samples=4, seed=58))}


def _setup(name):
    """(domain, representations, RunConfig) of configuration name."""
    spec, reps, kwargs = {**CONFIGS, **FOLDED, **SCALED}[name][:3]
    dom, rep = _group(spec)
    return dom, reps(rep), RunConfig(**kwargs)


def _run(name):
    """(coding, per rep: (rows, cocycle failures)) of configuration name."""
    dom, reps, config = _setup(name)
    batch = code_samples(dom, config)
    return batch, cocycle(reps, batch, config)


def _record(name):
    """(trace failure indices, per rep: (row hex strings, cocycle failures))."""
    batch, out = _run(name)
    return ([i for i, _ in batch.failures],
            [([[float(v).hex() for v in row] for row in rows], [list(f) for f in lost])
             for rows, lost, _ in out])


# (trace failures, [(rows as float.hex, failures)] per rep)
PINS = {
    "c1-seed4200":
        ([],
         [([["0x1.ffe94a1b7b4c6p-1", "-0x1.ffe94a1b7b4c6p-1"],
            ["0x1.fffc392cba389p-1", "-0x1.fffc392cba389p-1"],
            ["0x1.ff9a70b07807bp-1", "-0x1.ff9a70b07807bp-1"],
            ["0x1.001058b1d051fp+0", "-0x1.001058b1d051fp+0"]],
           [])]),
    "imag-bend-triple":
        ([],
         [([["0x1.ebcd8f40f39e6p-1", "-0x1.ebcd8f40f39e6p-1"],
            ["0x1.ddb7abbb3a69cp-1", "-0x1.ddb7abbb3a69cp-1"],
            ["0x1.ebb9865c9a29bp-1", "-0x1.ebb9865c9a29bp-1"],
            ["0x1.ef57830f3608dp-1", "-0x1.ef57830f3608dp-1"]],
           []),
          ([["0x1.a3a44ccd4119cp-1", "-0x1.a3a44ccd4119cp-1"],
            ["0x1.6875f7786fed6p-1", "-0x1.6875f7786fed6p-1"],
            ["0x1.9ecba81670c09p-1", "-0x1.9ecba81670c09p-1"],
            ["0x1.af5204322ac77p-1", "-0x1.af5204322ac77p-1"]],
           []),
          ([["0x1.8c9ff892b7cf5p-1", "-0x1.8c9ff892b7cf5p-1"],
            ["0x1.3496e735a44b5p-1", "-0x1.3496e735a44b5p-1"],
            ["0x1.7eadb0a383b8ap-1", "-0x1.7eadb0a383b8ap-1"],
            ["0x1.93b443a3811f8p-1", "-0x1.93b443a3811f8p-1"]],
           [])]),
    "minus1":
        ([],
         [([["0x1.fdd3d98b79d7ap-2", "-0x1.fdd3d98b79d7ap-2"],
            ["0x1.ffa51a0eb4884p-2", "-0x1.ffa51a0eb4884p-2"],
            ["0x1.fdd9520f3e35ep-2", "-0x1.fdd9520f3e35ep-2"],
            ["0x1.017f2e70b5cb4p-1", "-0x1.017f2e70b5cb4p-1"]],
           [])]),
    "q1":
        ([],
         [([["0x1.fcfd44fa7a231p-1", "-0x1.fcfd44fa7a231p-1"],
            ["0x1.00ff5e645dd14p+0", "-0x1.00ff5e645dd14p+0"],
            ["0x1.fddf5c77176f6p-1", "-0x1.fddf5c77176f6p-1"],
            ["0x1.00a945ba4595fp+0", "-0x1.00a945ba4595fp+0"]],
           [])]),
    "q16":
        ([],
         [([["0x1.ffd8223ac8935p-1", "-0x1.ffd8223ac8935p-1"],
            ["0x1.00e0b69d3db8ep+0", "-0x1.00e0b69d3db8ep+0"],
            ["0x1.00e266364d3bap+0", "-0x1.00e266364d3bap+0"],
            ["0x1.ff2f49940467ep-1", "-0x1.ff2f49940467ep-1"]],
           [])]),
    "random-base":
        ([],
         [([["0x1.ffc389eb81f5fp-1", "-0x1.ffc389eb81f5fp-1"],
            ["0x1.ffdd90bfbd57ap-1", "-0x1.ffdd90bfbd57ap-1"],
            ["0x1.003673ed7e94dp+0", "-0x1.003673ed7e94dp+0"],
            ["0x1.fe4fc3b9368bfp-1", "-0x1.fe4fc3b9368bfp-1"]],
           [])]),
    "real-bend":
        ([],
         [([["0x1.721b583b1ef99p+0", "-0x1.721b583b1ef99p+0"],
            ["0x1.56ce020782e67p+0", "-0x1.56ce020782e67p+0"],
            ["0x1.2b69e6c474499p+0", "-0x1.2b69e6c474499p+0"],
            ["0x1.6461c1b28f5dep+0", "-0x1.6461c1b28f5dep+0"]],
           [])]),
    "sym3-q3":
        ([],
         [([["0x1.7f33259426d7ap+1", "0x1.fd618ed7830cdp-1", "-0x1.ff9ef84a7ea7fp-1",
             "-0x1.7ea3cb3767f14p+1"],
            ["0x1.7e6ac2beb0bf3p+1", "0x1.fdfc4061c510cp-1", "-0x1.fdb292ae09041p-1",
             "-0x1.7e7d2e2b9fc2ap+1"],
            ["0x1.815378102b635p+1", "0x1.008e5da8920c2p+0", "-0x1.014ee2cb0dd2dp+0",
             "-0x1.80f3357eed800p+1"],
            ["0x1.7e911c9e93b78p+1", "0x1.fe0909ce26d04p-1", "-0x1.fe1f62048d9a0p-1",
             "-0x1.7e8b8690fa050p+1"]],
           [])]),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_bit_identical(name):
    assert _record(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_windowed_lockstep_matches_per_crossing_oracle(name, monkeypatch):
    """The windowed lockstep, and at rank 2 its product tree, only
    reassociate the per-crossing product, so they keep the failures of the
    per-crossing lockstep and its rows up to rounding: 1e-12 on the
    triangle group, a tenth of a stderr on the bent surfaces, whose products
    are far worse conditioned."""
    batch, windowed = _run(name)
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_per_crossing)
    oracle_batch, oracle = _run(name)
    assert batch.failures == oracle_batch.failures
    for (rows, lost, _), (want, want_lost, _) in zip(windowed, oracle, strict=True):
        assert lost == want_lost
        assert rows.shape == want.shape
        if CONFIGS[name][0] == "triangle:3,3,4":
            assert np.abs(rows - want).max() <= 1e-12
        else:
            stderr = want.std(axis=0, ddof=1) / np.sqrt(len(want))
            assert np.all(np.abs(rows - want) <= 0.1 * stderr)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_closed_form_matches_lapack_oracle(name, monkeypatch):
    """The rank-2 product tree, like the closed-form flush before it, keeps
    the failures of the windowed lockstep with the LAPACK flush and its
    lambda1 up to rounding: 1e-12 on the triangle group, 1e-9 relative on
    the bent surfaces; lambda2 is -lambda1 exactly, since every rank-2
    representation here has unit determinant.  Rank 4 runs LAPACK either
    way, bit for bit."""
    batch, closed = _run(name)
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_windowed)
    monkeypatch.setattr(OracleAccumulator, "flush", flush_lapack)
    oracle_batch, oracle = _run(name)
    assert batch.failures == oracle_batch.failures
    for rep, (rows, lost, _), (want, want_lost, _) in zip(_setup(name)[1], closed, oracle,
                                                          strict=True):
        assert lost == want_lost
        assert rows.shape == want.shape
        if rep.n > 2:
            assert np.array_equal(rows, want)
            continue
        assert rep.unit_det and np.array_equal(rows[:, 1], -rows[:, 0])
        if CONFIGS[name][0] == "triangle:3,3,4":
            assert np.abs(rows[:, 0] - want[:, 0]).max() <= 1e-12
        else:
            assert np.all(np.abs(rows[:, 0] - want[:, 0]) <= 1e-9 * np.abs(want[:, 0]))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bare_qr_matches_positive_diagonal_oracle(name, monkeypatch):
    """QR is sign-equivariant, so storing Q as LAPACK returns it keeps every
    |r_ii| of the positive-diagonal flush: the rows agree to 1e-12 on the
    triangle group and to 1e-9 relative on the bent surfaces, where the
    complex diag R / |diag R| of the oracle is an ulp off +-1 at times, and
    the failures are equal.  Both run the windowed lockstep, whose rank-2
    bare-QR flush is the oracle flush_lapack."""
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_windowed)
    monkeypatch.setattr(OracleAccumulator, "flush", flush_lapack)
    batch, bare = _run(name)
    monkeypatch.setattr(OracleAccumulator, "flush", flush_positive_diagonal)
    oracle_batch, oracle = _run(name)
    assert batch.failures == oracle_batch.failures
    for (rows, lost, _), (want, want_lost, _) in zip(bare, oracle, strict=True):
        assert lost == want_lost
        assert rows.shape == want.shape
        if CONFIGS[name][0] == "triangle:3,3,4":
            assert np.abs(rows - want).max() <= 1e-12
        else:
            assert np.all(np.abs(rows - want) <= 1e-9 * np.abs(want))


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(FOLDED))
def test_real_fold_matches_complex_fold_oracle(name, monkeypatch):
    """In the windowed lockstep (at rank 3 and up `_lockstep` itself, see
    test_tree_matches_windowed_oracle), real tables keep the bits of the
    complex matmul fold, and the failures are equal.  Complex ones fold in
    real arithmetic, which moves their rows by rounding: on the triangle
    group, where the unitary cube's finite image has every exponent 0 and
    the rows are rounding noise, by at most 1e-12; on the bent surfaces by
    at most 1e-9 of each row's largest exponent, or the bound FOLDED names.
    Sym^2 of a bend runs at q = 4 and its weakest exponents carry the most
    rounding of its window products: the complex fold itself is up to
    3.3e-9 of a row's largest away from a fold in long double (seeds 0-9 at
    T = 300), so two double folds can only be asked to agree to 1e-8 there."""
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_windowed)
    batch, folded = _run(name)
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_complex_fold)
    oracle_batch, oracle = _run(name)
    assert batch.failures == oracle_batch.failures
    spec, tol = {**CONFIGS, **FOLDED}[name][0], FOLDED[name][3] if name in FOLDED else 1e-9
    for rep, (rows, lost, _), (want, want_lost, _) in zip(_setup(name)[1], folded, oracle,
                                                          strict=True):
        assert lost == want_lost
        assert rows.shape == want.shape
        if not rep.is_complex:
            assert np.array_equal(rows, want)
        elif spec == "triangle:3,3,4":
            assert np.abs(rows - want).max() <= 1e-12
        else:
            assert np.all(np.abs(rows - want) <= tol * np.abs(want).max(axis=1, keepdims=True))


@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(FOLDED) + sorted(SCALED))
def test_tree_matches_windowed_oracle(name, monkeypatch):
    """The rank-2 product tree only reassociates the windowed lockstep's
    product of each lane (a complex lane's in its real fold) and reads
    lambda2 off the windows' log|det|, as its closed-form flush did: the
    failures are equal and every rank-2 row agrees within 1e-13 absolute.  Rank 3 and up run the windowed lockstep itself,
    bit for bit."""
    batch, tree = _run(name)
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_windowed)
    oracle_batch, oracle = _run(name)
    assert batch.failures == oracle_batch.failures
    for rep, (rows, lost, _), (want, want_lost, _) in zip(_setup(name)[1], tree, oracle,
                                                          strict=True):
        assert lost == want_lost
        assert rows.shape == want.shape
        if rep.n > 2:
            assert np.array_equal(rows, want)
        else:
            assert np.abs(rows - want).max() <= 1e-13


class _SingularRep:
    """Generator 2 maps every frame to zero, so lanes that cross it
    degenerate; generator 1 is invertible."""

    n, is_complex, num_generators, label, unit_det = 2, False, 2, "singular", False

    def generator_image(self, g):
        return np.diag([2.0, 0.5]) if abs(g) == 1 else np.zeros((2, 2))


class _SingularRep3(_SingularRep):
    """_SingularRep at rank 3, whose lanes carry frames and LAPACK's QR."""

    n = 3

    def generator_image(self, g):
        return np.diag([2.0, 1.0, 0.5]) if abs(g) == 1 else np.zeros((3, 3))


# burn-ins of 1, 2 and 5 crossings, at T = 10 burn_in (burn_in is min(50, T/10))
@pytest.mark.parametrize("q", [1, 3, 4, 5])
@pytest.mark.parametrize("burn_in", [1.2, 2.5, 5.5])
def test_degenerate_steps_match_per_crossing_oracle(q, burn_in, monkeypatch):
    # lanes of 12, 10 and 7 crossings, the last two degenerating at their
    # crossings 3 and 6, before and inside their last window
    times = (np.arange(1.0, 13.0), np.arange(1.0, 11.0), np.arange(1.0, 8.0))
    gens = (np.full(12, 1), np.array([1, 1, 2] + [1] * 7), np.array([1] * 5 + [2, 1]))
    batch = oseledets.CodingBatch((0, 1, 2), times, gens)
    config = RunConfig(T=10 * burn_in, samples=3, seed=0, qr_interval=q)
    assert config.burn_in == burn_in
    assert oseledets.qr_interval(_SingularRep())[0] == 1  # a zero image: log cond inf
    # so run at the cap itself, to degenerate inside windows of q steps
    monkeypatch.setattr(oseledets, "_intervals",
                        lambda table, cap: [(cap, "unresolved")] * len(table))
    windowed = cocycle([_SingularRep()], batch, config)
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_per_crossing)
    [(want, want_lost, _)] = cocycle([_SingularRep()], batch, config)
    [(rows, lost, _)] = windowed
    assert [i for i, _ in lost] == [1, 2]
    assert lost == want_lost
    assert np.abs(rows - want).max() <= 1e-12


@pytest.mark.parametrize("q", [1, 3, 4, 5])
@pytest.mark.parametrize("burn_in", [1.2, 2.5, 5.5])
def test_degenerate_lanes_match_windowed_oracle(q, burn_in, monkeypatch):
    # the lanes of test_degenerate_steps_match_per_crossing_oracle at ranks 2
    # and 3, and those of test_oseledets' fused _StubRep between two
    # _SteadyReps, which degenerate at their crossings 3 and 1
    singular = ((np.arange(1.0, 13.0), np.arange(1.0, 11.0), np.arange(1.0, 8.0)),
                (np.full(12, 1), np.array([1, 1, 2] + [1] * 7), np.array([1] * 5 + [2, 1])))
    cases = [([_SingularRep()], *singular), ([_SingularRep3()], *singular),
             ([_SteadyRep(), _StubRep(), _SteadyRep()], (np.arange(1.0, 13.0),) * 3,
              (np.full(12, 1), np.array([1, 1, 2] + [1] * 9), np.array([2, -1] * 6)))]
    config = RunConfig(T=10 * burn_in, samples=3, seed=0, qr_interval=q)
    monkeypatch.setattr(oseledets, "_intervals",
                        lambda table, cap: [(cap, "unresolved")] * len(table))
    for reps, times, gens in cases:
        batch = oseledets.CodingBatch((0, 1, 2), times, gens)
        tree = cocycle(reps, batch, config)
        with monkeypatch.context() as patch:
            patch.setattr(oseledets, "_lockstep", lockstep_windowed)
            oracle = cocycle(reps, batch, config)
        assert any(lost for _, lost, _ in tree)
        for (rows, lost, _), (want, want_lost, _) in zip(tree, oracle, strict=True):
            assert lost == want_lost
            assert rows.shape == want.shape
            assert np.abs(rows - want).max(initial=0.0) <= 1e-13
