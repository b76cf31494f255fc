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
rule's q, kept their bits.

Each configuration runs `oseledets.cocycle` on a fresh coding and compares
every exponent row as `float.hex` strings, together with the trace and
cocycle failures.  The representations here run at the QR interval of the
conditioning rule, or at `qr_interval` where it caps that (their
generators grow far slower than the `FRAME_OVERFLOW` budget), so any
change of product order, QR schedule or burn-in bookkeeping shows.
"""

import functools

import numpy as np
import pytest

from lyaplab import fuchsian, linrep, oseledets
from lyaplab.oseledets import RunConfig, code_samples, cocycle


@functools.lru_cache(maxsize=None)
def _group(spec):
    dom, gens, rels = fuchsian.build_group(fuchsian.parse_group_spec(spec))
    return dom, linrep.uniformizing_rep(gens, rels, "fuchsian")


def _bent(values):
    _, rep = _group("surface:2")
    split = fuchsian.BendingSplit.surface_standard(2)
    return [fuchsian.bend_representation(rep, split, s) for s in values]


def lockstep_per_crossing(table, batch, part, config, q, rows, failures):
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
    those flushes at its last step."""
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
    flat = table.reshape(-1, *table.shape[2:])
    acc = oseledets.CocycleAccumulator(len(part), table.shape[2], table.dtype == complex)
    base_log, failed, spare = np.zeros_like(acc.log_diag), {}, np.empty_like(acc.frames)
    changes, alive = set(off.tolist()) | set(ends.tolist()), lengths > 0
    for j in range(width):
        np.matmul(flat[idx[j]], acc.frames, out=spare)  # out=frames would copy them first
        acc.frames, spare = spare, acc.frames
        if j in changes:
            live = np.flatnonzero(alive & (off <= j) & (j < ends))
        if (j + 1 - settle) % q == 0:
            due = live
        else:  # lanes ending between two scheduled flushes; every end is in changes
            due = live[ends[live] == j + 1] if j + 1 in changes else live[:0]
        bad = acc.flush(due) if len(due) else due
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
        span = t0[-1] - t0[burn[lane]] if config.burn_in > 0.0 else config.T
        lam = log / span if span > 0.0 else np.zeros(len(log))
        rows[r].append(2.0 * lam if config.normalization == "minus4" else lam)


# name: (group, representations, RunConfig keyword arguments)
CONFIGS = {
    "c1-seed4200": ("triangle:3,3,4", lambda rep: [rep],
                    dict(T=1000.0, samples=4, seed=4200)),
    "sym3-q3-burn37": ("triangle:3,3,4", lambda rep: [linrep.sym_power(rep, 3)],
                       dict(T=200.0, samples=4, seed=51, qr_interval=3, burn_in=37.0)),
    "q1": ("triangle:3,3,4", lambda rep: [rep], dict(T=150.0, samples=4, seed=52, qr_interval=1)),
    "q16": ("triangle:3,3,4", lambda rep: [rep],
            dict(T=300.0, samples=4, seed=53, qr_interval=16)),
    "burn0-minus1": ("triangle:3,3,4", lambda rep: [rep],
                     dict(T=150.0, samples=4, seed=54, burn_in=0.0, normalization="minus1")),
    "random-base": ("triangle:3,3,4", lambda rep: [rep],
                    dict(T=150.0, samples=4, seed=55, random_base=True)),
    "imag-bend-triple": ("surface:2", lambda rep: _bent([0.5j, 1j, 2j]),
                         dict(T=150.0, samples=4, seed=56)),
    "real-bend": ("surface:2", lambda rep: _bent([1.5]), dict(T=150.0, samples=4, seed=57)),
}


def _run(name):
    """(coding, per rep: (rows, cocycle failures)) of configuration name."""
    spec, reps, kwargs = CONFIGS[name]
    dom, rep = _group(spec)
    config = RunConfig(**kwargs)
    batch = code_samples(dom, config)
    return batch, cocycle(reps(rep), batch, config)


def _record(name):
    """(trace failure indices, per rep: (row hex strings, cocycle failures))."""
    batch, out = _run(name)
    return ([i for i, _ in batch.failures],
            [([[float(v).hex() for v in row] for row in rows], [list(f) for f in lost])
             for rows, lost, _ in out])


# (trace failures, [(rows as float.hex, failures)] per rep)
PINS = {
    "burn0-minus1":
        ([],
         [([["0x1.ee471f27f8efep-2", "-0x1.ee471f27f8d94p-2"],
            ["0x1.0025dd657f543p-1", "-0x1.0025dd657f526p-1"],
            ["0x1.fd60a275ae6b0p-2", "-0x1.fd60a275ae765p-2"],
            ["0x1.fc49037119f13p-2", "-0x1.fc49037119c72p-2"]],
           [])]),
    "c1-seed4200":
        ([],
         [([["0x1.ff8e75436663bp-1", "-0x1.ff8e754366605p-1"],
            ["0x1.0013228194cb9p+0", "-0x1.0013228194cc9p+0"],
            ["0x1.00091743c7f2bp+0", "-0x1.00091743c7f23p+0"],
            ["0x1.ffdb6bec06211p-1", "-0x1.ffdb6bec061d1p-1"]],
           [])]),
    "imag-bend-triple":
        ([],
         [([["0x1.ef4d1059361aap-1", "-0x1.ef4d10587fe2ap-1"],
            ["0x1.e27f69cf9dac6p-1", "-0x1.e27f69cf982e9p-1"],
            ["0x1.ee37c7b051f9bp-1", "-0x1.ee37c7b00f7d3p-1"],
            ["0x1.e70c97183bc1cp-1", "-0x1.e70c9714c7f81p-1"]],
           []),
          ([["0x1.b8f8bc60a473dp-1", "-0x1.b8f8bc6101495p-1"],
            ["0x1.7546b3e4905fcp-1", "-0x1.7546b3e4c261ap-1"],
            ["0x1.b24cfe9ae5e49p-1", "-0x1.b24cfe9ae2d0cp-1"],
            ["0x1.932a5dfdd917bp-1", "-0x1.932a5dfdeb0e8p-1"]],
           []),
          ([["0x1.a37bbfafaa43ap-1", "-0x1.a37bbfb01cff6p-1"],
            ["0x1.3a6e1d2e66d82p-1", "-0x1.3a6e1d2e65752p-1"],
            ["0x1.99d9e629b5474p-1", "-0x1.99d9e629b58ecp-1"],
            ["0x1.6a22d7f7e5b12p-1", "-0x1.6a22d7f7e7444p-1"]],
           [])]),
    "q1":
        ([],
         [([["0x1.fcb0114cddab8p-1", "-0x1.fcb0114cddab8p-1"],
            ["0x1.ff8c99f723c81p-1", "-0x1.ff8c99f723c83p-1"],
            ["0x1.fefdbbdfdd9cap-1", "-0x1.fefdbbdfdd9cap-1"],
            ["0x1.00d29834fd3bfp+0", "-0x1.00d29834fd3bep+0"]],
           [])]),
    "q16":
        ([],
         [([["0x1.ffdb0f6e405d2p-1", "-0x1.ffdb0f6e405a8p-1"],
            ["0x1.0060ebc7a0f6dp+0", "-0x1.0060ebc7a0f50p+0"],
            ["0x1.005c34d69b430p+0", "-0x1.005c34d69b427p+0"],
            ["0x1.ffe357287cd76p-1", "-0x1.ffe357287cd87p-1"]],
           [])]),
    "random-base":
        ([],
         [([["0x1.fed9652cc02b5p-1", "-0x1.fed9652cc01fdp-1"],
            ["0x1.ffb41a575e2a5p-1", "-0x1.ffb41a575df84p-1"],
            ["0x1.010903ee97205p+0", "-0x1.010903ee971d8p+0"],
            ["0x1.ff94b0b614b19p-1", "-0x1.ff94b0b614b24p-1"]],
           [])]),
    "real-bend":
        ([],
         [([["0x1.67bcbf1aa9e1bp+0", "-0x1.67bcbf1aa42d5p+0"],
            ["0x1.61fe0c82bd98dp+0", "-0x1.61fe0c82cb46ep+0"],
            ["0x1.616ff9ea3ae21p+0", "-0x1.616ff9ea398fap+0"],
            ["0x1.63f244bdc33cap+0", "-0x1.63f244bdc2c56p+0"]],
           [])]),
    "sym3-q3-burn37":
        ([],
         [([["0x1.80a8c134362dcp+1", "0x1.003fd9fb407a1p+0", "-0x1.00d53ca5d9548p+0",
             "-0x1.805e0fdee9c0cp+1"],
            ["0x1.8022eaa560b33p+1", "0x1.ffea6475101acp-1", "-0x1.001884b18af08p+0",
             "-0x1.80114169df41fp+1"],
            ["0x1.8140718bd2e74p+1", "0x1.00866dbbd3df3p+0", "-0x1.014d3818fcf78p+0",
             "-0x1.80dd0c5d3e5afp+1"],
            ["0x1.7fc82f1a8d021p+1", "0x1.0012dd073f96ep+0", "-0x1.ff8d991d5c87cp-1",
             "-0x1.7fee3756d5ab6p+1"]],
           [])]),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_bit_identical(name):
    assert _record(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_windowed_lockstep_matches_per_crossing_oracle(name, monkeypatch):
    """The windowed lockstep only reassociates each window's product, so it
    keeps the failures of the per-crossing one and its rows up to rounding:
    1e-12 on the triangle group, a tenth of a stderr on the bent surfaces,
    whose products are far worse conditioned."""
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


class _SingularRep:
    """Generator 2 maps every frame to zero, so lanes that cross it
    degenerate; generator 1 is invertible."""

    n, is_complex, num_generators, label = 2, False, 2, "singular"

    def generator_image(self, g):
        return np.diag([2.0, 0.5]) if abs(g) == 1 else np.zeros((2, 2))


@pytest.mark.parametrize("q", [1, 3, 4, 5])
@pytest.mark.parametrize("burn_in", [0.0, 2.5, 5.5])
def test_degenerate_steps_match_per_crossing_oracle(q, burn_in, monkeypatch):
    # lanes of 12, 10 and 7 crossings, the last two degenerating at their
    # crossings 3 and 6, before and inside their last window
    times = (np.arange(1.0, 13.0), np.arange(1.0, 11.0), np.arange(1.0, 8.0))
    gens = (np.full(12, 1), np.array([1, 1, 2] + [1] * 7), np.array([1] * 5 + [2, 1]))
    batch = oseledets.CodingBatch((0, 1, 2), times, gens)
    config = RunConfig(T=12.0, samples=3, seed=0, burn_in=burn_in, qr_interval=q)
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
