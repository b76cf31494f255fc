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
is kept below as the oracle of that move.

Each configuration runs `oseledets.cocycle` on a fresh coding and compares
every exponent row as `float.hex` strings, together with the trace and
cocycle failures.  The representations here keep their a-priori QR
interval equal to `qr_interval` (their generators grow far slower than the
`FRAME_OVERFLOW` budget), so any change of product order, QR schedule or
burn-in bookkeeping shows.
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
             for rows, lost in out])


# (trace failures, [(rows as float.hex, failures)] per rep)
PINS = {
    "burn0-minus1":
        ([],
         [([["0x1.efc0452d925c8p-2", "-0x1.efc0452d925c8p-2"],
            ["0x1.ff4abcd3f3271p-2", "-0x1.ff4abcd3f3271p-2"],
            ["0x1.fc100312585d5p-2", "-0x1.fc100312585d7p-2"],
            ["0x1.fad14fad72bd9p-2", "-0x1.fad14fad72bdap-2"]],
           [])]),
    "c1-seed4200":
        ([],
         [([["0x1.ff96a9c52165ep-1", "-0x1.ff96a9c52165ap-1"],
            ["0x1.0033d587b3906p+0", "-0x1.0033d587b3905p+0"],
            ["0x1.ffd6eb3f234c7p-1", "-0x1.ffd6eb3f234c5p-1"],
            ["0x1.002c53750c644p+0", "-0x1.002c53750c644p+0"]],
           [])]),
    "imag-bend-triple":
        ([],
         [([["0x1.ea33993fbb336p-1", "-0x1.ea33993fa97d4p-1"],
            ["0x1.e2f6bca72f913p-1", "-0x1.e2f6bca74c41fp-1"],
            ["0x1.ebcee209624ecp-1", "-0x1.ebcee2088a15cp-1"],
            ["0x1.eaacefff73176p-1", "-0x1.eaacefff815eep-1"]],
           []),
          ([["0x1.a2c725b5700aap-1", "-0x1.a2c725b55ebcep-1"],
            ["0x1.89b1c6ef6cae5p-1", "-0x1.89b1c6ef702b4p-1"],
            ["0x1.a071254dcb137p-1", "-0x1.a071254dc320cp-1"],
            ["0x1.a60e8e39dce6dp-1", "-0x1.a60e8e39fa745p-1"]],
           []),
          ([["0x1.83a62e4c903fdp-1", "-0x1.83a62e4c8ade7p-1"],
            ["0x1.677bbc3aaff8dp-1", "-0x1.677bbc3aacbf3p-1"],
            ["0x1.809d99852ea64p-1", "-0x1.809d9985408d2p-1"],
            ["0x1.93b3dc19765f9p-1", "-0x1.93b3dc19a36f0p-1"]],
           [])]),
    "q1":
        ([],
         [([["0x1.ffdcefe3f3b6ap-1", "-0x1.ffdcefe3f3b6ap-1"],
            ["0x1.ff156fcb8fa3fp-1", "-0x1.ff156fcb8fa3fp-1"],
            ["0x1.00262c44ef56ap+0", "-0x1.00262c44ef569p+0"],
            ["0x1.ff4b188a92c33p-1", "-0x1.ff4b188a92c2dp-1"]],
           [])]),
    "q16":
        ([],
         [([["0x1.fe2ba4348485ap-1", "-0x1.fe2ba4348486bp-1"],
            ["0x1.005672ece73fap+0", "-0x1.005672ece73e2p+0"],
            ["0x1.0082bbc1fc06ep+0", "-0x1.0082bbc1fc047p+0"],
            ["0x1.ff2dabdb8dfeap-1", "-0x1.ff2dabdb8e01fp-1"]],
           [])]),
    "random-base":
        ([],
         [([["0x1.ff765899c0736p-1", "-0x1.ff765899c0732p-1"],
            ["0x1.fcc32c19040a0p-1", "-0x1.fcc32c190409cp-1"],
            ["0x1.014ba849cceeep+0", "-0x1.014ba849cceedp+0"],
            ["0x1.0113ec2c9209ap+0", "-0x1.0113ec2c9209ap+0"]],
           [])]),
    "real-bend":
        ([],
         [([["0x1.4a120dafd6d6bp+0", "-0x1.4a120dfd7d5e7p+0"],
            ["0x1.37099c104efc6p+0", "-0x1.37099c252cf12p+0"],
            ["0x1.698c866883d51p+0", "-0x1.698d3150feba2p+0"],
            ["0x1.81345186228d3p+0", "-0x1.8134597f19294p+0"]],
           [])]),
    "sym3-q3-burn37":
        ([],
         [([["0x1.80c17ca201400p+1", "0x1.019a5c2607a77p+0", "-0x1.ffeb3adb46733p-1",
             "-0x1.8193dbfe3376cp+1"],
            ["0x1.7ff38d17eafc5p+1", "0x1.005537795119ap+0", "-0x1.ff369f1056b88p-1",
             "-0x1.805081107ddafp+1"],
            ["0x1.803dbf9f18d5dp+1", "0x1.00d2670f21c0ep+0", "-0x1.feb87022ffc00p-1",
             "-0x1.80f8d71de9c5fp+1"],
            ["0x1.7db60eaab75d8p+1", "0x1.ffc53bfd54eb3p-1", "-0x1.fb1cd9bdf9cfcp-1",
             "-0x1.7ee0273a8e248p+1"]],
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
    for (rows, lost), (want, want_lost) in zip(windowed, oracle, strict=True):
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
    windowed = cocycle([_SingularRep()], batch, config)
    monkeypatch.setattr(oseledets, "_lockstep", lockstep_per_crossing)
    [(want, want_lost)] = cocycle([_SingularRep()], batch, config)
    [(rows, lost)] = windowed
    assert [i for i, _ in lost] == [1, 2]
    assert lost == want_lost
    assert np.abs(rows - want).max() <= 1e-12
