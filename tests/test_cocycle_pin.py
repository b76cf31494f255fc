"""Cocycle rows pinned bit for bit.  They were recorded when the lockstep
became one all-lane matmul per step on a global QR schedule, and recorded
again, with the cocycle unchanged, when the ray tracer moved to the
hyperboloid model: its codings part from the old tracer's after t ~ 20,
and it codes lane 0 of c1-seed4200, which the old tracer dropped.  They
were recorded a third time, with the codings unchanged, when burn-in
lanes moved from a QR at every crossing to the global every-q schedule;
that moved the rows by a few ulps (c1-seed4200, q1 and burn0-minus1 kept
their bits).

Each configuration runs `oseledets.cocycle` on a fresh coding and compares
every exponent row as `float.hex` strings, together with the trace and
cocycle failures.  The representations here keep their a-priori QR
interval equal to `qr_interval` (their generators grow far slower than the
`FRAME_OVERFLOW` budget), so any change of product order, QR schedule or
burn-in bookkeeping shows.
"""

import functools

import pytest

from lyaplab import fuchsian, linrep
from lyaplab.oseledets import RunConfig, code_samples, cocycle


@functools.lru_cache(maxsize=None)
def _group(spec):
    dom, gens, rels = fuchsian.build_group(fuchsian.parse_group_spec(spec))
    return dom, linrep.uniformizing_rep(gens, rels, "fuchsian")


def _bent(values):
    _, rep = _group("surface:2")
    split = fuchsian.BendingSplit.surface_standard(2)
    return [fuchsian.bend_representation(rep, split, s) for s in values]


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


def _record(name):
    """(trace failure indices, per rep: (row hex strings, cocycle failures))."""
    spec, reps, kwargs = CONFIGS[name]
    dom, rep = _group(spec)
    config = RunConfig(**kwargs)
    batch = code_samples(dom, config)
    out = cocycle(reps(rep), batch, config)
    return ([i for i, _ in batch.failures],
            [([[float(v).hex() for v in row] for row in rows], [list(f) for f in lost])
             for rows, lost in out])


# (trace failures, [(rows as float.hex, failures)] per rep)
PINS = {
    "burn0-minus1":
        ([],
         [([["0x1.efc0452d925c9p-2", "-0x1.efc0452d925c8p-2"],
            ["0x1.ff4abcd3f326fp-2", "-0x1.ff4abcd3f3271p-2"],
            ["0x1.fc100312585d5p-2", "-0x1.fc100312585d5p-2"],
            ["0x1.fad14fad72bd9p-2", "-0x1.fad14fad72bd7p-2"]],
           [])]),
    "c1-seed4200":
        ([],
         [([["0x1.ff96a9c52165ep-1", "-0x1.ff96a9c52165ep-1"],
            ["0x1.0033d587b3906p+0", "-0x1.0033d587b3908p+0"],
            ["0x1.ffd6eb3f234c7p-1", "-0x1.ffd6eb3f234c6p-1"],
            ["0x1.002c53750c644p+0", "-0x1.002c53750c642p+0"]],
           [])]),
    "imag-bend-triple":
        ([],
         [([["0x1.ea33993fbb336p-1", "-0x1.ea33993f942a6p-1"],
            ["0x1.e2f6bca72f913p-1", "-0x1.e2f6bca738f5bp-1"],
            ["0x1.ebcee209624ecp-1", "-0x1.ebcee209b9b4ep-1"],
            ["0x1.eaacefff73176p-1", "-0x1.eaacefff7ca0bp-1"]],
           []),
          ([["0x1.a2c725b5700aap-1", "-0x1.a2c725b570359p-1"],
            ["0x1.89b1c6ef6cae6p-1", "-0x1.89b1c6ef72fd8p-1"],
            ["0x1.a071254dcb138p-1", "-0x1.a071254db931ap-1"],
            ["0x1.a60e8e39dce6dp-1", "-0x1.a60e8e3a0284bp-1"]],
           []),
          ([["0x1.83a62e4c903fdp-1", "-0x1.83a62e4c9210bp-1"],
            ["0x1.677bbc3aaff8dp-1", "-0x1.677bbc3ab2886p-1"],
            ["0x1.809d99852ea66p-1", "-0x1.809d9985332e9p-1"],
            ["0x1.93b3dc19765f9p-1", "-0x1.93b3dc198ff39p-1"]],
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
         [([["0x1.fe2ba43484858p-1", "-0x1.fe2ba4348485ap-1"],
            ["0x1.005672ece73fap+0", "-0x1.005672ece73e6p+0"],
            ["0x1.0082bbc1fc06fp+0", "-0x1.0082bbc1fc04fp+0"],
            ["0x1.ff2dabdb8dfeap-1", "-0x1.ff2dabdb8df99p-1"]],
           [])]),
    "random-base":
        ([],
         [([["0x1.ff765899c0736p-1", "-0x1.ff765899c0734p-1"],
            ["0x1.fcc32c190409ep-1", "-0x1.fcc32c190409ap-1"],
            ["0x1.014ba849cceedp+0", "-0x1.014ba849cceedp+0"],
            ["0x1.0113ec2c9209ap+0", "-0x1.0113ec2c9209cp+0"]],
           [])]),
    "real-bend":
        ([],
         [([["0x1.4a120dafd6d22p+0", "-0x1.4a120da840c4ap+0"],
            ["0x1.37099c104efc9p+0", "-0x1.37099bf7e5072p+0"],
            ["0x1.698c866883d4dp+0", "-0x1.698cc784a1de1p+0"],
            ["0x1.81345186228e0p+0", "-0x1.813450b21d1c3p+0"]],
           [])]),
    "sym3-q3-burn37":
        ([],
         [([["0x1.80c17ca201400p+1", "0x1.019a5c2607a76p+0", "-0x1.ffeb3adb46735p-1",
             "-0x1.8193dbfe3376dp+1"],
            ["0x1.7ff38d17eafc6p+1", "0x1.005537795119bp+0", "-0x1.ff369f1056b8dp-1",
             "-0x1.805081107ddadp+1"],
            ["0x1.803dbf9f18d5ep+1", "0x1.00d2670f21c0fp+0", "-0x1.feb87022ffc03p-1",
             "-0x1.80f8d71de9c5fp+1"],
            ["0x1.7db60eaab75d8p+1", "0x1.ffc53bfd54eb0p-1", "-0x1.fb1cd9bdf9cfcp-1",
             "-0x1.7ee0273a8e248p+1"]],
           [])]),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_bit_identical(name):
    assert _record(name) == PINS[name]
