"""Cocycle rows pinned bit for bit, as recorded before the lockstep became
one all-lane matmul per step on a global QR schedule.

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


# recorded before the rewrite: (trace failures, [(rows as float.hex, failures)] per rep)
PINS = {
    "burn0-minus1":
        ([],
         [([["0x1.ee380b8799594p-2", "-0x1.ee380b8799593p-2"],
            ["0x1.003e0b5d6578ep-1", "-0x1.003e0b5d6578fp-1"],
            ["0x1.fcd5d0c73864dp-2", "-0x1.fcd5d0c73864dp-2"],
            ["0x1.f82cf19d9e0c3p-2", "-0x1.f82cf19d9e0c1p-2"]],
           [])]),
    "c1-seed4200":
        ([0],
         [([["0x1.fffe9b26a5febp-1", "-0x1.fffe9b26a5fedp-1"],
            ["0x1.0001360fa2dd6p+0", "-0x1.0001360fa2dd7p+0"],
            ["0x1.001ddf842462ep+0", "-0x1.001ddf842462ep+0"]],
           [])]),
    "imag-bend-triple":
        ([],
         [([["0x1.ebf7b2604bfa8p-1", "-0x1.ebf7b2603f244p-1"],
            ["0x1.e95024596005dp-1", "-0x1.e950245964452p-1"],
            ["0x1.f06206f06e769p-1", "-0x1.f06206f0588a5p-1"],
            ["0x1.e88d03fd716f8p-1", "-0x1.e88d03fd7c6a2p-1"]],
           []),
          ([["0x1.9d5acaedeaec9p-1", "-0x1.9d5acaeda6f12p-1"],
            ["0x1.a010d9c13e908p-1", "-0x1.a010d9c13c75ep-1"],
            ["0x1.bb1facb50e4c5p-1", "-0x1.bb1facb520c98p-1"],
            ["0x1.9ac01cef89753p-1", "-0x1.9ac01cef94097p-1"]],
           []),
          ([["0x1.7f48a3fecfeb4p-1", "-0x1.7f48a3fefc31bp-1"],
            ["0x1.80d4983f50380p-1", "-0x1.80d4983f4f0efp-1"],
            ["0x1.a59c2381fcbe8p-1", "-0x1.a59c23820fc49p-1"],
            ["0x1.78f57530a6ef7p-1", "-0x1.78f57530a7790p-1"]],
           [])]),
    "q1":
        ([],
         [([["0x1.fe711a65425dfp-1", "-0x1.fe711a65425ddp-1"],
            ["0x1.fee4be4eb2748p-1", "-0x1.fee4be4eb2748p-1"],
            ["0x1.0035584058b10p+0", "-0x1.0035584058b10p+0"],
            ["0x1.00abc1ad254e3p+0", "-0x1.00abc1ad254e3p+0"]],
           [])]),
    "q16":
        ([],
         [([["0x1.ffdb96d0d3856p-1", "-0x1.ffdb96d0d3869p-1"],
            ["0x1.00670aca2997cp+0", "-0x1.00670aca29977p+0"],
            ["0x1.00f0f4fe5e270p+0", "-0x1.00f0f4fe5e26dp+0"],
            ["0x1.ff5b8c06038bap-1", "-0x1.ff5b8c060388dp-1"]],
           [])]),
    "random-base":
        ([],
         [([["0x1.fe4766b5a72c4p-1", "-0x1.fe4766b5a72c8p-1"],
            ["0x1.ffd87e3eedee3p-1", "-0x1.ffd87e3eedee1p-1"],
            ["0x1.005d1493d2bb2p+0", "-0x1.005d1493d2bb2p+0"],
            ["0x1.ffd58a7f6cc62p-1", "-0x1.ffd58a7f6cc5ep-1"]],
           [])]),
    "real-bend":
        ([],
         [([["0x1.563352c5e6547p+0", "-0x1.5633837713285p+0"],
            ["0x1.6fdd32f492625p+0", "-0x1.6fba453a4584ap+0"],
            ["0x1.4b817287bd957p+0", "-0x1.4b8183be60bbdp+0"],
            ["0x1.4f561933a5dafp+0", "-0x1.4f5625b38391dp+0"]],
           [])]),
    "sym3-q3-burn37":
        ([],
         [([["0x1.7e93569523a49p+1", "0x1.ff32772c62febp-1", "-0x1.fca244ea7aa8cp-1",
             "-0x1.7f3763259db9ap+1"],
            ["0x1.7fce050f46c82p+1", "0x1.011dd9372c505p+0", "-0x1.fe3598978eab2p-1",
             "-0x1.80cf8b84f9450p+1"],
            ["0x1.8092c02cd8071p+1", "0x1.0065ba29272ffp+0", "-0x1.0057b5733d6d9p+0",
             "-0x1.8099c287cce78p+1"],
            ["0x1.7f9912668f007p+1", "0x1.00b68e1570ae0p+0", "-0x1.fdb089886558ap-1",
             "-0x1.8088370f2e015p+1"]],
           [])]),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_bit_identical(name):
    assert _record(name) == PINS[name]
