"""Every lyaplab name the benchmark's per-layer spans wrap must exist.

perfbench/tracing.py `install()` replaces (owner, attribute) pairs by
timing wrappers; a renamed or deleted one makes `--trace 1` read 0 or
fail.  The pairs are read from the source with ast, so the benchmark code
is not imported and nothing gets wrapped here.

The `oseledets.flush` span reads as the QR time; a tripwire below checks,
by counting calls rather than timing them, which cocycles run LAPACK.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from lyaplab import fuchsian, linrep, oseledets

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _install_seams():
    tree = ast.parse(TRACING.read_text())
    install = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    seams = []
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "spans":
            for item in node.value.elts:
                owner, attr = item.elts[:2]
                seams.append((ast.unparse(owner), attr.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "hasattr"):
            owner, attr = node.args
            seams.append((ast.unparse(owner), attr.value))
    return seams


def _resolve(dotted):
    module, *rest = dotted.split(".")
    obj = importlib.import_module(f"lyaplab.{module}")
    for name in rest:
        obj = getattr(obj, name)
    return obj


def test_every_traced_seam_resolves():
    seams = _install_seams()
    assert ("oseledets.CocycleAccumulator", "flush") in seams
    assert ("oseledets", "iter_crossings") in seams
    missing = [f"{owner}.{attr}" for owner, attr in seams
               if not callable(getattr(_resolve(owner), attr, None))]
    assert not missing, f"benchmark seams missing from lyaplab: {missing}"


def test_crossings_seam_takes_perturb_log():
    # wrap_crossings calls the wrapped iter_crossings with perturb_log=
    assert "perturb_log" in inspect.signature(oseledets.iter_crossings).parameters


def _qr_calls(monkeypatch, reps, dom):
    """(np.linalg.qr calls, flushes) of one cocycle of reps along a short coding."""
    calls = {"qr": 0, "flush": 0}
    qr, flush = np.linalg.qr, oseledets.CocycleAccumulator.flush

    def counted_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def counted_flush(acc, lanes):
        calls["flush"] += 1
        return flush(acc, lanes)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(oseledets.CocycleAccumulator, "flush", counted_flush)
    config = oseledets.RunConfig(T=60.0, samples=3, seed=5)
    out = oseledets.cocycle(reps, oseledets.code_samples(dom, config), config)
    assert all(len(rows) == 3 for rows, _, _ in out)
    return calls["qr"], calls["flush"]


# a rank-2 spectrum that fell back to frames and LAPACK would hide in the
# benchmark's noise; the rank-2 product tree flushes nothing, so there the
# qr_s span and the flush count read 0
@pytest.mark.parametrize("bends", [(0.0,), (0.5j,), (0.5j, 1j, 1.5j)],
                         ids=["real", "complex", "fused"])
def test_rank2_cocycle_calls_no_lapack_qr(genus2, fuchs_g2, monkeypatch, bends):
    split = fuchsian.BendingSplit.surface_standard(2)
    reps = [fuchsian.bend_representation(fuchs_g2, split, s) for s in bends]
    assert [rep.is_complex for rep in reps] == [s != 0.0 for s in bends]
    qr, flushes = _qr_calls(monkeypatch, reps, genus2[0])
    assert qr == flushes == 0


# complex rank-2 lanes stay in the real fold A + iB -> [[A, -B], [B, A]]
# through the product trees: numpy's complex matmul of their 2 x 2 stacks
# measured 7x slower per product than the fold's real one
def test_rank2_complex_trees_stay_real(genus2, fuchs_g2, monkeypatch):
    split = fuchsian.BendingSplit.surface_standard(2)
    reps = [fuchsian.bend_representation(fuchs_g2, split, s) for s in (0.5j, 1j, 1.5j)]
    dtypes, scale = [], oseledets._scale

    def recorded(m, e):
        dtypes.append(m.dtype)
        return scale(m, e)

    monkeypatch.setattr(oseledets, "_scale", recorded)
    config = oseledets.RunConfig(T=60.0, samples=3, seed=5)
    out = oseledets.cocycle(reps, oseledets.code_samples(genus2[0], config), config)
    assert all(len(rows) == 3 for rows, _, _ in out)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_rank3_cocycle_one_lapack_qr_per_window(genus2, fuchs_g2, monkeypatch):
    # one flush per window (see test_lanes_share_qr_calls)
    qr, flushes = _qr_calls(monkeypatch, [linrep.sym_power(fuchs_g2, 2)], genus2[0])
    assert qr == flushes > 0
