"""Every lyaplab name the benchmark's per-layer spans wrap must exist.

perfbench/tracing.py `install()` replaces (owner, attribute) pairs by
timing wrappers; a renamed or deleted one makes `--trace 1` read 0 or
fail.  The pairs are read from the source with ast, so the benchmark code
is not imported and nothing gets wrapped here.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
    from lyaplab import oseledets

    assert "perturb_log" in inspect.signature(oseledets.iter_crossings).parameters
