"""Every public top-level function or class of the package, and every
public method of a public class, has a caller; every public class is put to
work outside the tests; every defaulted parameter is passed by some call of
the package or the benchmark, since a knob only the tests turn is a constant.

A name defined in src/lyaplab counts as used when the package names it
outside its own definition, when the benchmark (perfbench/*.py) names it, or
when it is the console entry point of pyproject.toml.  A class is put to
work when the package or the benchmark constructs, subclasses, raises or
catches it; an isinstance check alone keeps a class that nothing outside
the tests ever makes.  Names that only the tests use belong in the tests.
The package is read with ast, so nothing is imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lyaplab"

# library entry points that no module calls on purpose
EXEMPT = {
    "errterm.sum_rule_check",  # the paper's compact-base equality, checked by C7
    "fuchsian.BendingSplit.genus2_standard",  # acceptance tests C8a and C8b call it
}

# defaulted parameters that no call of the package or the benchmark names
EXEMPT_PARAMS = {
    # sum_rule_check is an exempt entry point (above); C7 passes k = 2 for Sym^2
    "errterm.sum_rule_check(k)",
}


def _names(node):
    """Identifiers that node's code refers to (names, attributes, imports)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _surface():
    """(module.name of every public def, names used per def).

    A def is a top-level function or class, or a method of a public class
    (named Class.method).  Each method's body is a def of its own, so a
    method that only its sibling calls counts as used, while a class's
    references to itself from its methods do not.
    """
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("_"):
                    defs.append((path.stem, owner))
            body = [node]
            if isinstance(node, ast.ClassDef):
                header = node.bases + node.keywords + node.decorator_list
                uses.append((owner, set().union(*map(_names, header))))
                body = node.body
            for item in body:
                inner = owner
                if isinstance(item, ast.FunctionDef) and item is not node:
                    inner = f"{owner}.{item.name}"
                    if not (owner.startswith("_") or item.name.startswith("_")):
                        defs.append((path.stem, inner))
                uses.append((inner, _names(item)))
    return defs, uses


def _used_outside_package():
    text = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    scripts = re.findall(r"=\s*\"[\w.]+:(\w+)\"", (ROOT / "pyproject.toml").read_text())
    return set(re.findall(r"\w+", text)) | set(scripts)


def _leaf(name):
    return name.rsplit(".", 1)[-1]


def _within(owner, name):
    """Whether code of owner lies inside the definition of name."""
    return owner is not None and (owner == name or owner.startswith(name + "."))


def test_every_public_name_has_a_caller():
    defs, uses = _surface()
    outside = _used_outside_package()
    unused = [f"{module}.{name}" for module, name in defs
              if f"{module}.{name}" not in EXEMPT and _leaf(name) not in outside
              and not any(_leaf(name) in names for owner, names in uses
                          if not _within(owner, name))]
    assert not unused, f"public names only tests (or nobody) use: {unused}"


def test_exemptions_are_defined():
    defs, _ = _surface()
    assert EXEMPT <= {f"{module}.{name}" for module, name in defs}
    assert EXEMPT_PARAMS <= {f"{qual}({param})" for qual, param, _, _ in _defaulted_params()}


def _put_to_work():
    """Names that the package or the benchmark calls (a constructor among
    them), subclasses, raises or catches."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call):
                exprs = [n.func]
            elif isinstance(n, ast.ClassDef):
                exprs = n.bases
            elif isinstance(n, ast.Raise) and n.exc is not None:
                exprs = [n.exc]
            elif isinstance(n, ast.ExceptHandler) and n.type is not None:
                exprs = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            else:
                continue
            out |= {getattr(e, "id", None) or getattr(e, "attr", None) for e in exprs}
    return out


def test_every_public_class_is_put_to_work():
    work = _put_to_work()
    idle = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and node.name not in work]
    assert not idle, f"public classes nothing outside the tests makes or catches: {idle}"


def _defaulted_params():
    """(module.def, parameter, called name, positional index or None) of
    every defaulted parameter of a top-level function or of a method of a
    top-level class; nested closures are not read.  The index skips self
    or cls, and a constructor is called by its class name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            fns = []
            if isinstance(node, ast.FunctionDef):
                fns.append((node.name, node, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        called = node.name if item.name == "__init__" else item.name
                        fns.append((f"{node.name}.{item.name}", item, called,
                                    0 if static else 1))
            for qual, fn, called, skip in fns:
                a = fn.args
                pos = a.posonlyargs + a.args
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    out.append((f"{path.stem}.{qual}", pos[i].arg, called, i - skip))
                out += [(f"{path.stem}.{qual}", arg.arg, called, None)
                        for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls():
    """Called name -> every ast.Call of it in src/ and perfbench/."""
    out = {}
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Call):
                    name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                    out.setdefault(name, []).append(n)
    return out


def _passes(call, param, index):
    """Whether call passes param by name, by position or by a * / ** expansion."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed():
    calls = _calls()
    dead = [f"{qual}({param})" for qual, param, called, index in _defaulted_params()
            if f"{qual}({param})" not in EXEMPT_PARAMS
            and not any(_passes(c, param, index) for c in calls.get(called, ()))]
    assert not dead, f"defaulted parameters no call of the package passes: {dead}"


def _relation_gate_bypasses(tree):
    """(line, what) of each residual comparison and each holds call with
    arguments in a module tree, outside RelationReport.holds itself."""
    gate = {id(n) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "RelationReport"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "holds"
            for n in ast.walk(fn)}
    out = []
    for n in ast.walk(tree):
        if id(n) in gate:
            continue
        if isinstance(n, ast.Compare) and _names(n) & {"max_residual", "max_relative"}:
            out.append((n.lineno, "compares a relation residual"))
        elif (isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "holds"
              and (n.args or n.keywords)):
            out.append((n.lineno, "passes holds a tolerance"))
    return out


def test_every_relation_verdict_is_holds():
    """One relation gate: RelationReport.holds() decides every relation
    check of the package, so no module sets a threshold of its own."""
    bypasses = [f"{path.stem}:{line} {what}" for path in sorted(PACKAGE.glob("*.py"))
                for line, what in _relation_gate_bypasses(ast.parse(path.read_text()))]
    assert not bypasses, f"relation verdicts outside RelationReport.holds(): {bypasses}"
