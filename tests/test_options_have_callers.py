"""Every option has a caller.

A defaulted parameter of a public function, method or constructor in
``src/carnot_bcp`` that no call in the repository ever passes is a
configuration no test or benchmark runs: it should be the constant it always
holds.  The check walks the AST of the package and of every call site in
``src/``, ``tests/``, ``demos/`` and ``perfbench/``.

Calls are matched by name (the called name, or the attribute after the last
dot), so a call counts for every definition of that name.  A call passes a
parameter when it names it as a keyword, when its positional arguments reach
the parameter's position, or when it unpacks ``*args`` / ``**kwargs``, which
might carry it.  A constructor is called through its class name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carnot_bcp"
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _public(name):
    return not name.startswith("_")


def _defaulted(fn, skip_self):
    """(position, name) of each defaulted parameter of a def; keyword-only
    parameters get position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if skip_self:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= max(first_default, 0)]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _definitions():
    """(call name, qualified name, defaulted parameters) of each public
    function, method and constructor of the package."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                defs.append((node.name, f"{module}.{node.name}",
                             _defaulted(node, skip_self=False)))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        call_name = node.name
                    elif _public(item.name):
                        call_name = item.name
                    else:
                        continue
                    defs.append((call_name, f"{module}.{node.name}.{item.name}",
                                 _defaulted(item, skip_self=True)))
    return [d for d in defs if d[2]]


def _calls():
    """name -> list of (positional count, keyword names, unpacks) per call."""
    calls = {}
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else (
                    f.attr if isinstance(f, ast.Attribute) else None)
                if name is None:
                    continue
                unpacks = any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, unpacks))
    return calls


def never_passed():
    calls = _calls()
    missing = []
    for call_name, qualname, params in _definitions():
        sites = calls.get(call_name, [])
        for pos, pname in params:
            if not any(unpacks or pname in kws or (pos is not None and npos > pos)
                       for npos, kws, unpacks in sites):
                missing.append(f"{qualname}({pname})")
    return missing


def test_every_defaulted_parameter_is_passed_somewhere():
    missing = never_passed()
    assert not missing, ("defaulted parameters no call passes; make each the "
                         "constant it always holds:\n  " + "\n  ".join(missing))


def test_the_walk_sees_a_known_option_and_its_caller():
    # search_family's strategy is passed by the CLI and the tests: the walk
    # must find both the definition and the call, or it checks nothing
    defs = {q: params for _, q, params in _definitions()}
    assert (2, "strategy") in defs["besicovitch.search_family"]
    assert any("strategy" in kws for _, kws, _ in _calls()["search_family"])
