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
might carry it; an argument that is the literal of the parameter's own
default sets nothing and does not count.  A constructor is called through
its class name, and the fields of a dataclass are its constructor's
parameters, in field order.

The same holds for the command line: every optional flag of
``cli.build_parser()`` must be passed by at least one test, as a string of
its argv or as a key of a ``report`` config (a dict with a "subcommand"
key), or it is a constant.
"""

import argparse
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carnot_bcp"
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _public(name):
    return not name.startswith("_")


def _defaulted(fn, skip_self):
    """(position, name, default) of each defaulted parameter of a def;
    keyword-only parameters get position None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if skip_self:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    out = [(i, a.arg, args.defaults[i - first_default])
           for i, a in enumerate(positional) if i >= max(first_default, 0)]
    out += [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _name(node):
    """The name a node calls or subscripts: ``x`` of ``x``, ``m.x``, ``x(...)``,
    ``x[...]``."""
    while isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else None)


def _dataclass_fields(cls):
    """(position, name, default) of each defaulted field of a dataclass,
    ``ClassVar`` attributes left out."""
    out = []
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)) \
                or _name(item.annotation) == "ClassVar":
            continue
        default = item.value
        if default is not None and _name(default) == "field":
            # a factory is no literal, so any argument sets its field
            options = {k.arg: k.value for k in default.keywords}
            default = options.get("default", options.get("default_factory"))
        if default is not None:
            out.append((position, item.target.id, default))
        position += 1
    return out


def _definitions(sources):
    """(call name, qualified name, defaulted parameters) of each public
    function, method and constructor in the (module, text) sources."""
    defs = []
    for module, text in sources:
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                defs.append((node.name, f"{module}.{node.name}",
                             _defaulted(node, skip_self=False)))
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                if any(_name(d) == "dataclass" for d in node.decorator_list):
                    defs.append((node.name, f"{module}.{node.name}",
                                 _dataclass_fields(node)))
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


def _calls(texts):
    """name -> list of (positional arguments, keyword arguments by name,
    unpacks) per call in the texts."""
    calls = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
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
                (node.args, {k.arg: k.value for k in node.keywords}, unpacks))
    return calls


def _sets(arg, default):
    """Whether an argument may set a parameter to other than its default:
    not when both are literals of equal value."""
    try:
        return ast.literal_eval(arg) != ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError):
        return True


def never_passed(sources, texts):
    """The defaulted parameters of the sources' definitions that no call in
    the texts sets."""
    calls = _calls(texts)
    missing = []
    for call_name, qualname, params in _definitions(sources):
        sites = calls.get(call_name, [])
        for pos, pname, default in params:
            if not any(unpacks
                       or (pname in kws and _sets(kws[pname], default))
                       or (pos is not None and len(args) > pos
                           and _sets(args[pos], default))
                       for args, kws, unpacks in sites):
                missing.append(f"{qualname}({pname})")
    return missing


def _package_sources():
    return [(path.stem, path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))]


def _caller_texts():
    return [path.read_text(encoding="utf-8")
            for top in CALLER_DIRS for path in (ROOT / top).rglob("*.py")]


def test_every_defaulted_parameter_is_passed_somewhere():
    missing = never_passed(_package_sources(), _caller_texts())
    assert not missing, ("defaulted parameters no call passes; make each the "
                         "constant it always holds:\n  " + "\n  ".join(missing))


def test_the_walk_sees_a_known_option_and_its_caller():
    # search_family's strategy is passed by the CLI and the tests: the walk
    # must find both the definition and the call, or it checks nothing
    defs = {q: [(pos, name) for pos, name, _ in params]
            for _, q, params in _definitions(_package_sources())}
    assert (2, "strategy") in defs["besicovitch.search_family"]
    assert any("strategy" in kws for _, kws, _ in _calls(_caller_texts())["search_family"])


DATACLASS = """
@dataclass(frozen=True)
class Params:
    r: int
    scale: ClassVar[float] = 2.0
    R: float = 1.0
    notes: dict = field(default_factory=dict)
    a: float = field(default=0.9)
"""


def test_a_dataclass_field_is_a_constructor_parameter():
    sources = [("m", DATACLASS)]
    # positions count the fields only: R is 1, notes 2, a 3
    assert never_passed(sources, ["Params(2)"]) == \
        ["m.Params(R)", "m.Params(notes)", "m.Params(a)"]
    assert never_passed(sources, ["Params(2, 0.5, {}, 0.8)"]) == []
    assert never_passed(sources, ["Params(2, R=0.5, a=0.8)"]) == ["m.Params(notes)"]


def test_a_call_passing_the_default_literal_sets_nothing():
    sources = [("m", "def sweep(n, tolerance=1e-9, seed=0):\n    pass\n")]
    assert never_passed(sources, ["sweep(1, tolerance=1e-9, seed=3)",
                                  "sweep(1, 1e-9)"]) == ["m.sweep(tolerance)"]
    # a value other than the default, or one that is no literal, counts
    assert never_passed(sources, ["sweep(1, 1e-8, seed=x)"]) == []
    assert never_passed(sources, ["sweep(1, *args)"]) == []


def _optional_actions(parser):
    """The actions with option strings of a parser and its subparsers,
    help left out."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _optional_actions(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield action


def untested_flags(parser, texts):
    """The optional flags of the parser that no text passes: none of a flag's
    option strings is a string constant of the texts, and none of its config
    keys (``report`` reads key k as the flag --k with "_" as "-") is a key of
    a dict that holds a "subcommand" key."""
    strings, config_keys = set(), set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
                if "subcommand" in keys:
                    config_keys |= keys
    missing = set()
    for action in _optional_actions(parser):
        flags = action.option_strings
        keys = {f.lstrip("-").replace("-", "_") for f in flags}
        if not strings & set(flags) and not config_keys & keys:
            missing.add("/".join(flags))
    return sorted(missing)


def test_every_cli_flag_is_passed_by_a_test():
    from carnot_bcp.cli import build_parser
    texts = [path.read_text(encoding="utf-8") for path in (ROOT / "tests").rglob("*.py")]
    missing = untested_flags(build_parser(), texts)
    assert not missing, ("CLI flags no test passes; make each the constant it "
                         "always holds:\n  " + "\n  ".join(missing))


def test_a_flag_no_test_passes_is_flagged():
    parser = argparse.ArgumentParser()
    run = parser.add_subparsers().add_parser("run")
    run.add_argument("--used")
    run.add_argument("--keyed-flag")
    run.add_argument("--unused", "--alias")
    run.add_argument("target")
    texts = ['main(["run", "--used", "1", "x"])',
             'config = {"subcommand": "run", "keyed_flag": 1}']
    assert untested_flags(parser, texts) == ["--unused/--alias"]
    # an alias passes its flag; a key of a dict that is no config does not
    assert untested_flags(parser, texts + ['["--alias"]']) == []
    assert untested_flags(parser, ['["--used", "--alias"]', '{"keyed_flag": 1}']) == \
        ["--keyed-flag"]
