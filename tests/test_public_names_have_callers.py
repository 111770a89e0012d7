"""Every public name has a caller outside the tests.

A public module-level function or class in ``src/carnot_bcp``, or a public
method of a public class, that only the tests reference answers no question
of the package, its command line or its demos: its tests keep it alive and
nothing else does.  Such a name is deleted with its tests, or, when it is a
reference the tests check the package against, moved into ``tests/`` as an
oracle (like ``tests/bch_oracle.py``).

A caller is a reference to the name in the AST of a file under ``src/`` or
``demos/``: a ``Name`` it loads, or the attribute of an ``Attribute``.  So an
import, the re-export list of ``__init__.py``, a docstring or a comment is no
caller, and neither is a reference inside a definition of the same name.
Names are matched as plain identifiers, so a call ``x.f()`` counts for every
definition named ``f``, function or method.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(sources):
    """(name, qualified name) of each public module-level function and class,
    and of each public method of a public class, in the (module, text)
    sources."""
    for module, text in sources:
        for node in ast.parse(text).body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            yield node.name, f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, f"{module}.{node.name}.{item.name}")
                            for item in node.body
                            if isinstance(item, DEFINITIONS[:2])
                            and not item.name.startswith("_"))


def _references(texts):
    """The identifiers the texts load, each reference inside a definition of
    the same name left out."""
    names = set()

    def visit(node, own):
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.update({node.id} - own)
        elif isinstance(node, ast.Attribute):
            names.update({node.attr} - own)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for text in texts:
        visit(ast.parse(text), frozenset())
    return names


def uncalled(sources, texts):
    """The qualified names of the sources' public definitions that no text
    references, sorted."""
    refs = _references(texts)
    return sorted(q for name, q in _public_definitions(sources) if name not in refs)


def _package_sources(root=ROOT):
    return [(path.stem, path.read_text(encoding="utf-8"))
            for path in sorted((root / "src" / "carnot_bcp").glob("*.py"))]


def _caller_texts(root=ROOT):
    return [path.read_text(encoding="utf-8")
            for top in CALLER_DIRS for path in sorted((root / top).rglob("*.py"))]


def test_every_public_name_has_a_caller_outside_the_tests():
    missing = uncalled(_package_sources(), _caller_texts())
    assert not missing, ("public names only the tests reference; delete each, "
                         "or move it into tests/ as an oracle:\n  "
                         + "\n  ".join(missing))


def test_the_walk_sees_a_name_only_a_demo_calls():
    # estimate_quasi_triangle_constant has no caller in src/, only demo 03:
    # without the demos the guard must flag it, or it reads no demo
    sources = _package_sources()
    src_only = [path.read_text(encoding="utf-8")
                for path in sorted((ROOT / "src").rglob("*.py"))]
    assert "metrics.estimate_quasi_triangle_constant" in uncalled(sources, src_only)
    assert "metrics.estimate_quasi_triangle_constant" not in uncalled(
        sources, _caller_texts())


PLANTED = '''
def planted_helper(x):
    """Calls itself, and is named in this docstring: planted_helper."""
    # planted_helper(x - 1) in a comment
    return planted_helper(x - 1) if x else 0
'''


def _copy_tree(root):
    """A copy of the package, its demos and its tests under root."""
    for top in ("src", "demos", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            dest = root / path.relative_to(ROOT)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")


PLANTED_CLASS = '''
class PlantedReport:
    """A demo builds it; only a test calls planted_method."""

    def planted_method(self, x):
        """Calls itself: self.planted_method."""
        return self.planted_method(x - 1) if x else 0

    def _private(self):
        return 0
'''


def test_a_planted_test_only_method_fails_the_guard(tmp_path):
    _copy_tree(tmp_path)
    package = tmp_path / "src" / "carnot_bcp"
    (package / "planted.py").write_text(PLANTED_CLASS, encoding="utf-8")
    (tmp_path / "demos" / "planted_demo.py").write_text(
        "from carnot_bcp.planted import PlantedReport\n\nprint(PlantedReport())\n",
        encoding="utf-8")
    (tmp_path / "tests" / "test_planted.py").write_text(
        "from carnot_bcp.planted import PlantedReport\n\n\n"
        "def test_planted():\n    assert PlantedReport().planted_method(3) == 0\n",
        encoding="utf-8")
    # the class has its caller; its method's recursion and the test are none
    assert uncalled(_package_sources(tmp_path), _caller_texts(tmp_path)) == \
        ["planted.PlantedReport.planted_method"]
    (tmp_path / "demos" / "planted_demo.py").write_text(
        "from carnot_bcp.planted import PlantedReport\n\n"
        "print(PlantedReport().planted_method(2))\n", encoding="utf-8")
    assert uncalled(_package_sources(tmp_path), _caller_texts(tmp_path)) == []


def test_the_guard_checks_the_methods_of_the_public_classes():
    checked = [q for _, q in _public_definitions(_package_sources()) if q.count(".") == 2]
    assert "besicovitch.OrbitResult.to_json" in checked
    assert "metrics.HSDistance.value_from_identity" in checked
    # a private class's methods are not public names
    assert not any(q.startswith("metrics._HSPlan.") for q in checked)


def test_a_planted_test_only_helper_fails_the_guard(tmp_path):
    _copy_tree(tmp_path)
    assert uncalled(_package_sources(tmp_path), _caller_texts(tmp_path)) == []
    package = tmp_path / "src" / "carnot_bcp"
    (package / "planted.py").write_text(PLANTED, encoding="utf-8")
    (package / "__init__.py").write_text(
        (package / "__init__.py").read_text(encoding="utf-8")
        + "from .planted import planted_helper\n", encoding="utf-8")
    (tmp_path / "tests" / "test_planted.py").write_text(
        "from carnot_bcp import planted_helper\n\n\n"
        "def test_planted():\n    assert planted_helper(3) == 0\n", encoding="utf-8")
    # the re-export, the recursion, the docstring, the comment and the test
    # are no callers
    assert uncalled(_package_sources(tmp_path), _caller_texts(tmp_path)) == \
        ["planted.planted_helper"]
    # a call from a demo is
    (tmp_path / "demos" / "planted_demo.py").write_text(
        "import carnot_bcp as cb\n\nprint(cb.planted_helper(2))\n", encoding="utf-8")
    assert uncalled(_package_sources(tmp_path), _caller_texts(tmp_path)) == []
