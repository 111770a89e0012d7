"""One exact path for every distance kind.

``QuasiDistance.compare`` and ``compare_from_identity`` put the points over
one denominator (``compare`` through ``algebra.displacement``) and hand the
integers to the kind's ``_sign``, its one exact hook.  A kind that overrode
either method, or that added a second exact method such as ``exact_value``,
would certify through a path the shared checks do not see.  This test walks
the package's AST to keep the one path.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "carnot_bcp"
BASE = "QuasiDistance"
SHARED = {"compare", "compare_from_identity"}
FORBIDDEN = {"exact_value"}


def _rebinds_base_method(value, name):
    """``name = QuasiDistance.name``: the base method bound again under its
    own name, which overrides nothing."""
    return (isinstance(value, ast.Attribute) and value.attr == name
            and isinstance(value.value, ast.Name) and value.value.id == BASE)


def _class_members(cls):
    """(name, bound value or None for a def, line) for each member of a class body."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value, node.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.value, node.lineno


def second_exact_paths(source, where):
    """The members of the classes in ``source`` that bypass the one path."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for name, value, line in _class_members(cls):
            overrides = (name in SHARED and cls.name != BASE
                         and not _rebinds_base_method(value, name))
            if overrides or name in FORBIDDEN:
                found.append(f"{where}:{line} {cls.name}.{name}")
    return found


def test_only_the_base_class_compares_and_no_kind_has_a_second_exact_hook():
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in second_exact_paths(path.read_text(encoding="utf-8"),
                                           path.relative_to(PACKAGE))]
    assert found == []


def test_the_guard_catches_a_planted_override():
    planted = {
        "def": "class K(QuasiDistance):\n    def compare(self, p, q, rho):\n        return 0\n",
        "lambda": "class K(QuasiDistance):\n    compare_from_identity = lambda s, x, r: 0\n",
        "other base method": "class K(QuasiDistance):\n    compare = QuasiDistance._sign\n",
        "exact_value on the base": "class QuasiDistance:\n    def exact_value(self, p, q):\n"
                                   "        return None\n",
    }
    for what, source in planted.items():
        assert second_exact_paths(source, "planted"), what
    # re-binding the base method under its own name overrides nothing
    alias = "class K(QuasiDistance):\n    compare = QuasiDistance.compare\n"
    assert second_exact_paths(alias, "alias") == []
