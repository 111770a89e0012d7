"""The package imports nothing that pyproject.toml does not promise.

Every import in ``src/carnot_bcp`` names a module of the standard library
(``sys.stdlib_module_names``), a distribution in pyproject's
``dependencies`` list (numpy), or the package itself.  A module that is
installed here but not declared, such as sympy or scipy, would make the
package fail wherever it is installed from its own metadata.  This test
walks the package's AST, function-level imports included.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carnot_bcp"


def declared_dependencies():
    """The import names of pyproject's ``dependencies``: each requirement's
    name, lower case, with hyphens as underscores."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M).group(1)
    return {name.lower().replace("-", "_")
            for name in re.findall(r"[\"']\s*([A-Za-z0-9_.-]+)", block)}


def undeclared_imports(source, where, allowed):
    """``where:line module`` for each absolute import in ``source`` whose top
    module is not in ``allowed``; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{where}:{node.lineno} {m}" for m in modules
                  if m.split(".")[0] not in allowed]
    return found


def allowed_modules():
    return set(sys.stdlib_module_names) | declared_dependencies() | {"carnot_bcp"}


def test_the_declared_dependencies_are_numpy():
    assert declared_dependencies() == {"numpy"}


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    allowed = allowed_modules()
    found = [hit for path in sorted(PACKAGE.rglob("*.py"))
             for hit in undeclared_imports(path.read_text(encoding="utf-8"),
                                           path.relative_to(PACKAGE), allowed)]
    assert found == []


def test_the_guard_catches_a_planted_import():
    allowed = allowed_modules()
    planted = {
        "import": "import sympy\n",
        "from": "from scipy.optimize import brentq\n",
        "inside a function": "def f():\n    import sympy.polys as sp\n    return sp\n",
    }
    for what, source in planted.items():
        assert undeclared_imports(source, "planted", allowed), what
    fine = ("import math\nimport numpy as np\nfrom fractions import Fraction\n"
            "from .scalars import fmt_scalar\nfrom carnot_bcp import algebra\n")
    assert undeclared_imports(fine, "fine", allowed) == []
