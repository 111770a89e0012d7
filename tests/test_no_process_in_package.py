"""The package starts no process.

A search is one process and one seed: a pool of workers with other seeds
changed the answer, and a flag's value could fork any number of them.  This
test walks the package's AST for the modules and ``os`` calls that start a
process.  Tests and demos may still start processes.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "carnot_bcp"
MODULES = ("multiprocessing", "concurrent.futures", "subprocess")
OS_CALLS = ("fork", "system", "popen", "spawn", "exec")


def _starts_a_process(module, name=None):
    full = module if name is None else f"{module}.{name}"
    if any(m == x or m.startswith(x + ".") for x in MODULES for m in (module, full)):
        return True
    return module == "os" and name is not None and name.startswith(OS_CALLS)


def process_starts(source):
    """Lines of ``source`` that import a process module or name an ``os``
    call that starts a process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(_starts_a_process(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = any(_starts_a_process(node.module or "", a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = _starts_a_process(node.value.id, node.attr)
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def test_the_guard_sees_each_way_to_start_a_process():
    for source in ["import multiprocessing", "import multiprocessing.pool",
                   "import concurrent.futures", "from concurrent import futures",
                   "from concurrent.futures import ProcessPoolExecutor",
                   "import subprocess as sp", "from subprocess import run",
                   "os.fork()", "os.system('x')", "os.popen('x')", "os.spawnv(0, 'x', [])",
                   "os.execv('x', [])", "from os import fork"]:
        assert process_starts(source) == [1], source
    assert process_starts("import os\nos.path.exists('x')\nimport concurrent") == []


def test_package_starts_no_process():
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in process_starts(path.read_text(encoding="utf-8"))]
    assert found == []
