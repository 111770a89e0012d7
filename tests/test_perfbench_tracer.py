"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracer.py wraps module functions and class methods by name, so a
simplification that removes or renames one of them breaks the benchmark.
This installs the tracer on the package, checks that a traced call is
recorded, and checks that uninstalling puts every original back.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import carnot_bcp as cb

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    tracer = load_tracer().Tracer()
    compare = cb.HSDistance.__dict__["compare"]
    multiply = cb.algebra.multiply
    tracer.install(cb)
    try:
        assert cb.HSDistance.__dict__["compare"] is not compare
        assert cb.algebra.multiply is not multiply
        d = cb.HSDistance(cb.heisenberg_nonstandard_group(2), Fraction(1))
        with tracer.root("check"):
            assert d.compare((0, 0, 0), (1, 0, 0), Fraction(2)) == -1
        assert tracer.span("metrics.hs_compare").calls == 1
        assert tracer.span("algebra.multiply").calls == 1
    finally:
        tracer.uninstall()
    assert cb.HSDistance.__dict__["compare"] is compare
    assert cb.algebra.multiply is multiply
    assert cb.metrics.multiply is multiply
