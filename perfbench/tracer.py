"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped function records, per span name, the call count, the rows it
was given (batch calls only), its total time and its self time (total minus
the time of the spans it caused).  A span is recorded only inside a root span
opened by the benchmark, so warm-up calls and output checks stay out of the
trace.  Everything is kept in memory and read out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# batch calls with at most this many rows are the scalar-like calls, such as
# the Nelder-Mead objective; they are counted apart from the bulk rows
SMALL_BATCH_ROWS = 8


class SpanStats:
    __slots__ = ("calls", "rows", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.total = 0.0
        self.self_time = 0.0


def _first_arg_rows(args):
    return len(args[0])


def _multiply_batch_name(args):
    return ("algebra.multiply_batch_small" if len(args[0]) <= SMALL_BATCH_ROWS
            else "algebra.multiply_batch")


def _method_rows(args):
    return len(args[1])


def _hs_batch_name(args):
    return "metrics.hs_batch_small" if len(args[1]) <= SMALL_BATCH_ROWS else "metrics.hs_batch"


class Tracer:
    """Spans keyed by name, plus call counts per (parent, child) span pair."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()
        self._stack: list = []        # frames: [name, child time]
        self._restore: list = []      # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def _close(self, frame, dt, rows):
        name = frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.rows += rows
        st.total += dt
        st.self_time += dt - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dt
            self.edges[(parent[0], name)] += 1

    @contextmanager
    def root(self, name):
        """Open a root span; the package's spans are recorded only inside one."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self._close(frame, dt, 0)

    def _wrap(self, fn, name, rows_of=None, name_of=None):
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name_of(args) if name_of else name, 0.0]
            rows = rows_of(args) if rows_of else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                close(frame, dt, rows)

        return traced

    # -- installing ------------------------------------------------------
    def install(self, cb):
        """Wrap the layer functions of the imported package ``cb``.

        A module-level function is wrapped once, and every module attribute
        of the package that refers to it is rebound to the wrapper, because
        modules import ``multiply``, ``dilate``, ``rat_pow`` and others by
        name.  Methods are wrapped on their class.
        """
        algebra, scalars, besicovitch = cb.algebra, cb.scalars, cb.besicovitch
        functions = [
            (algebra, "multiply", "algebra.multiply", None, None),
            (algebra, "multiply_batch", None, _first_arg_rows, _multiply_batch_name),
            (algebra, "dilate", "algebra.dilate", None, None),
            (algebra, "dilate_batch", "algebra.dilate_batch", _first_arg_rows, None),
            (scalars, "rat_pow", "scalars.rat_pow", None, None),
            (besicovitch, "search_family", "besicovitch.search_family", None, None),
            (besicovitch, "radius_for_center", "besicovitch.radius_for_center", None, None),
            (besicovitch, "verify_family", "besicovitch.verify_family", None, None),
            (besicovitch, "dilation_orbit_family", "besicovitch.dilation_orbit_family",
             None, None),
        ]
        modules = [m for n, m in sys.modules.items()
                   if n == cb.__name__ or n.startswith(cb.__name__ + ".")]
        for owner, attr, name, rows_of, name_of in functions:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, rows_of=rows_of, name_of=name_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

        methods = [
            (cb.HSDistance, "value_from_identity", "metrics.hs_scalar", None, None),
            (cb.HSDistance, "value_from_identity_batch", None, _method_rows, _hs_batch_name),
            (cb.HSDistance, "compare", "metrics.hs_compare", None, None),
            (cb.QuotientDistance, "value_batch_refined", "metrics.quotient_batch",
             _method_rows, None),
            (cb.QuotientDistance, "value", "metrics.quotient_value", None, None),
        ]
        for cls, attr, name, rows_of, name_of in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, rows_of=rows_of, name_of=name_of))

    def uninstall(self):
        """Put every original function back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ---------------------------------------------------------
    def span(self, name) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def table(self):
        return {name: {"calls": s.calls, "rows": s.rows, "total_s": s.total,
                       "self_s": s.self_time}
                for name, s in sorted(self.stats.items())}
