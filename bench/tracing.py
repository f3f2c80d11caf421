"""Spans around calls into the bruhatcells layers, recorded from outside.

The traced pass replaces public functions in the bruhatcells module
namespaces with timing wrappers; the library itself is not changed.  A
function is wrapped where another module (or the benchmark, through the
package namespace) looks it up, so a span marks a call that crosses from
one layer into another.  The layer of a span is the module that defines
the function.

Not wrapped: generator functions (a span would end before the work is
done) and the helpers in ``_UNTRACED``, which are called hundreds of
thousands of times per pass for sub-microsecond work, so a span would cost
more than the call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

_UNTRACED = {"build_root_system", "exceedances"}

# Functions that other modules import inside function bodies, which reads
# the defining module's attribute at call time; ``cli.main`` is the entry
# the verify workload calls.
_DEFINING_MODULE = {
    ("bruhatcells.coxeter", "bruhat_leq"),
    ("bruhatcells.permutations", "weyl_to_permutation"),
    ("bruhatcells.cli", "main"),
}


class Tracer:
    """Holds spans as (name, start_ns, end_ns, parent index) in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)

        return traced

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), c in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + (end - start - c)
        return {k: v / 1e9 for k, v in out.items()}

    def totals(self) -> dict:
        """Per span name: [calls, inclusive seconds]."""
        out: dict = {}
        for name, start, end, _ in self.spans:
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += (end - start) / 1e9
        return out

    def write(self, path, workload: str, run_id: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, workload, run_id]))
                fh.write("\n")


def _boundary(obj, attr) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("bruhatcells.")
        and not attr.startswith("_")
        and attr not in _UNTRACED
        and not inspect.isgeneratorfunction(obj)
    )


def install(tracer: Tracer) -> None:
    """Route cross-layer calls of the loaded bruhatcells modules through
    ``tracer``."""
    wrapped: dict = {}

    def traced(fn):
        if fn not in wrapped:
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrapped[fn] = tracer.wrap(fn, f"{layer}.{fn.__name__}")
        return wrapped[fn]

    modules = [m for n, m in sys.modules.items() if n.startswith("bruhatcells")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not _boundary(obj, attr):
                continue
            if (
                mod.__name__ == "bruhatcells"
                or obj.__module__ != mod.__name__
                or (mod.__name__, attr) in _DEFINING_MODULE
            ):
                setattr(mod, attr, traced(obj))
    # The CLI dispatches verify suites through a table built at import time.
    cli = sys.modules.get("bruhatcells.cli")
    table = getattr(cli, "_VERIFY_CHECKS", {})
    for key, entry in table.items():
        if _boundary(entry[0], entry[0].__name__):
            table[key] = (traced(entry[0]),) + tuple(entry[1:])
