"""In-memory spans recorded around afshape's public functions.

The benchmark does not edit the package: it replaces module attributes
under the names the callers look them up by (``afshape.cli.run`` is what
``run_and_export`` calls, ``afshape.solver.pmli_inner`` is what ``run``
calls) and restores them afterwards. Each span holds its own id, its
parent's id (-1 at the root), the design it belongs to, a name, and
perf_counter start/end times. Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute looked up by the caller, span name)
TRACED = (
    ("afshape.cli", "run", "solver.run"),
    ("afshape.cli", "compare", "metrics.compare"),
    ("afshape.cli", "af_grid", "af_core.af_grid"),
    ("afshape.metrics", "af_grid", "af_core.af_grid"),
    ("afshape.solver", "build_loaded_region", "reformulation.build_loaded_region"),
    ("afshape.solver", "build_uqp", "solver.build_uqp"),
    ("afshape.solver", "pmli_inner", "solver.pmli_inner"),
    ("afshape.solver", "update_aux", "solver.update_aux"),
    ("afshape.solver", "m2_objective", "solver.m2_objective"),
    ("afshape.solver", "eval_objective", "af_core.eval_objective"),
)
ROOT_SPAN = "cli.run_and_export"


@contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace module.attr with make_wrapper(original) for the duration."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """Span recorder; spans are [id, parent, design, name, start, end] lists."""

    def __init__(self):
        self.spans = []
        self.design = -1
        self._stack = []

    def _enter(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, parent, self.design, name, time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def _exit(self, span_id: int) -> None:
        self.spans[span_id][5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span_id = self._enter(name)
        try:
            yield
        finally:
            self._exit(span_id)

    def wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span_id = self._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(span_id)
            return traced
        return make

    def layer_totals(self, design: int, under: str | None = None) -> dict:
        """Per span name: calls, total seconds, and self seconds for one design.

        Self time is a span's duration minus its children's durations; the
        program is single-threaded, so children never overlap each other.
        With under, only the first span of that name and its descendants count.
        """
        spans = [s for s in self.spans if s[2] == design]
        if under is not None:
            inside = {next(s[0] for s in spans if s[3] == under)}
            for span in spans:  # in start order, so a parent precedes its children
                if span[1] in inside:
                    inside.add(span[0])
            spans = [s for s in spans if s[0] in inside]
        child_time = defaultdict(float)
        for span_id, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, _, name, start, end in spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "design", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
