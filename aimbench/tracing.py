"""Span tracing of the program's layers, attached from outside the program.

The program is not edited to be traced.  :class:`LayerTracer` replaces a
layer's public entry points -- module functions in every ``repro`` module
that imported them, and methods on their classes -- with wrappers that
record one span per call while tracing is active, and restores the
originals on :meth:`LayerTracer.uninstall`.

Each span has an id, the id of the span open when it started (its parent,
0 for none), a name, a start and an end; all spans of one run share the
run id.  Spans are kept in memory up to ``max_spans`` and counted as
dropped beyond that; per-name call counts and self times are accumulated
as spans end, so they stay exact when spans are dropped.  A span's self
time is its duration minus the time its child spans cover.  One thread
runs the benchmark, so children of a span never overlap and their
covered time is the sum of their durations.  A function that calls
itself (``expr_selectivity`` on a nested predicate) or re-enters its layer
through another (``Optimizer.explain`` under ``CostEvaluator.plan``)
therefore never counts the same interval twice.

A probe counts a call's work from its arguments and result.  Its time is
charged to its span as child time: it lies within the span, so the
parent's self time leaves it out, and the span's own self time leaves it
out too.  The benchmark's bookkeeping is thus in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: Default bound on spans kept in memory.
DEFAULT_MAX_SPANS = 100_000

_INHERITED = object()

#: ``probe(args, kwargs)`` runs before a traced call and returns the
#: function to call with its result.
Probe = Callable[[tuple, dict], Callable[[Any], None]]


class LayerTracer:
    """In-memory span recorder with per-name call and self-time totals."""

    def __init__(self, run_id: str, max_spans: int = DEFAULT_MAX_SPANS):
        self.run_id = run_id
        self.max_spans = max_spans
        self.active = False
        #: Finished spans: (id, parent id, name, start, end).
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Free-form work counters filled by probes.
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []       # [id, name, start, child seconds]
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        parent = 0
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block untraced (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, (0,))[0] for n in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def split(self) -> "LayerTracer":
        """A tracer holding the totals and counts so far, which this one
        starts over from zero; the spans stay here."""
        part = LayerTracer(self.run_id)
        part.totals, part.counts = self.totals, self.counts
        self.totals, self.counts = {}, {}
        return part

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, probe: Optional[Probe] = None) -> Callable:
        """*fn* recording a span named *name* per call while active.

        *probe*, called as ``probe(args, kwargs)`` before *fn*, returns a
        function that is called with *fn*'s result; both run only while
        tracing is active, and their time is in no span's self time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                mark = time.perf_counter()
                after = probe(args, kwargs)
                frame[3] += time.perf_counter() - mark
                result = fn(*args, **kwargs)
                mark = time.perf_counter()
                after(result)
                frame[3] += time.perf_counter() - mark
                return result
            finally:
                tracer.exit(frame)

        return traced

    def install(self, target: str, probe: Optional[Probe] = None) -> None:
        """Trace the entry point *target*, ``"module:function"`` or
        ``"module:Class.method"``, in spans named by its qualname.

        A method is replaced on its class.  A function is replaced in every
        loaded ``repro`` module that holds it by name, since ``from x import
        f`` copies the binding.  *probe* is passed to :meth:`wrap`.
        """
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = self.wrap(original, qualname, probe)
        if path:
            self._patch(owner, attr, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        # An inherited method is absent from the class dict; restoring
        # then means deleting the override.
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every replaced entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- export ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the kept spans and the totals as one JSON document."""
        payload = {
            "run_id": self.run_id,
            "dropped_spans": self.dropped,
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
