"""In-memory span tracer installed around the oracle's public entry points.

The tracer wraps functions and methods of the ``repro`` package from the
outside (it patches class and module attributes and restores them on
``uninstall``); the program's source is untouched.  Each call through a
wrapped entry point opens a span with a name, a start and end time, the
span that caused it and the benchmark request it belongs to.  A span's
self time is its duration minus the time covered by its child spans.

Two kinds of span keep memory bounded:

* *coarse* spans (request, engine, parse, emit, cache, search) are
  recorded one by one;
* *hot* spans (Sail stepping, system transitions, state keys, final-state
  extraction, reduction and symmetry calls) happen hundreds of thousands
  of times per pass, so calls sharing a name and a parent span are folded
  into one group record holding the call count, total and self time and
  the first start / last end.  A group is the parent of the spans its
  calls cause, which makes the dump a calling-context tree per request.

Requests cross threads on the ``service`` workload (the client thread
sends ``POST /v1/query``; a daemon handler thread runs the engine).  The
benchmark is a closed loop with one request in flight, so a span opened
with an empty stack on any thread is parented to the open root span of
the current request.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


def _is_hit(payload) -> int:
    return payload is not None


def _targets():
    """(owner, attribute, span name, hot?, result counter) to wrap."""
    from repro.concurrency import symmetry, system
    from repro.concurrency.search import STRATEGIES, reduction
    from repro.isa import model
    from repro.litmus import emit, parser
    from repro.service import cache, engine

    targets = [
        (model.IsaModel, "run_to_outcome", "sail.run_to_outcome", True, None),
        (model.IsaModel, "resume", "sail.resume", True, None),
        (system.SystemState, "enumerate_transitions", "system.enumerate", True, None),
        (system.SystemState, "apply", "system.apply", True, None),
        (system.SystemState, "key", "system.key", True, None),
        (system.SystemState, "final_memory", "storage.final_memory", True, len),
        (reduction.Reducer, "independent", "reduction.independent", True, None),
        (symmetry.CanonicalKeys, "canonical", "symmetry.canonical", True, None),
        (parser, "parse_litmus", "litmus.parse", False, None),
        (emit, "emit_litmus", "litmus.emit", False, None),
        (engine.EnvelopeEngine, "run_request", "engine.run_request", False, None),
        (engine.EnvelopeEngine, "resolve", "engine.resolve", False, None),
        # ``engine`` imported ``cache_key`` by name; patch both bindings.
        (cache, "cache_key", "cache.key", False, None),
        (engine, "cache_key", "cache.key", False, None),
        (cache.VerdictCache, "get", "cache.get", False, _is_hit),
        (cache.VerdictCache, "put", "cache.put", False, None),
    ]
    for strategy in STRATEGIES.values():
        if "explore" in vars(strategy):
            targets.append((strategy, "explore", "search.explore", False, None))
    return targets


class Tracer:
    """Span recorder; ``install`` wraps the entry points, ``uninstall`` undoes it."""

    def __init__(self):
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches: List[tuple] = []
        #: Open frames by span id: [span id, child seconds].
        self._open: Dict[int, list] = {}
        #: Span id of the open root span of the request in flight.
        self._root: Optional[int] = None
        self.request: Optional[int] = None
        #: Coarse spans: (id, name, parent, request, start, end, self_s).
        self.spans: List[tuple] = []
        #: Hot groups by (parent, name): [id, name, parent, request,
        #: calls, total_s, self_s, first_start, last_end].
        self.groups: Dict[tuple, list] = {}
        #: Per span name: summed ``counter(result)`` of wrapped calls.
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hot, counter in _targets():
            original = getattr(owner, attr)
            wrapper = (self._hot if hot else self._coarse)(original, name, counter)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent_frame(self, stack: list) -> Optional[list]:
        if stack:
            return stack[-1]
        if self._root is not None:
            return self._open.get(self._root)
        return None

    def _count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _coarse(self, fn: Callable, name: str, counter) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent_frame(stack)
            frame = [tracer._new_id(), 0.0]
            tracer._open[frame[0]] = frame
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer._count(name, counter(result))
                return result
            finally:
                end = _clock()
                stack.pop()
                del tracer._open[frame[0]]
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((
                    frame[0], name, parent[0] if parent else None,
                    tracer.request, start, end, duration - frame[1],
                ))

        return wrapper

    def _hot(self, fn: Callable, name: str, counter) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent_frame(stack)
            key = (parent[0] if parent else None, name)
            group = tracer.groups.get(key)
            if group is None:
                group = [tracer._new_id(), name, key[0], tracer.request,
                         0, 0.0, 0.0, None, 0.0]
                tracer.groups[key] = group
            frame = [group[0], 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                group[4] += 1
                group[5] += duration
                group[6] += duration - frame[1]
                if group[7] is None:
                    group[7] = start
                group[8] = end
            if counter is not None:
                tracer._count(name, counter(result))
            return result

        return wrapper

    # ------------------------------------------------------------------

    @contextmanager
    def root(self, name: str, request: int):
        """A root span for one benchmark request (parent of cross-thread work)."""
        self.request = request
        stack = self._stack()
        frame = [self._new_id(), 0.0]
        self._open[frame[0]] = frame
        self._root = frame[0]
        stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            stack.pop()
            self._root = None
            del self._open[frame[0]]
            self.spans.append((
                frame[0], name, None, request, start, end,
                end - start - frame[1],
            ))
            self.request = None

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls and self seconds."""
        totals: Dict[str, Dict[str, float]] = {}
        for _id, name, _parent, _request, _start, _end, self_s in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        for group in self.groups.values():
            entry = totals.setdefault(group[1], {"calls": 0, "self_s": 0.0})
            entry["calls"] += group[4]
            entry["self_s"] += group[6]
        return totals

    def self_times(self, name: str) -> List[float]:
        """Self seconds of every coarse ``name`` span."""
        return [span[6] for span in self.spans if span[1] == name]

    def dump(self, path: str) -> None:
        """Write every span and hot group as JSON lines."""
        with open(path, "w") as handle:
            for span_id, name, parent, request, start, end, self_s in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "request": request, "start": start, "end": end,
                    "self_s": self_s,
                }) + "\n")
            for group in self.groups.values():
                handle.write(json.dumps({
                    "id": group[0], "name": group[1], "parent": group[2],
                    "request": group[3], "calls": group[4],
                    "total_s": group[5], "self_s": group[6],
                    "start": group[7], "end": group[8],
                }) + "\n")
