"""The search strategy: single-process depth-first search.

``SequentialDFS`` is the pre-refactor engine re-expressed over the
unified driver: states visited, transitions taken, final states,
deadlocks and outcome sets are bit-identical to the historical
``explore``/``find_witness`` loops (asserted by
``tests/test_search_strategies.py`` against the recorded E6 numbers and
by the fast-state-engine regression tests).

``reduction``/``context_bound`` opt in to the pruning layer
(``reduction.py``): sleep-set partial-order reduction preserves the
outcome envelope; a context bound may truncate it, which the result
reports as ``complete=False`` (and ``find_witness`` keeps loud by
raising ``ExplorationLimit`` instead of returning an unsupported
``None``).

Strategies are small frozen dataclasses, so they are picklable (corpus
workers receive them by value) and hashable.  ``partial_on_limit``
selects what budget exhaustion means for ``explore``: raise
``ExplorationLimit`` here, return the partial outcome set flagged
``complete=False`` in ``BoundedIterative``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Tuple

from .core import (
    CollectOutcomes,
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    StopOnWitness,
    Witness,
    extend_trace,
    run_search,
)
from .reduction import make_reducer
from ..symmetry import CanonicalKeys
from ..system import SystemState


@dataclass(frozen=True)
class SequentialDFS:
    """Memoised in-process DFS over one test's system-state graph."""

    reduction: str = "none"
    context_bound: Optional[int] = None

    #: Registry / CLI name of the strategy.
    name: ClassVar[str] = "sequential"
    #: On budget exhaustion, ``explore`` returns the partial outcome set
    #: with ``complete=False`` instead of raising ``ExplorationLimit``.
    partial_on_limit: ClassVar[bool] = False

    @staticmethod
    def resolve_limit(initial: SystemState, max_states: Optional[int]) -> int:
        return (
            max_states if max_states is not None else initial.params.max_states
        )

    def explore(
        self,
        initial: SystemState,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
        collect_deadlocks: bool = False,
    ) -> ExplorationResult:
        limit = self.resolve_limit(initial, max_states)
        stats = ExplorationStats()
        reducer = make_reducer(self.reduction, self.context_bound)
        if reducer is not None and reducer.dpor:
            canon = CanonicalKeys(initial)
            seen = {}
        else:
            canon = None
            seen = {} if reducer is not None and reducer.sleep else set()
        visitor = CollectOutcomes(tuple(memory_cells), collect_deadlocks)
        started = time.perf_counter()
        try:
            run_search(
                initial, visitor, limit=limit, stats=stats,
                strict_deadlocks=True, seen=seen, reducer=reducer,
                canon=canon,
            )
            complete = reducer is None or not reducer.truncated
        except ExplorationLimit:
            if not self.partial_on_limit:
                raise
            # The outcomes found so far are genuinely reachable: a sound
            # under-approximation of the envelope.
            complete = False
        finally:
            # Also on ExplorationLimit: the exception carries this same
            # stats object, and its partial work must not report zero
            # seconds (it would inflate downstream throughput numbers)
            # or zero coverage.
            stats.seconds = time.perf_counter() - started
            stats.unique_states = len(seen)
        return ExplorationResult(
            visitor.outcomes, stats, visitor.deadlock_states, complete
        )

    def find_witness(
        self,
        initial: SystemState,
        predicate,
        memory_cells: Iterable[Tuple[int, int]] = (),
        max_states: Optional[int] = None,
    ) -> Optional[Witness]:
        limit = self.resolve_limit(initial, max_states)
        stats = ExplorationStats()
        visitor = StopOnWitness(predicate, tuple(memory_cells))
        # Witness traces must be concrete executions; witness searches
        # run the (equally sound, envelope-preserving) sleep-set layer
        # instead of the dpor driver, which is built for outcome
        # collection.
        reduction = "sleep" if self.reduction == "dpor" else self.reduction
        reducer = make_reducer(reduction, self.context_bound)
        seen = {} if reducer is not None and reducer.sleep else set()
        started = time.perf_counter()
        try:
            found = run_search(
                initial,
                visitor,
                limit=limit,
                stats=stats,
                strict_deadlocks=False,
                payload=(),
                extend=extend_trace,
                seen=seen,
                reducer=reducer,
            )
        finally:
            stats.seconds = time.perf_counter() - started
            stats.unique_states = len(seen)
        if found is None:
            if reducer is not None and reducer.truncated:
                # A truncated witness search proves nothing: ``None``
                # would read as unsatisfiability, which the cut paths
                # cannot support.
                raise ExplorationLimit(
                    f"context bound {self.context_bound} truncated the "
                    "witness search before it completed",
                    stats,
                )
            return None
        state, path = found
        return Witness(list(path), state, stats)
