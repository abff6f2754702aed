"""Exhaustive exploration: compute the set of all allowed executions.

This is the test-oracle mode of section 6: a memoised depth-first search
over the system-state transition graph.  Final states are summarised as
*outcomes* -- per-thread final register values plus possible final memory
values (one outcome per linearisation of residual coherence freedom).

This module is now a thin facade over the pluggable search subsystem
(``repro.concurrency.search``): the historical ``explore`` and
``find_witness`` entry points delegate to a ``SearchStrategy`` backend
(``SequentialDFS`` by default, which is bit-identical -- states visited,
transitions taken, outcomes -- to the pre-refactor loops).  Pass a built
``strategy`` to search differently: ``ShardedParallel`` forks the
frontier across worker processes inside a single test,
``BoundedIterative`` trades completeness for a bounded, flagged partial
result, and any backend's ``reduction``/``context_bound`` fields turn
on the pruning layer.  ``SearchConfig.build()`` makes one from settings.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .search import SearchStrategy, SequentialDFS
from .search.core import (  # noqa: F401  (re-exported compatibility surface)
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    Frontier as _Frontier,
    Outcome,
    Witness,
    outcome_of as _outcome_of,
    registers_of_interest as _registers_of_interest,
)
from .system import SystemState, Transition
from .thread import ModelError


def explore(
    initial: SystemState,
    memory_cells: Iterable[Tuple[int, int]] = (),
    max_states: Optional[int] = None,
    collect_deadlocks: bool = False,
    strategy: SearchStrategy = SequentialDFS(),
) -> ExplorationResult:
    """Exhaustively enumerate all reachable final states.

    ``memory_cells`` lists (addr, size) memory locations whose final values
    the caller cares about (from the litmus test's final condition);
    ``strategy`` is the search backend.  A context bound on it may
    truncate the outcome set, reported via ``ExplorationResult.complete``.
    """
    return strategy.explore(
        initial,
        memory_cells=memory_cells,
        max_states=max_states,
        collect_deadlocks=collect_deadlocks,
    )


def find_witness(
    initial: SystemState,
    predicate,
    memory_cells: Iterable[Tuple[int, int]] = (),
    max_states: Optional[int] = None,
    strategy: SearchStrategy = SequentialDFS(),
) -> Optional[Witness]:
    """Search for one execution whose outcome satisfies ``predicate``.

    Returns a ``Witness`` (unpackable as ``(trace, final_state)``, with
    ``.stats`` carrying the same accounting as ``explore``) for the first
    witnessing execution found, or None if the predicate is unsatisfiable.
    The trace is the abstract-machine run behind the outcome -- the
    executable counterpart of the paper's execution diagrams.  A
    context-truncated witness search raises instead of returning an
    unsupported ``None``; witness searches run ``dpor`` as sleep sets so
    the returned trace is a concrete execution.
    """
    return strategy.find_witness(
        initial,
        predicate,
        memory_cells=memory_cells,
        max_states=max_states,
    )


def run_one(initial: SystemState, choose=None, max_steps: int = 100000):
    """Run a single (pseudo-random or guided) execution to completion.

    ``choose(state, transitions)`` picks one transition; the default takes
    the first.  Used by the interactive front-end and the emulator mode.
    """
    state = initial
    last: Optional[Transition] = None
    for step in range(max_steps):
        if state.is_final():
            return state
        transitions = state.enumerate_transitions()
        if not transitions:
            raise ModelError(
                f"deadlock in single execution after {step} steps "
                f"(last transition: {last if last is not None else 'none'})\n"
                + state.render()
            )
        transition = transitions[0] if choose is None else choose(
            state, transitions
        )
        state = state.apply(transition)
        last = transition
    raise ModelError(
        f"execution did not terminate within the step budget "
        f"({max_steps} steps; last transition: "
        f"{last if last is not None else 'none'})"
    )
