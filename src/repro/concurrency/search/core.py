"""Shared machinery of the search subsystem.

The exhaustive oracle used to live as two near-identical ~50-line DFS
loops in ``concurrency/exhaustive.py`` (``explore`` and ``find_witness``).
This module is the single search driver both modes now run on:

  * ``Frontier`` -- DFS stack + seen-set bookkeeping with state-budget
    accounting (optionally over a caller-owned seen set, whose size
    the strategy reports as ``unique_states``);
  * ``run_search`` -- the unified loop, parameterised by a *visitor*
    (``CollectOutcomes`` for explore, ``StopOnWitness`` for witness
    searches) and an optional payload extender (transition traces for
    witnesses);
  * the result vocabulary: ``ExplorationStats`` / ``ExplorationResult``
    (now with an explicit ``complete`` flag for budget-bounded partial
    results), ``Witness``, ``ExplorationLimit`` (now carrying the
    partial ``stats`` so budget exhaustion no longer zeroes the work
    accounting), and the outcome summarisers.

The sequential strategy drives this loop directly and is bit-identical
-- states visited, transitions taken, outcomes -- to the pre-refactor
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..system import SystemState, Transition
from ..thread import ModelError

#: An outcome: ((tid, reg, value-int-or-None) ...) + ((addr,size,value) ...).
Outcome = Tuple[Tuple, Tuple]


class ExplorationLimit(Exception):
    """The state budget was exhausted before the search completed.

    ``stats`` carries the accounting of the work done up to the point of
    exhaustion (``None`` only for hand-raised instances), so callers can
    fold partial searches into corpus totals instead of zeroing them.
    """

    def __init__(self, message: str, stats: Optional["ExplorationStats"] = None):
        super().__init__(message)
        self.stats = stats


@dataclass
class ExplorationStats:
    states_visited: int = 0
    transitions_taken: int = 0
    final_states: int = 0
    deadlocks: int = 0
    max_frontier: int = 0
    seconds: float = 0.0
    #: Distinct state keys deduplicated against (seen-set sizes, merged).
    #: ``states_visited`` measures work *done* -- under sleep sets it
    #: counts partial revisits of a stored state -- while this counts
    #: states *covered*; benchmarks record both so throughput entries
    #: stop conflating the two.
    unique_states: int = 0

    def merge(self, other: "ExplorationStats") -> None:
        """Fold another search's accounting into this one (corpus totals)."""
        self.states_visited += other.states_visited
        self.transitions_taken += other.transitions_taken
        self.final_states += other.final_states
        self.deadlocks += other.deadlocks
        self.max_frontier = max(self.max_frontier, other.max_frontier)
        self.seconds += other.seconds
        self.unique_states += other.unique_states


@dataclass
class ExplorationResult:
    outcomes: Set[Outcome]
    stats: ExplorationStats
    deadlock_states: List[SystemState] = field(default_factory=list)
    #: False when the search returned a *partial* outcome set because a
    #: state budget ran out (``BoundedIterative``); the outcome set is
    #: then a sound under-approximation, not the envelope.
    complete: bool = True

    def register_outcomes(self) -> Set[Tuple]:
        """Just the register parts of the outcomes."""
        return {registers for registers, _memory in self.outcomes}


@dataclass
class Witness:
    """A witnessing execution: the abstract-machine trace plus statistics.

    Unpackable, indexable and sized as the ``(trace, final_state)``
    two-tuple that ``find_witness`` originally returned.
    """

    trace: List[Transition]
    final_state: SystemState
    stats: ExplorationStats

    def __iter__(self) -> Iterator:
        yield self.trace
        yield self.final_state

    def __getitem__(self, index):
        return (self.trace, self.final_state)[index]

    def __len__(self) -> int:
        return 2


class Frontier:
    """DFS frontier + seen-set bookkeeping shared by the search modes.

    Each stack entry is a (state, payload) pair; explore-mode searches
    carry no payload, witness searches carry the transition path.
    Popping counts a visited state against the budget; pushing applies a
    transition, counts it, and deduplicates the successor against the
    seen keys.  ``seen`` lets the caller own the dedup set (and read
    its size afterwards).
    """

    def __init__(self, initial: SystemState, payload, limit: int,
                 stats: ExplorationStats, seen: Optional[Set] = None):
        self.limit = limit
        self.stats = stats
        self.stack: List[Tuple[SystemState, object]] = [(initial, payload)]
        if seen is None:
            self.seen: Set = {initial.key()}
        else:
            seen.add(initial.key())
            self.seen = seen

    def __bool__(self) -> bool:
        return bool(self.stack)

    def pop(self) -> Tuple[SystemState, object]:
        stats = self.stats
        stats.max_frontier = max(stats.max_frontier, len(self.stack))
        # Budget check *before* counting: an ``ExplorationLimit``'s
        # partial stats must equal the budget exactly, not overstate the
        # work by the one state that was never processed.
        if stats.states_visited >= self.limit:
            raise ExplorationLimit(
                f"exceeded {self.limit} states; increase params.max_states",
                stats,
            )
        state, payload = self.stack.pop()
        stats.states_visited += 1
        return state, payload

    def push(self, state: SystemState, transition: Transition,
             payload) -> None:
        successor = state.apply(transition)
        self.stats.transitions_taken += 1
        key = successor.key()
        if key not in self.seen:
            self.seen.add(key)
            self.stack.append((successor, payload))


def registers_of_interest(
    system: SystemState,
    static_cache: Optional[Dict[int, FrozenSet[str]]] = None,
) -> List[Tuple[int, str]]:
    """(tid, register) pairs whose final values describe an outcome.

    The static output registers of an instance depend only on its fetch
    address (program memory is fixed for the whole exploration), so they are
    computed once per address and cached across the search's final states;
    each state only extends the set with its dynamically discovered writes.
    """
    if static_cache is None:
        static_cache = {}
    names: List[Tuple[int, str]] = []
    for tid, thread in sorted(system.threads.items()):
        seen = set(thread.initial_registers)
        for instance in thread.instances.values():
            for record in instance.reg_writes:
                seen.add(record.slice.reg)
            static = static_cache.get(instance.address)
            if static is None:
                static = frozenset(
                    out.reg for out in instance.static_fp.regs_out
                )
                static_cache[instance.address] = static
            seen.update(static)
        for name in sorted(seen):
            names.append((tid, name))
    return names


def outcome_of(
    system: SystemState,
    memory_cells: Iterable[Tuple[int, int]],
    static_cache: Optional[Dict[int, FrozenSet[str]]] = None,
) -> List[Outcome]:
    registers = []
    by_tid: Dict[int, List[str]] = {}
    for tid, name in registers_of_interest(system, static_cache):
        by_tid.setdefault(tid, []).append(name)
    for tid, names in by_tid.items():
        values = system.threads[tid].final_register_values(
            system.model, names
        )
        for name in names:
            value = values[name]
            registers.append(
                (tid, name, value.to_int() if value.is_known else None)
            )
    register_part = tuple(registers)
    cells = list(memory_cells)
    if not cells:
        return [(register_part, ())]
    outcomes = []
    for memory in system.final_memory(cells):
        memory_part = tuple(
            (addr, size, memory[(addr, size)]) for addr, size in cells
        )
        outcomes.append((register_part, memory_part))
    return outcomes


class CollectOutcomes:
    """Explore-mode visitor: accumulate every final state's outcomes."""

    def __init__(self, cells: Tuple[Tuple[int, int], ...],
                 collect_deadlocks: bool = False):
        self.cells = cells
        self.collect_deadlocks = collect_deadlocks
        self.static_cache: Dict[int, FrozenSet[str]] = {}
        self.outcomes: Set[Outcome] = set()
        self.deadlock_states: List[SystemState] = []

    def on_final(self, state: SystemState, payload) -> None:
        self.outcomes.update(outcome_of(state, self.cells, self.static_cache))
        return None

    def on_deadlock(self, state: SystemState) -> None:
        if self.collect_deadlocks:
            self.deadlock_states.append(state)


class StopOnWitness:
    """Witness-mode visitor: stop at the first satisfying final state."""

    def __init__(self, predicate, cells: Tuple[Tuple[int, int], ...]):
        self.predicate = predicate
        self.cells = cells
        self.static_cache: Dict[int, FrozenSet[str]] = {}

    def on_final(self, state: SystemState, payload):
        for outcome in outcome_of(state, self.cells, self.static_cache):
            if self.predicate(outcome):
                return (state, payload)
        return None

    def on_deadlock(self, state: SystemState) -> None:
        pass


#: Payload extender building a transition trace (witness searches).
def extend_trace(path, transition):
    return path + (transition,)


def run_search(
    initial: SystemState,
    visitor,
    *,
    limit: int,
    stats: ExplorationStats,
    strict_deadlocks: bool,
    payload=None,
    extend: Optional[Callable] = None,
    seen: Optional[Set] = None,
    reducer=None,
    canon=None,
):
    """The unified DFS loop behind every search mode.

    Pops states, summarises finals through the visitor (a non-``None``
    visitor result stops the search and is returned), counts deadlocked
    coherence-constrained paths, and pushes successors.  With
    ``strict_deadlocks`` a stuck non-final state raises ``ModelError``
    (explore mode); without it the path is abandoned (witness mode, which
    historically skipped such states).  ``extend`` builds child payloads;
    ``None`` propagates no payload (explore mode).

    A non-``None`` ``reducer`` (``reduction.Reducer``) switches to the
    pruning loop: sleep-set partial-order reduction and/or context
    bounding.  With sleep sets on, ``seen`` must be (and defaults to) a
    dict mapping state key to its stored sleep set instead of a plain
    set.

    A reducer with ``dpor`` set additionally requires ``canon`` (a
    ``symmetry.CanonicalKeys``) and dispatches to the source-DPOR loop
    in ``dpor.py``; its ``seen`` maps *canonical* keys to per-state
    coverage entries and must be private to one search.  The dpor loop
    collects outcomes only (no payloads): witness searches run dpor as
    sleep sets.
    """
    if reducer is not None and reducer.dpor:
        from .dpor import run_dpor

        return run_dpor(
            initial, visitor, limit=limit, stats=stats,
            strict_deadlocks=strict_deadlocks, reducer=reducer,
            canon=canon, seen=seen,
        )
    if reducer is not None:
        return _run_reduced(
            initial, visitor, limit=limit, stats=stats,
            strict_deadlocks=strict_deadlocks, payload=payload,
            extend=extend, seen=seen, reducer=reducer,
        )
    frontier = Frontier(initial, payload, limit, stats, seen=seen)
    while frontier:
        state, path = frontier.pop()
        if state.is_final():
            # Residual propagate/ack transitions only add coherence edges;
            # the final-memory enumeration over linear extensions of the
            # current partial order already covers every continuation.
            stats.final_states += 1
            found = visitor.on_final(state, path)
            if found is not None:
                return found
            continue
        transitions = state.enumerate_transitions()
        if not transitions:
            if state.threads_finished():
                # Threads complete but some write cannot reach its coherence
                # point (a barrier-induced cycle): a dead path representing
                # coherence choices no hardware execution can realise.
                stats.deadlocks += 1
                visitor.on_deadlock(state)
                continue
            if strict_deadlocks:
                raise ModelError(
                    "deadlock: no transitions from a non-final state\n"
                    + state.render()
                )
            continue
        if extend is None:
            for transition in transitions:
                frontier.push(state, transition, None)
        else:
            for transition in transitions:
                frontier.push(state, transition, extend(path, transition))
    return None


def visit_sleep(seen, key, sleep: FrozenSet[Transition]):
    """Record an arrival at ``key`` with ``sleep``; say what to explore.

    The seen map stores one sleep set per state -- the *intersection*
    of every arrival's sleep set, which by induction is exactly the set
    of transitions NOT yet explored from the state (Godefroid's
    state-caching sleep-set algorithm).  Returns

    * ``(False, None)`` -- first arrival: explore everything awake;
    * ``(True, None)`` -- the stored set is a subset of this arrival's,
      so every continuation this arrival would explore already was:
      prune;
    * ``(False, wake)`` -- partial coverage: only the transitions in
      ``wake`` (previously asleep on every visit, awake now) need
      exploring, and the stored set shrinks to the intersection.
    """
    stored = seen.get(key)
    if stored is None:
        seen[key] = sleep
        return False, None
    if stored <= sleep:
        return True, None
    seen[key] = stored & sleep
    return False, stored - sleep


def _run_reduced(
    initial: SystemState,
    visitor,
    *,
    limit: int,
    stats: ExplorationStats,
    strict_deadlocks: bool,
    payload,
    extend: Optional[Callable],
    seen,
    reducer,
):
    """``run_search`` with sleep-set pruning and/or a context bound.

    Kept as a separate loop so the unreduced driver stays byte-for-byte
    on its historical hot path (and bit-identical in its counters); the
    cross-strategy equivalence tests pin the observable agreement of the
    two loops.  See ``reduction`` for the pruning theory; the state/
    final/deadlock handling mirrors the plain loop exactly.
    """
    sleep_on = reducer.sleep
    if seen is None:
        seen = {} if sleep_on else set()
    root_sleep: FrozenSet[Transition] = frozenset()
    if sleep_on:
        visit_sleep(seen, initial.key(), root_sleep)
    else:
        seen.add(initial.key())
    stack = [(initial, payload, root_sleep, (None, 0), None)]
    while stack:
        stats.max_frontier = max(stats.max_frontier, len(stack))
        if stats.states_visited >= limit:
            raise ExplorationLimit(
                f"exceeded {limit} states; increase params.max_states",
                stats,
            )
        state, path, sleep, context, wake = stack.pop()
        stats.states_visited += 1
        if state.is_final():
            stats.final_states += 1
            found = visitor.on_final(state, path)
            if found is not None:
                return found
            continue
        transitions = state.enumerate_transitions()
        if not transitions:
            if state.threads_finished():
                stats.deadlocks += 1
                visitor.on_deadlock(state)
                continue
            if strict_deadlocks:
                raise ModelError(
                    "deadlock: no transitions from a non-final state\n"
                    + state.render()
                )
            continue
        explored: List[Transition] = []
        for transition in transitions:
            if sleep_on:
                if wake is not None and transition not in wake:
                    # A revisit: everything outside the woken difference
                    # was already explored from this state.
                    continue
                if transition in sleep:
                    # Covered by an equivalent interleaving through the
                    # sibling that put this transition to sleep.
                    continue
            if not reducer.within_bound(context, transition):
                continue
            if sleep_on:
                child_sleep = frozenset(
                    z
                    for source in (sleep, explored)
                    for z in source
                    if reducer.independent(state, z, transition)
                )
            else:
                child_sleep = sleep
            successor = state.apply(transition)
            stats.transitions_taken += 1
            key = successor.key()
            if sleep_on:
                pruned, child_wake = visit_sleep(seen, key, child_sleep)
                explored.append(transition)
                if pruned:
                    continue
            else:
                if key in seen:
                    continue
                seen.add(key)
                child_wake = None
            stack.append((
                successor,
                extend(path, transition) if extend else None,
                child_sleep,
                reducer.advance_context(context, transition),
                child_wake,
            ))
    return None

