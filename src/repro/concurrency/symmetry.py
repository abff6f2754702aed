"""Canonical state keys for the DPOR explorer.

The ``--reduction dpor`` driver (``search/dpor.py``) deduplicates states
on ``CanonicalKeys.canonical(state)`` rather than the exact
``state.key()``.  The canonical key reuses the state's memoised thread
and storage component keys but replaces the propagation lists by a
quotient that forgets the explorer's residual exponential: per-thread
propagation-list order of events whose relative order no transition can
observe any more.  ``reduction.py`` establishes that every
thread-visible function of a propagation list (read values and
provenance, Group-A membership, coherence placement, coherence-point
blocking, final-memory enumeration) is insensitive to the relative
order of non-overlapping write events, yet the orders are key-distinct
-- the blowup the seen-set can never collapse on its own.  See
``CanonicalKeys._events_component`` for which order facts stay live.

Each instance also carries the data-cell geometry the DPOR race
abstraction maps byte ranges onto (``geometry.cells_of_range``).  The
module keeps its name because the benchmark tracer
(``perfbench/tracer.py``) wraps ``CanonicalKeys.canonical`` by this
import path.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from .events import INITIAL_TID
from .keys import CachedKey
from .system import SystemState

#: Bound on the per-search memo tables.
_MEMO_LIMIT = 1 << 16

#: Wildcard cell index: a footprint reaching outside every known cell.
OUT_OF_CELLS = -1


class _Geometry:
    """Data-cell layout: one (addr, size) per initial write."""

    __slots__ = ("cells",)

    def __init__(self, cells: List[Tuple[int, int]]):
        #: (addr, size) per initial-write index, in initial-write order.
        self.cells = cells

    def cells_of_range(self, addr: int, size: int) -> FrozenSet[int]:
        """Indexes of cells a byte range touches (+ wildcard if it leaks).

        The DPOR race abstraction's footprints are sets of these indexes.
        """
        touched = set()
        covered = 0
        for index, (base, span) in enumerate(self.cells):
            lo = max(addr, base)
            hi = min(addr + size, base + span)
            if lo < hi:
                touched.add(index)
                covered += hi - lo
        if covered < size:
            touched.add(OUT_OF_CELLS)
        return frozenset(touched)


def _build_geometry(initial: SystemState) -> _Geometry:
    """The data cells of ``initial``: its initial writes, in index order."""
    init = sorted(
        (wid.ioid[1], write)
        for wid, write in initial.storage.writes_seen.items()
        if wid.tid == INITIAL_TID
    )
    return _Geometry([(write.addr, write.size) for _i, write in init])


class CanonicalKeys:
    """Canonical seen-keys: component keys + quotiented event lists.

    One instance lives for one DPOR search (or one iterative-deepening
    run); its memo tables carry over between states of that search.
    """

    def __init__(self, initial: SystemState):
        self.geometry = _build_geometry(initial)
        self._events_memo: Dict[tuple, tuple] = {}

    def canonical(self, state: SystemState) -> CachedKey:
        """The canonical seen-key of ``state``: the real thread and
        storage component keys with the propagation lists replaced by
        their quotient (``_events_component``)."""
        storage = state.storage
        storage.key()  # materialise the memoised component keys
        threads_part = tuple(
            state.threads[tid].key() for tid in sorted(state.threads)
        )
        return CachedKey((
            "NF",
            threads_part,
            storage._writes_key,
            storage._coh_key,
            self._events_component(storage),
            storage._syncs_key,
            storage._atomic_key,
            storage._cp_key,
        ))

    # -- the propagation-list quotient -------------------------------------

    def _events_component(self, storage) -> tuple:
        """All propagation lists, quotiented to (event set, live order).

        The model consumes the *order* of a thread's propagation list
        through exactly four predicates (``storage.py``):

        * ``read_response`` / store-conditional resolution -- later
          **overlapping** write wins per byte;
        * ``can_propagate_write(w, target)`` -- barriers before ``w`` in
          ``w``'s *origin* list must already be at the target (Group A);
        * ``can_propagate_barrier(b, target)`` -- every event before
          ``b`` in ``b``'s *origin* list must be at the target (with
          superseded writes waived);
        * ``_has_cp_blocker(w)`` (and the analogous barrier-force check
          in ``reduction.py``) -- writes preceding the last barrier
          before ``w``, and earlier overlapping writes, must reach their
          coherence points first.

        Each consulted order fact dies *permanently* once its consumer
        can no longer fire: a write past its coherence point is skipped
        by every blocker scan, and a fully propagated event (present in
        every list) makes its Group-A gating vacuous -- both conditions
        are monotone.  The canonical encoding is therefore the sorted
        event set plus the still-live ordered pairs, expressed as index
        pairs into the sorted set.  States differing only in dead
        history order (the residual exponential after sleep sets) key
        identically; every predicate above evaluates identically on
        key-equal states, and death's monotonicity keeps the merged
        states equivalent under every future transition.
        """
        memo_key = (storage._events_tuple, storage._cp_key)
        cached = self._events_memo.get(memo_key)
        if cached is not None:
            return cached
        threads = storage.threads
        events_pos = storage._events_pos
        cps = storage.coherence_points
        overlaps = storage._overlaps
        parts = []
        for tid in threads:
            events = storage.events_propagated_to[tid]
            n = len(events)
            # Fully propagated = present in every thread's list; initial
            # writes are born that way.
            fully = [
                all(event in events_pos[t] for t in threads)
                for event in events
            ]
            live = []
            for j in range(n):
                tag_j, pay_j = events[j]
                for i in range(j):
                    tag_i, pay_i = events[i]
                    if tag_i == "w":
                        if tag_j == "w":
                            # Same-byte recency + coherence derivation.
                            alive = pay_j in overlaps[pay_i]
                        else:
                            # w in b's Group A, or w a cp-blocker via b.
                            alive = pay_i not in cps or (
                                pay_j.tid == tid
                                and not fully[i]
                                and not fully[j]
                            )
                    elif tag_j == "w":
                        # b gates w's propagation (origin Group A), or
                        # delimits w's cp-blocker prefix.
                        alive = pay_j not in cps or (
                            pay_j.tid == tid
                            and not fully[i]
                            and not fully[j]
                        )
                    else:
                        # b1 in b2's origin Group A.
                        alive = (
                            pay_j.tid == tid
                            and not fully[i]
                            and not fully[j]
                        )
                    if alive:
                        live.append((i, j))
            order = sorted(range(n), key=lambda k: events[k])
            rank = [0] * n
            for position, k in enumerate(order):
                rank[k] = position
            parts.append((
                tid,
                (
                    tuple(events[k] for k in order),
                    tuple(sorted((rank[i], rank[j]) for i, j in live)),
                ),
            ))
        value = tuple(parts)
        if len(self._events_memo) >= _MEMO_LIMIT:
            self._events_memo.clear()
        self._events_memo[memo_key] = value
        return value
