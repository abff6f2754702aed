"""Axiomatic commit/propagation-order solver for generated cycles.

``decide`` is the envelope oracle behind ``concurrent.expectation``: it
answers Allowed or Forbidden for every well-formed critical cycle,
including the classes a per-segment ordering analysis cannot settle --
write-started lwsync/eieio segments feeding a coherence edge (the
R+lwsync+sync family) and 3+-thread cycles resting on barrier
cumulativity (WRC+lwsync+addr vs WRC+addrs).  It is a small per-cycle
constraint solver over *symbolic event times*, mirroring the
operational model's racy transitions (``concurrency.system`` /
``concurrency.storage``) as order constraints:

* every read ``r`` has a satisfaction time ``S(r)``;
* every write ``w`` has one arrival time per thread: ``P(w, tid(w))``
  is its commit (acceptance into the storage subsystem), ``P(w, t)``
  its propagation to thread ``t`` -- *optional*: a write only reaches
  the threads that read it, that barriers push it to, or its own;
* every write has a coherence-point time ``CP(w)`` (the PLDI12-style
  coherence-commitment transition: barrier-separated writes order their
  coherence points even when their propagation sets are disjoint, which
  is what forbids 2+2W+lwsyncs);
* every fence has a commit time ``BC(b)``, optional per-thread
  propagation times ``BP(b, t)``, and -- for ``sync`` -- an
  acknowledgement time ``BA(b)`` that requires propagation to *every*
  thread first (the Group-A / cumulativity force).

Each cycle edge contributes constraints over those variables (reads-
from, from-reads and coherence per location arc; dependency commit
blocking; fence ordering and cumulativity).  The conjunction asserts
"the forbidden outcome happened", so:

* constraints satisfiable (the order graph is acyclic) -- some
  interleaving realises the cycle: **Allowed**;
* unsatisfiable (every completion has an order cycle) -- **Forbidden**,
  and the contradiction cycle names the architectural reason.

Two model subtleties make this a (very small) *search*, not a single
graph check:

* a barrier propagates to thread ``t`` only after its Group A is
  *effectively* there -- a Group-A write counts as propagated when a
  coherence-later write to the same location already reached ``t``
  (``storage.write_effectively_propagated``; without it 2+2W+syncs
  would wedge).  Each such obligation is a disjunction over which write
  carries it, and the solver branches over the choices;
* which ``P(w, t)``/``BP(b, t)`` variables exist at all is the least
  set forced by the choices (reads-from seeds, barrier pushes), since
  every constraint is monotone in the variable set -- the adversarial
  execution propagates as little as possible.

``decide`` is cross-checked against all 31 ``diy.CURATED_CYCLES``
architected statuses and against the operational model on the seed-0
two-thread shapes (``tests/test_axiomatic.py``), and validated against
the model over generated suites through ``check_suite``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..litmus.diy import Edge, _build_rotation, _events_of

#: Dependency edges whose unresolved input blocks every po-later store
#: commit (an unresolved store *address* additionally blocks po-later
#: satisfactions).
_BLOCKING_DEPS = frozenset(
    {"DpAddrdR", "DpAddrdW", "DpCtrldR", "DpCtrldW", "DpCtrlIsyncdR"}
)

#: Dependency bases lowered through a conditional branch: the branch
#: must resolve (source read satisfied) before any po-later *fence* may
#: commit (``system._can_commit_barrier`` waits for finished branches).
_BRANCH_DEPS = frozenset({"DpCtrld", "DpCtrlIsyncd"})

_FENCES = ("Syncd", "LwSyncd", "Eieiod")

#: Safety valve for the effective-propagation choice search.  Real
#: cycles (<= 6 threads, <= 5 writes per location arc) stay orders of
#: magnitude below this.
_MAX_ASSIGNMENTS = 50_000


class AxiomaticError(Exception):
    """The cycle cannot be encoded (malformed or search blow-up)."""


# ----------------------------------------------------------------------
# Constraint-system skeleton (assignment-independent cycle structure)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Fence:
    """One fence instance: ``kind`` between thread positions gap/gap+1."""

    fid: int
    tid: int
    gap: int  # between thread-local events [gap] and [gap + 1]
    kind: str  # "sync" | "lwsync" | "eieio"


@dataclass
class _Skeleton:
    """Static structure shared by every choice-assignment of one cycle."""

    events: list  # diy._Event list of the build rotation
    thread_events: Dict[int, List[int]]  # tid -> event indexes in po
    fences: List[_Fence]
    arcs: Dict[int, List[int]]  # location -> event indexes in arc order
    rf: Dict[int, Optional[int]]  # read -> write it reads (None: initial)
    fr: Dict[int, List[int]]  # read -> coherence-later writes (same loc)
    co: List[Tuple[int, int]]  # ALL ordered same-location write pairs
    pre: Dict[int, List[int]]  # fence -> Group-A writes (see _fence_pre)
    post: Dict[int, List[int]]  # fence -> own-thread po-later writes
    co_successors: Dict[int, List[int]]  # write -> coherence-later writes


def _fence_kind(base: str) -> str:
    return {"Syncd": "sync", "LwSyncd": "lwsync", "Eieiod": "eieio"}[base]


def _build_skeleton(edges: Sequence[Edge]) -> _Skeleton:
    """Walk one build-rotated cycle into the solver's static tables."""
    events = _events_of(edges)
    thread_events: Dict[int, List[int]] = {}
    for event in events:
        thread_events.setdefault(event.tid, []).append(event.index)

    # Location arcs: events at one location form a contiguous arc of the
    # cycle linked by external edges; the arc starts where the incoming
    # edge is internal (same walk as diy._assign_values).
    arcs: Dict[int, List[int]] = {}
    for start in events:
        if start.in_edge.external:
            continue
        arc = [start.index]
        cursor = start
        while cursor.out_edge.external:
            cursor = events[(cursor.index + 1) % len(events)]
            arc.append(cursor.index)
        arcs[start.loc] = arc

    rf: Dict[int, Optional[int]] = {}
    fr: Dict[int, List[int]] = {}
    co: List[Tuple[int, int]] = []
    co_successors: Dict[int, List[int]] = {}
    for arc in arcs.values():
        writes = [i for i in arc if events[i].direction == "W"]
        for rank, wid in enumerate(writes):
            co_successors[wid] = writes[rank + 1:]
            for later in writes[rank + 1:]:
                # All pairs, not just adjacent ones: two writes must
                # arrive in coherence order at a common thread even when
                # the writes between them never reach it.
                co.append((wid, later))
        last_write: Optional[int] = None
        for i in arc:
            if events[i].direction == "W":
                last_write = i
            else:
                rf[i] = last_write
                position = arc.index(i)
                fr[i] = [j for j in arc[position:]
                         if events[j].direction == "W"]

    fences: List[_Fence] = []
    pre: Dict[int, List[int]] = {}
    post: Dict[int, List[int]] = {}
    for tid, indexes in thread_events.items():
        for gap in range(len(indexes) - 1):
            edge = events[indexes[gap + 1]].in_edge
            if edge.base not in _FENCES:
                continue
            fence = _Fence(len(fences), tid, gap, _fence_kind(edge.base))
            fences.append(fence)
            before = indexes[: gap + 1]
            after = indexes[gap + 1:]
            # Group A of the fence's storage event: own-thread stores
            # committed before it, plus -- for sync/lwsync, which wait
            # for po-earlier reads -- the writes those reads satisfied
            # from (they reached this thread first: A-cumulativity).
            group_a = [i for i in before if events[i].direction == "W"]
            if fence.kind in ("sync", "lwsync"):
                group_a += [
                    rf[i]
                    for i in before
                    if events[i].direction == "R" and rf.get(i) is not None
                ]
            pre[fence.fid] = group_a
            post[fence.fid] = [i for i in after if events[i].direction == "W"]

    return _Skeleton(
        events=events,
        thread_events=thread_events,
        fences=fences,
        arcs=arcs,
        rf=rf,
        fr=fr,
        co=co,
        pre=pre,
        post=post,
        co_successors=co_successors,
    )


# ----------------------------------------------------------------------
# Per-assignment constraint closure
# ----------------------------------------------------------------------

#: Variable naming: ("S", ev) read satisfaction; ("P", ev, tid) write
#: arrival on a thread (own thread = commit); ("CP", ev) coherence
#: point; ("BC", fid) fence commit; ("BP", fid, tid) fence propagation;
#: ("BA", fid) sync acknowledgement.
Var = Tuple


class _Unresolved(Exception):
    """Closure hit an effective-propagation obligation with no choice yet."""

    def __init__(self, site: Tuple[int, int, int], options: Tuple[int, ...]):
        super().__init__(f"unresolved obligation {site}")
        self.site = site  # (fence id, target thread, Group-A write)
        self.options = options  # candidate carrier writes


@dataclass
class _System:
    """One choice-assignment's variable set and order constraints."""

    skeleton: _Skeleton
    assignment: Dict[Tuple[int, int, int], int]
    present: Set[Var] = field(default_factory=set)
    order: Set[Tuple[Var, Var]] = field(default_factory=set)
    _queue: List[Var] = field(default_factory=list)

    def require(self, var: Var) -> Var:
        if var not in self.present:
            self.present.add(var)
            self._queue.append(var)
        return var

    def precede(self, before: Var, after: Var) -> None:
        self.require(before)
        self.require(after)
        self.order.add((before, after))

    # -- variable helpers ------------------------------------------------

    def _commit(self, ev: int) -> Var:
        return ("P", ev, self.skeleton.events[ev].tid)

    def _local(self, ev: int) -> Var:
        """An event's own-thread time: satisfaction or commit."""
        if self.skeleton.events[ev].direction == "R":
            return ("S", ev)
        return self._commit(ev)

    # -- production rules -----------------------------------------------

    def close(self) -> None:
        """Run every production rule to a fixpoint over ``present``.

        New variables (write/fence propagations) may be forced while
        processing others; the queue drains until nothing new appears.
        Raises ``_Unresolved`` at the first effective-propagation
        obligation the assignment does not cover yet.
        """
        self._seed()
        while self._queue:
            var = self._queue.pop()
            if var[0] == "P":
                self._on_write_arrival(var[1], var[2])
            elif var[0] == "BP":
                self._on_fence_arrival(var[1], var[2])

    def _seed(self) -> None:
        sk = self.skeleton
        for event in sk.events:
            if event.direction == "R":
                self.require(("S", event.index))
            else:
                self.require(self._commit(event.index))
                self.precede(self._commit(event.index), ("CP", event.index))
        for earlier, later in sk.co:
            self.precede(("CP", earlier), ("CP", later))
        for read, source in sk.rf.items():
            if source is not None:
                tid = sk.events[read].tid
                self.precede(("P", source, tid), ("S", read))
        self._seed_thread_local()
        for fence in sk.fences:
            if fence.kind != "sync":
                continue
            ack = ("BA", fence.fid)
            self.precede(("BC", fence.fid), ack)
            for tid in sk.thread_events:
                if tid == fence.tid:
                    continue
                prop = ("BP", fence.fid, tid)
                self.precede(("BC", fence.fid), prop)
                self.precede(prop, ack)

    def _seed_thread_local(self) -> None:
        """Per-thread rules: fences, dependencies, commit blocking."""
        sk = self.skeleton
        for tid, indexes in sk.thread_events.items():
            fences = [f for f in sk.fences if f.tid == tid]
            for fence in fences:
                self._seed_fence(fence, indexes)
            for gap in range(len(indexes) - 1):
                edge = sk.events[indexes[gap + 1]].in_edge
                if edge.dependency:
                    self._seed_dependency(edge, gap, indexes, fences)

    def _seed_fence(self, fence: _Fence, indexes: List[int]) -> None:
        sk = self.skeleton
        commit = ("BC", fence.fid)
        before = indexes[: fence.gap + 1]
        after = indexes[fence.gap + 1:]
        for i in before:
            if sk.events[i].direction == "W":
                # Po-earlier stores land in Group A before the fence
                # commits (every fence kind).
                self.precede(self._commit(i), commit)
            elif fence.kind in ("sync", "lwsync"):
                # sync/lwsync additionally wait for po-earlier reads.
                self.precede(("S", i), commit)
        barrier_out = ("BA", fence.fid) if fence.kind == "sync" else commit
        for i in after:
            if sk.events[i].direction == "W":
                # Po-later stores commit after the fence (sync: after
                # the acknowledgement) -- every fence kind.
                self.precede(barrier_out, self._commit(i))
            elif fence.kind in ("sync", "lwsync"):
                # Po-later reads satisfy after lwsync commit / sync ack;
                # eieio leaves reads entirely alone.
                self.precede(barrier_out, ("S", i))
        # Same-thread fences commit in program order.
        for other in sk.fences:
            if other.tid == fence.tid and other.gap > fence.gap:
                self.precede(commit, ("BC", other.fid))
        # Coherence-point force: Group-A writes reach their coherence
        # points before own-thread po-later writes do (the write-write
        # cumulative force of storage._has_cp_blocker; this is what
        # forbids 2+2W+lwsyncs without propagating anything anywhere).
        for group_a in sk.pre[fence.fid]:
            for group_b in sk.post[fence.fid]:
                self.precede(("CP", group_a), ("CP", group_b))

    def _seed_dependency(
        self,
        edge: Edge,
        gap: int,
        indexes: List[int],
        fences: List[_Fence],
    ) -> None:
        sk = self.skeleton
        source = ("S", indexes[gap])
        target = indexes[gap + 1]
        if edge.base in ("DpAddrd", "DpDatad"):
            self.precede(source, self._local(target))
        elif edge.base == "DpCtrld":
            if edge.tgt == "W":
                self.precede(source, self._commit(target))
        elif edge.base == "DpCtrlIsyncd":
            # The isync refetch orders the read before everything later.
            for later in indexes[gap + 1:]:
                self.precede(source, self._local(later))
        if edge.name in _BLOCKING_DEPS:
            for later in indexes[gap + 1:]:
                if edge.name == "DpAddrdW":
                    # An unresolved store address blocks po-later loads
                    # too (they might have to forward from it).
                    self.precede(source, self._local(later))
                elif sk.events[later].direction == "W":
                    self.precede(source, self._commit(later))
        if edge.base in _BRANCH_DEPS:
            # The branch must resolve before any po-later fence commits.
            for fence in fences:
                if fence.gap > gap:
                    self.precede(source, ("BC", fence.fid))

    # -- demand-driven rules ---------------------------------------------

    def _on_write_arrival(self, ev: int, tid: int) -> None:
        """Rules fired when ``P(ev, tid)`` joins the variable set."""
        sk = self.skeleton
        event = sk.events[ev]
        arrival = ("P", ev, tid)
        if tid != event.tid:
            # A write propagates only after its own-thread commit, and
            # after every po-earlier same-thread fence reached ``tid``
            # (storage.can_propagate_write's barrier-prefix condition).
            self.precede(self._commit(ev), arrival)
            position = sk.thread_events[event.tid].index(ev)
            for fence in sk.fences:
                if fence.tid == event.tid and fence.gap < position:
                    self.precede(("BP", fence.fid, tid), arrival)
        # Coherence: same-location arrivals at one thread follow
        # coherence order (a later write already at ``tid`` makes the
        # earlier one unplaceable there forever).
        for earlier, later in sk.co:
            if ev not in (earlier, later):
                continue
            other = later if ev == earlier else earlier
            other_arrival = ("P", other, tid)
            if other_arrival in self.present:
                if ev == earlier:
                    self.order.add((arrival, other_arrival))
                else:
                    self.order.add((other_arrival, arrival))
        # From-reads: a read on ``tid`` of this location that missed
        # this write must have satisfied first.
        for read, missed in sk.fr.items():
            if ev in missed and sk.events[read].tid == tid:
                self.precede(("S", read), arrival)

    def _on_fence_arrival(self, fid: int, tid: int) -> None:
        """Rules fired when ``BP(fid, tid)`` joins the variable set."""
        sk = self.skeleton
        fence = sk.fences[fid]
        arrival = ("BP", fid, tid)
        self.precede(("BC", fid), arrival)
        # Po-later own-thread writes reach ``tid`` only behind the fence.
        for later in sk.post[fid]:
            later_arrival = ("P", later, tid)
            if later_arrival in self.present:
                self.order.add((arrival, later_arrival))
        # Same-thread earlier fences propagate first.
        for other in sk.fences:
            if other.tid == fence.tid and other.gap < fence.gap:
                self.precede(("BP", other.fid, tid), arrival)
        # Group A must be *effectively* at ``tid`` first: the write
        # itself, or -- the storage model's escape hatch -- any
        # coherence-later write to the same location.
        for group_a in sk.pre[fid]:
            if sk.events[group_a].tid == tid:
                self.precede(self._commit(group_a), arrival)
                continue
            options = (group_a,) + tuple(sk.co_successors.get(group_a, ()))
            if len(options) == 1:
                carrier = group_a
            else:
                site = (fid, tid, group_a)
                carrier = self.assignment.get(site)
                if carrier is None:
                    raise _Unresolved(site, options)
            self.precede(("P", carrier, tid), arrival)

    # -- satisfiability ---------------------------------------------------

    def order_cycle(self) -> Optional[List[Var]]:
        """A cycle of the order relation, or None if it is acyclic."""
        successors: Dict[Var, List[Var]] = {}
        for before, after in self.order:
            successors.setdefault(before, []).append(after)
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[Var, int] = {}
        for root in self.present:
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[Var, int]] = [(root, 0)]
            path: List[Var] = []
            color[root] = GREY
            path.append(root)
            while stack:
                node, child = stack[-1]
                kids = successors.get(node, ())
                if child < len(kids):
                    stack[-1] = (node, child + 1)
                    nxt = kids[child]
                    state = color.get(nxt, WHITE)
                    if state == GREY:
                        return path[path.index(nxt):] + [nxt]
                    if state == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, 0))
                        path.append(nxt)
                else:
                    color[node] = BLACK
                    stack.pop()
                    path.pop()
        return None


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomaticVerdict:
    """The solver's decision for one cycle, with its evidence."""

    status: str  # "Allowed" | "Forbidden"
    #: Forbidden: one unsatisfiable constraint cycle (human-readable
    #: variable names, first repeated at the end) from the last
    #: assignment tried.  Allowed: None.
    contradiction: Optional[Tuple[str, ...]]
    assignments_tried: int

    @property
    def forbidden(self) -> bool:
        return self.status == "Forbidden"


def _describe(skeleton: _Skeleton, var: Var) -> str:
    def ev(i: int) -> str:
        event = skeleton.events[i]
        return f"{event.direction}{event.loc}@T{event.tid}"

    kind = var[0]
    if kind == "S":
        return f"satisfy {ev(var[1])}"
    if kind == "P":
        event = skeleton.events[var[1]]
        if event.tid == var[2]:
            return f"commit {ev(var[1])}"
        return f"prop {ev(var[1])}->T{var[2]}"
    if kind == "CP":
        return f"cp {ev(var[1])}"
    fence = skeleton.fences[var[1]]
    label = f"{fence.kind}@T{fence.tid}"
    if kind == "BC":
        return f"commit {label}"
    if kind == "BA":
        return f"ack {label}"
    return f"prop {label}->T{var[2]}"


def decide(edges: Sequence[Edge]) -> AxiomaticVerdict:
    """Decide one cycle: Allowed iff some choice closure is acyclic.

    The cycle is rotated to the canonical build rotation first, so the
    verdict is independent of how the cycle was entered.  The search
    branches only over effective-propagation carrier choices; everything
    else is a deterministic closure.
    """
    rotation = _build_rotation(tuple(edges))
    skeleton = _build_skeleton(rotation)

    tried = 0
    last_cycle: Optional[List[Var]] = None

    def attempt(assignment: Dict[Tuple[int, int, int], int]) -> bool:
        nonlocal tried, last_cycle
        tried += 1
        if tried > _MAX_ASSIGNMENTS:
            raise AxiomaticError(
                f"choice search exceeded {_MAX_ASSIGNMENTS} assignments "
                f"for {[e.name for e in rotation]}"
            )
        system = _System(skeleton=skeleton, assignment=assignment)
        try:
            system.close()
        except _Unresolved as obligation:
            for option in obligation.options:
                branched = dict(assignment)
                branched[obligation.site] = option
                if attempt(branched):
                    return True
            return False
        cycle = system.order_cycle()
        if cycle is None:
            return True
        last_cycle = cycle
        return False

    if attempt({}):
        return AxiomaticVerdict(
            status="Allowed", contradiction=None, assignments_tried=tried
        )
    names = tuple(_describe(skeleton, var) for var in (last_cycle or []))
    return AxiomaticVerdict(
        status="Forbidden", contradiction=names, assignments_tried=tried
    )
