"""The envelope engine: one request API over the whole query path.

Every way of asking the oracle a question -- ``ppcmem2 run`` on a file,
the corpus runner, the testgen harness's ``check_suite``, the serve
daemon's job queue -- used to build its own strategy/reduction/budget
plumbing and call ``run_litmus``/``run_corpus`` directly.  This module
inverts that: ``EnvelopeEngine.run_request(request) -> Verdict`` is the
single façade, with

* canonicalisation: the litmus source is parsed and re-emitted through
  ``litmus/emit.emit_litmus`` (a parse/emit fixed point), so two
  differently-formatted copies of the same test are the same query;
* one ``concurrency.search.SearchConfig`` per request: the same value
  carries ``--strategy``/``--reduction``/``--context-bound``/
  ``--max-states`` or the daemon's JSON ``options``, builds the
  strategy that runs, and derives the cache key;
* an optional persistent ``VerdictCache``: a repeated query returns the
  stored verdict in microseconds, and any parameter change (budget,
  reduction, ...) correctly misses because the parameters are
  part of the key (``service.cache.cache_key``);
* ``run_batch`` for many requests at once, scheduling cache misses
  through the parallel corpus runner, one worker per test -- this is
  the daemon's job executor.

Verdicts are plain data (JSON-serialisable via ``to_payload``), so the
same object flows from the engine into the cache, over the daemon's
HTTP API, and back out of ``ppcmem2 client``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..concurrency.params import DEFAULT_PARAMS, ModelParams
from ..concurrency.search import SearchConfig
from ..concurrency.search.core import ExplorationLimit, ExplorationStats
from .cache import VerdictCache, cache_key

#: Outcome tuples as produced by the search core: hashable nested tuples.
Outcome = Tuple[Tuple, Tuple]


@dataclass(frozen=True)
class EngineRequest:
    """One oracle query: a litmus source plus its search settings."""

    source: str
    name: Optional[str] = None
    search: SearchConfig = SearchConfig()

    def __post_init__(self):
        if not isinstance(self.source, str):
            raise ValueError("source must be a string")

    @classmethod
    def from_options(
        cls, source: str, name: Optional[str] = None, options: Optional[dict] = None
    ) -> "EngineRequest":
        """Build a request from a JSON-safe options dict (daemon path)."""
        return cls(source, name, SearchConfig.from_options(options))


@dataclass
class Verdict:
    """The oracle's answer to one request -- plain, serialisable data."""

    name: str
    status: str
    quantifier: str
    witnessed: bool
    holds_always: bool
    complete: bool
    outcomes: FrozenSet[Outcome]
    outcome_lines: Tuple[Tuple[str, bool], ...]
    stats: Dict[str, Any]
    error: Optional[str]
    key: str
    cached: bool = False

    def to_payload(self) -> Dict[str, Any]:
        """JSON-encodable form: what the cache stores and the API ships."""
        return {
            "name": self.name,
            "status": self.status,
            "quantifier": self.quantifier,
            "witnessed": self.witnessed,
            "holds_always": self.holds_always,
            "complete": self.complete,
            "outcomes": [
                [
                    [list(entry) for entry in registers],
                    [list(cell) for cell in memory],
                ]
                for registers, memory in sorted(self.outcomes, key=repr)
            ],
            "outcome_lines": [list(line) for line in self.outcome_lines],
            "stats": dict(self.stats),
            "error": self.error,
            "key": self.key,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], cached: bool = False
    ) -> "Verdict":
        outcomes = frozenset(
            (
                tuple(tuple(entry) for entry in registers),
                tuple(tuple(cell) for cell in memory),
            )
            for registers, memory in payload["outcomes"]
        )
        return cls(
            name=payload["name"],
            status=payload["status"],
            quantifier=payload["quantifier"],
            witnessed=payload["witnessed"],
            holds_always=payload["holds_always"],
            complete=payload["complete"],
            outcomes=outcomes,
            outcome_lines=tuple(
                (text, satisfied)
                for text, satisfied in payload["outcome_lines"]
            ),
            stats=dict(payload["stats"]),
            error=payload["error"],
            key=payload["key"],
            cached=cached,
        )


@dataclass
class BatchResult:
    """Verdicts for a batch of requests plus scheduling/cache metadata."""

    verdicts: List[Verdict]
    jobs: int
    wall_seconds: float
    hits: int
    misses: int

    def merged_stats(self) -> ExplorationStats:
        merged = ExplorationStats()
        for verdict in self.verdicts:
            merged.merge(_stats_from_dict(verdict.stats))
        return merged


@dataclass(frozen=True)
class _Resolved:
    """A request after canonicalisation: what actually runs and its key."""

    name: str
    test: Any  # parsed LitmusTest
    canonical_source: str
    search: SearchConfig
    key: str


def _stats_to_dict(stats: ExplorationStats) -> Dict[str, Any]:
    return {
        "states_visited": stats.states_visited,
        "transitions_taken": stats.transitions_taken,
        "final_states": stats.final_states,
        "deadlocks": stats.deadlocks,
        "max_frontier": stats.max_frontier,
        "unique_states": stats.unique_states,
        "seconds": stats.seconds,
    }


def _stats_from_dict(data: Dict[str, Any]) -> ExplorationStats:
    return ExplorationStats(
        states_visited=data.get("states_visited", 0),
        transitions_taken=data.get("transitions_taken", 0),
        final_states=data.get("final_states", 0),
        deadlocks=data.get("deadlocks", 0),
        max_frontier=data.get("max_frontier", 0),
        seconds=data.get("seconds", 0.0),
        unique_states=data.get("unique_states", 0),
    )


#: ``error`` text for complete=False results, matching the corpus runner.
_PARTIAL_ERROR = "state budget exhausted (partial outcomes)"


class EnvelopeEngine:
    """The shared query engine behind the CLI, the harness and the daemon.

    ``cache`` is an optional ``VerdictCache``; without one every request
    explores cold (the pre-service behaviour).  ``params`` are the model
    parameters (part of every cache key).
    """

    def __init__(
        self,
        cache: Optional[VerdictCache] = None,
        params: ModelParams = DEFAULT_PARAMS,
    ):
        self.cache = cache
        self.params = params
        self._model = None

    # ------------------------------------------------------------------

    @property
    def model(self):
        if self._model is None:
            from ..isa.model import default_model

            self._model = default_model()
        return self._model

    def resolve(self, request: EngineRequest) -> _Resolved:
        """Parse + canonicalise a request and derive its cache key.

        The key and the strategy that runs both come from the request's
        ``SearchConfig``, so what is keyed is exactly what runs.
        """
        from ..litmus.emit import emit_litmus
        from ..litmus.parser import parse_litmus

        test = parse_litmus(request.source)
        canonical = emit_litmus(test)
        return _Resolved(
            name=request.name or test.name,
            test=test,
            canonical_source=canonical,
            search=request.search,
            key=cache_key(canonical, request.search, self.params),
        )

    def request_key(self, request: EngineRequest) -> str:
        return self.resolve(request).key

    # ------------------------------------------------------------------

    def run_request(self, request: EngineRequest) -> Verdict:
        """Answer one request: cache hit in microseconds, or explore."""
        resolved = self.resolve(request)
        hit = self._lookup(resolved)
        if hit is not None:
            return hit
        verdict = self._explore(resolved)
        self._store(resolved, verdict)
        return verdict

    def run_batch(
        self,
        requests: Sequence[EngineRequest],
        jobs: Optional[int] = None,
    ) -> BatchResult:
        """Answer many requests, fanning cache misses across workers.

        Misses are grouped by their ``SearchConfig`` and each group runs
        through the parallel corpus runner, which spends the ``jobs``
        budget on at most one worker per test.  Verdict order matches
        request order.
        """
        from ..concurrency.parallel import explore_corpus

        started = time.perf_counter()
        resolved = [self.resolve(request) for request in requests]
        verdicts: List[Optional[Verdict]] = [None] * len(resolved)
        hits = 0
        for i, res in enumerate(resolved):
            hit = self._lookup(res)
            if hit is not None:
                verdicts[i] = hit
                hits += 1
        miss_groups: Dict[SearchConfig, List[int]] = {}
        for i, res in enumerate(resolved):
            if verdicts[i] is None:
                miss_groups.setdefault(res.search, []).append(i)
        report_jobs = 1
        for search, indexes in miss_groups.items():
            report = explore_corpus(
                [
                    (resolved[i].name, resolved[i].canonical_source)
                    for i in indexes
                ],
                jobs=jobs,
                params=self.params,
                max_states=search.max_states,
                strategy=search.build(),
            )
            report_jobs = max(report_jobs, report.jobs)
            for i, result in zip(indexes, report.results):
                verdict = self._verdict_from_corpus(resolved[i], result)
                verdicts[i] = verdict
                self._store(resolved[i], verdict)
        return BatchResult(
            verdicts=list(verdicts),
            jobs=report_jobs,
            wall_seconds=time.perf_counter() - started,
            hits=hits,
            misses=len(resolved) - hits,
        )

    # ------------------------------------------------------------------

    def _lookup(self, resolved: _Resolved) -> Optional[Verdict]:
        if self.cache is None:
            return None
        payload = self.cache.get(resolved.key)
        if payload is None:
            return None
        return Verdict.from_payload(payload, cached=True)

    def _store(self, resolved: _Resolved, verdict: Verdict) -> None:
        if self.cache is None:
            return
        self.cache.put(resolved.key, verdict.name, verdict.to_payload())

    def _explore(self, resolved: _Resolved) -> Verdict:
        from ..litmus.runner import run_litmus

        try:
            result = run_litmus(
                resolved.test,
                self.model,
                params=self.params,
                max_states=resolved.search.max_states,
                strategy=resolved.search.build(),
            )
        except ExplorationLimit as limit:
            stats = limit.stats if limit.stats is not None else ExplorationStats()
            return Verdict(
                name=resolved.name,
                status="StateLimit",
                quantifier=resolved.test.quantifier,
                witnessed=False,
                holds_always=False,
                complete=False,
                outcomes=frozenset(),
                outcome_lines=(),
                stats=_stats_to_dict(stats),
                error=str(limit),
                key=resolved.key,
            )
        complete = result.exploration.complete
        return Verdict(
            name=resolved.name,
            status=result.status,
            quantifier=resolved.test.quantifier,
            witnessed=result.witnessed,
            holds_always=result.holds_always,
            complete=complete,
            outcomes=frozenset(result.outcomes),
            outcome_lines=tuple(result.outcome_table()),
            stats=_stats_to_dict(result.exploration.stats),
            error=None if complete else _PARTIAL_ERROR,
            key=resolved.key,
        )

    def _verdict_from_corpus(self, resolved: _Resolved, result) -> Verdict:
        """Adapt a worker's ``CorpusTestResult`` into a ``Verdict``.

        The outcome table is recomputed here (workers ship only the raw
        outcome tuples): the address layout is a deterministic function
        of the test, so the decoded lines are identical to what a
        single-process run would have printed.
        """
        from ..concurrency.search.core import ExplorationResult
        from ..litmus.runner import LitmusResult, addresses_for

        lines: Tuple[Tuple[str, bool], ...] = ()
        if result.outcomes:
            shell = LitmusResult(
                test=resolved.test,
                outcomes=set(result.outcomes),
                witnessed=result.witnessed,
                holds_always=result.holds_always,
                exploration=ExplorationResult(
                    outcomes=set(result.outcomes),
                    stats=result.stats,
                    complete=result.complete,
                ),
                addresses=addresses_for(resolved.test),
            )
            lines = tuple(shell.outcome_table())
        return Verdict(
            name=resolved.name,
            status=result.status,
            quantifier=resolved.test.quantifier,
            witnessed=result.witnessed,
            holds_always=result.holds_always,
            complete=result.complete,
            outcomes=frozenset(result.outcomes),
            outcome_lines=lines,
            stats=_stats_to_dict(result.stats),
            error=result.error,
            key=resolved.key,
        )
