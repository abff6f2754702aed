"""Parallel litmus-corpus exploration.

State graphs of distinct litmus tests are independent, so the natural unit
of parallelism is one test: the corpus is sharded per test across
``multiprocessing`` workers, each of which builds (or, with the ``fork``
start method, inherits) the process-wide ISA model and runs the exhaustive
oracle through a pluggable ``SearchStrategy``.  Results come back as slim,
picklable ``CorpusTestResult`` records whose ``ExplorationStats`` are
merged into corpus-level totals.

``explore_corpus`` takes ``(name, source)`` pairs so workers re-parse the
litmus source themselves -- litmus files are tiny, and shipping text keeps
the worker protocol independent of every internal class being picklable.
(Strategies themselves are frozen dataclasses, picklable by value.)

Corpus-level and intra-test parallelism compose under ONE worker budget
(``jobs``): per-test sharding soaks up the budget first (at most one
worker per test), and any leftover is redistributed as intra-test
frontier workers per corpus worker -- 2 tests under ``--jobs 8`` run as
two corpus workers sharding four ways each, and a single test (the
IRIW+syncs-class case where one graph dwarfs the corpus) gets the whole
budget as ``ShardedParallel`` frontier workers.  ``plan_worker_budget``
is that policy.  When the plan includes intra sharding, the corpus pool
is a non-daemonic ``ProcessPoolExecutor`` (plain ``multiprocessing.Pool``
workers are daemonic and may not fork shard children); inside any worker
that still cannot fork, ``ShardedParallel`` degrades to sequential
search.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .params import DEFAULT_PARAMS, ModelParams
from .search import SearchStrategy, SequentialDFS, ShardedParallel
from .search.core import ExplorationLimit, ExplorationStats

#: One unit of work: (name, litmus source, params, max_states, strategy).
Task = Tuple[str, str, ModelParams, Optional[int], SearchStrategy]


@dataclass
class CorpusTestResult:
    """Slim, picklable summary of one test's exhaustive run."""

    name: str
    status: str  # litmus verdict ("Allowed", ...) or "StateLimit" on budget
    witnessed: bool
    holds_always: bool
    outcomes: Set[Tuple]  # the full outcome set (register/memory tuples)
    stats: ExplorationStats
    error: Optional[str] = None  # set when the state budget was exhausted
    complete: bool = True  # False: ``outcomes`` is a partial set

    @property
    def outcome_count(self) -> int:
        return len(self.outcomes)


@dataclass
class CorpusReport:
    """All per-test results of a corpus run plus scheduling metadata."""

    results: List[CorpusTestResult]
    jobs: int
    wall_seconds: float

    def merged_stats(self) -> ExplorationStats:
        """Corpus totals: sums of counters, max frontier, summed CPU time."""
        merged = ExplorationStats()
        for result in self.results:
            merged.merge(result.stats)
        return merged

    def by_name(self, name: str) -> CorpusTestResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


def default_job_count() -> int:
    """Usable CPUs: the scheduling affinity mask where the OS exposes it.

    ``os.cpu_count()`` reports the machine's cores even when the process
    is pinned to fewer (cgroup-limited containers, taskset), which
    over-subscribes the pool; prefer the affinity mask.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def plan_worker_budget(budget: int, test_count: int) -> Tuple[int, int]:
    """Split one worker budget into (corpus jobs, intra-test jobs).

    Per-test sharding is near-embarrassingly parallel, so corpus jobs
    soak up the budget first (one worker per test, at most).  Whatever
    is left over is handed back as intra-test frontier workers *per
    corpus worker*: with 2 tests and ``--jobs 8`` the plan is
    ``(2, 4)`` -- two corpus workers, each sharding its test's frontier
    four ways -- where it used to be ``(2, 1)`` with six workers
    stranded.  A single test degenerates to ``(1, budget)``.

    The plan is the *budget*, not a promise: intra-test sharding above
    one job additionally needs workers that may fork children, so
    ``explore_corpus`` runs multi-worker corpora through a non-daemonic
    executor when the plan calls for intra sharding, and
    ``ShardedParallel`` itself degrades to sequential search inside any
    worker that cannot fork (daemonic pools, no ``fork`` method).

    Boundary shapes: a budget *smaller* than the test count gives every
    worker exactly one intra job (``(budget, 1)`` -- never 0, never more
    workers than budget), and an empty corpus plans ``(1, 1)`` instead
    of handing the whole budget to work that does not exist.  The
    invariant is ``corpus_jobs * intra_jobs <= max(budget, 1)`` with
    both components >= 1.
    """
    if budget < 1:
        raise ValueError(f"jobs must be >= 1, got {budget}")
    if test_count <= 0:
        return 1, 1
    corpus_jobs = min(budget, test_count)
    intra_jobs = max(1, budget // corpus_jobs)
    return corpus_jobs, intra_jobs


def _init_worker() -> None:
    """Warm the process-wide ISA model once per worker."""
    from ..isa.model import default_model

    default_model()


# ----------------------------------------------------------------------
# Graceful worker shutdown
# ----------------------------------------------------------------------
#
# A corpus run interrupted mid-``pool.map`` (KeyboardInterrupt at the
# CLI, SIGTERM against the serve daemon) used to leak its children: the
# parent unwound, the workers kept exploring.  Every live pool now
# registers an abort handle; ``explore_corpus`` aborts its own pool on
# the way out of an interrupt, and ``shutdown_active_pools`` lets a
# signal handler (the daemon's SIGTERM path) terminate-and-join whatever
# is running from outside the exploring thread.

_ACTIVE_POOLS: Set["_PoolHandle"] = set()
_ACTIVE_POOLS_LOCK = threading.Lock()


class _PoolHandle:
    """Terminate-and-join control over one worker pool.

    Wraps either a ``multiprocessing.Pool`` or a
    ``concurrent.futures.ProcessPoolExecutor`` (whose API has no
    ``terminate``; its children are killed directly).
    """

    def __init__(self, pool=None, executor=None):
        self._pool = pool
        self._executor = executor

    def abort(self) -> None:
        """Terminate every child process and reap it."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
        if self._executor is not None:
            processes = list(
                getattr(self._executor, "_processes", {}).values()
            )
            for process in processes:
                if process.is_alive():
                    process.terminate()
            try:
                self._executor.shutdown(wait=False, cancel_futures=True)
            except TypeError:  # pragma: no cover - Python < 3.9
                self._executor.shutdown(wait=False)
            for process in processes:
                process.join(timeout=5)


def _register_pool(handle: "_PoolHandle") -> "_PoolHandle":
    with _ACTIVE_POOLS_LOCK:
        _ACTIVE_POOLS.add(handle)
    return handle


def _unregister_pool(handle: "_PoolHandle") -> None:
    with _ACTIVE_POOLS_LOCK:
        _ACTIVE_POOLS.discard(handle)


def shutdown_active_pools() -> int:
    """Terminate-and-join every live corpus pool; returns how many.

    Installed behind the serve daemon's SIGTERM handler and usable from
    any cleanup path that must not strand worker children.
    """
    with _ACTIVE_POOLS_LOCK:
        handles = list(_ACTIVE_POOLS)
        _ACTIVE_POOLS.clear()
    for handle in handles:
        handle.abort()
    return len(handles)


def _run_task(task: Task) -> CorpusTestResult:
    """Worker body: parse and exhaustively run one litmus test."""
    # Imported lazily: this module lives below repro.litmus in the package
    # graph, and the imports also must happen inside spawned workers.
    from ..isa.model import default_model
    from ..litmus.parser import parse_litmus
    from ..litmus.runner import run_litmus

    name, source, params, max_states, strategy = task
    test = parse_litmus(source)
    try:
        result = run_litmus(
            test,
            default_model(),
            params=params,
            max_states=max_states,
            strategy=strategy,
        )
    except ExplorationLimit as limit:
        # A budget-exhausted test is a reportable per-test outcome, not a
        # corpus-wide crash (e.g. IRIW+syncs exceeds the Python budget).
        # The work done up to exhaustion still counts toward the totals.
        return CorpusTestResult(
            name=name if name else test.name,
            status="StateLimit",
            witnessed=False,
            holds_always=False,
            outcomes=set(),
            stats=limit.stats if limit.stats is not None else ExplorationStats(),
            error=str(limit),
            complete=False,
        )
    complete = result.exploration.complete
    return CorpusTestResult(
        name=name if name else test.name,
        status=result.status,
        witnessed=result.witnessed,
        holds_always=result.holds_always,
        outcomes=result.outcomes,
        stats=result.exploration.stats,
        error=None if complete else "state budget exhausted (partial outcomes)",
        complete=complete,
    )


def explore_corpus(
    items: Sequence[Tuple[str, str]],
    jobs: Optional[int] = None,
    params: ModelParams = DEFAULT_PARAMS,
    max_states: Optional[int] = None,
    strategy: SearchStrategy = SequentialDFS(),
) -> CorpusReport:
    """Exhaustively run a corpus of litmus tests, sharded across workers.

    ``items`` is a sequence of (name, litmus source) pairs; ``jobs`` is
    the total worker budget (default: usable CPU count), split between
    per-test sharding and intra-test frontier workers by
    ``plan_worker_budget``.  ``strategy`` is the per-test search
    backend.  ``jobs=1`` (or a single test) runs inline in this process
    -- same results, no pool overhead.
    """
    budget = jobs if jobs is not None else default_job_count()
    tasks_source = list(items)
    corpus_jobs, intra_jobs = plan_worker_budget(budget, len(tasks_source))
    needs_forking_workers = False
    if isinstance(strategy, ShardedParallel):
        if corpus_jobs == 1:
            if strategy.jobs is None:
                strategy = dataclasses.replace(strategy, jobs=intra_jobs)
        elif intra_jobs > 1 and ShardedParallel.can_fork():
            # Leftover budget becomes per-test frontier workers; the
            # corpus pool must then be non-daemonic so each worker may
            # fork its shard children.
            strategy = dataclasses.replace(strategy, jobs=intra_jobs)
            needs_forking_workers = True
        else:
            # No leftover budget (or no fork): intra search runs
            # sequentially inside the corpus workers.
            strategy = dataclasses.replace(strategy, jobs=1)
    tasks: List[Task] = [
        (name, source, params, max_states, strategy)
        for name, source in tasks_source
    ]
    started = time.perf_counter()
    if corpus_jobs == 1:
        results = [_run_task(task) for task in tasks]
    else:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else None
        context = multiprocessing.get_context(method)
        if method == "fork":
            # Parse the ISA model once here; forked workers inherit it.
            _init_worker()
        # Per-test granularity (chunksize=1): state-graph sizes vary by
        # orders of magnitude, so fine-grained scheduling load-balances.
        if needs_forking_workers:
            # ``multiprocessing.Pool`` workers are daemonic and may not
            # fork; ``ProcessPoolExecutor`` workers are not, so they can
            # run the intra-test shard fan-out planned above.
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(
                max_workers=corpus_jobs,
                mp_context=context,
                initializer=_init_worker,
            )
            handle = _register_pool(_PoolHandle(executor=executor))
            try:
                results = list(executor.map(_run_task, tasks, chunksize=1))
                executor.shutdown()
            except BaseException:
                # KeyboardInterrupt/SIGTERM unwinding must not strand
                # the children mid-exploration.
                handle.abort()
                raise
            finally:
                _unregister_pool(handle)
        else:
            pool = context.Pool(
                processes=corpus_jobs, initializer=_init_worker
            )
            handle = _register_pool(_PoolHandle(pool=pool))
            try:
                results = pool.map(_run_task, tasks, chunksize=1)
                pool.close()
                pool.join()
            except BaseException:
                handle.abort()
                raise
            finally:
                _unregister_pool(handle)
    wall = time.perf_counter() - started
    return CorpusReport(results=results, jobs=corpus_jobs, wall_seconds=wall)
