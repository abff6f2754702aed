#!/usr/bin/env python
"""E6 benchmark harness: run the exploration suite, record a trajectory.

Runs the representative E6 litmus family through the exhaustive oracle and
appends one entry (per-test and total transitions/s, states/s, wall time)
to a ``BENCH_e6.json`` trajectory file, so future performance PRs have a
baseline to compare against on the same machine.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--output PATH] [--label L]
        [--suite e6|gen|gen-wide|service]
        [--strategy sequential|sharded|bounded]
        [--intra-jobs N] [--shard-depth D]
        [--reduction none|sleep|dpor] [--context-bound N]

``--suite gen`` runs the diy-generated two-thread suite instead of the
curated E6 family, appending a generated-suite throughput entry to the
same trajectory (marked ``"suite": "gen"``).

``--strategy`` picks the search backend per test (entries record it
under ``"strategy"``): ``sharded --intra-jobs N`` forks each test's own
frontier across N workers, so multi-core boxes can finally speed up a
*single* large exploration; on the 1-CPU reference container it measures
the sharding overhead instead.  Sharded counters include cross-shard
duplicate work (its ``unique_states`` sums each shard's seen set), so
compare its ``seconds``/wall numbers, not its counts, against
sequential entries.  Totals record ``unique_per_second`` (unique states
over wall seconds) beside the raw rates, and the E6 line's speedup is
a ratio of wall seconds on the same test set.

``SEED_BASELINE`` holds the seed implementation's numbers measured by the
same protocol (one warm process, stats from inside ``explore``) on the
reference container; the E6 pytest benchmark prints a before/after table
against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

REPRESENTATIVE = ["MP", "MP+syncs", "SB+syncs", "R", "WRC+sync+addr"]

#: Seed (pre-optimisation) E6 numbers on the reference container:
#: per-test (states, finals, transitions, seconds) plus totals.
SEED_BASELINE = {
    "label": "seed",
    "per_test": {
        "MP": {"states": 316, "finals": 26, "transitions": 752, "seconds": 0.086},
        "MP+syncs": {"states": 312, "finals": 26, "transitions": 577, "seconds": 0.074},
        "SB+syncs": {"states": 1125, "finals": 32, "transitions": 2542, "seconds": 0.332},
        "R": {"states": 1390, "finals": 106, "transitions": 3284, "seconds": 0.377},
        "WRC+sync+addr": {"states": 2152, "finals": 218, "transitions": 5696, "seconds": 0.959},
    },
    "total": {
        "states": 5295,
        "transitions": 12851,
        "seconds": 1.829,
        "transitions_per_second": 7025,
    },
}

DEFAULT_OUTPUT = os.path.join(os.path.dirname(__file__), "BENCH_e6.json")


#: Generated-suite benchmark: two-thread tests from the diy generator,
#: a standing throughput workload for the cycle-based test pipeline.
GEN_SEED = 0
GEN_SIZE = 12

#: Wide generated-suite benchmark: the lifted generator caps (up to 6
#: threads / 4-edge runs), a standing workload for the larger families
#: the axiomatic-solver-backed oracle now decides.  Exploration is
#: state-bounded: blowups record their partial work, not a crash.
GEN_WIDE_SEED = 0
GEN_WIDE_SIZE = 10
GEN_WIDE_MAX_THREADS = 6
GEN_WIDE_MAX_RUN = 4
GEN_WIDE_MAX_STATES = 150_000


def _suite_tests(suite):
    """The (name, LitmusTest) pairs of the chosen benchmark suite."""
    from repro.litmus.library import by_name

    if suite == "e6":
        return [(name, by_name(name).parse()) for name in REPRESENTATIVE]
    from repro.litmus.diy import generate

    if suite == "gen-wide":
        return [
            (test.name, test.test)
            for test in generate(
                GEN_WIDE_SEED,
                GEN_WIDE_SIZE,
                max_threads=GEN_WIDE_MAX_THREADS,
                max_run=GEN_WIDE_MAX_RUN,
            )
        ]
    return [
        (test.name, test.test)
        for test in generate(GEN_SEED, GEN_SIZE, max_threads=2)
    ]


def run_service_suite():
    """Cold-vs-warm latency of the service engine on the E6 family.

    Cold: a fresh exploration through ``EnvelopeEngine.run_request``
    (empty cache).  Warm: the identical request again -- a verdict-cache
    hit.  Records per-test latencies, the speedup, and the hit rate;
    asserts the warm verdict is bit-identical to the cold one before
    recording anything.
    """
    import time as _time

    from repro.litmus.library import by_name
    from repro.service import EngineRequest, EnvelopeEngine, VerdictCache

    cache = VerdictCache()
    engine = EnvelopeEngine(cache=cache)
    per_test = {}
    total_cold = total_warm = 0.0
    for name in REPRESENTATIVE:
        request = EngineRequest(source=by_name(name).source, name=name)
        started = _time.perf_counter()
        cold = engine.run_request(request)
        cold_seconds = _time.perf_counter() - started
        started = _time.perf_counter()
        warm = engine.run_request(request)
        warm_seconds = _time.perf_counter() - started
        if not warm.cached or warm.to_payload() != cold.to_payload():
            raise AssertionError(
                f"{name}: warm verdict not a bit-identical cache hit"
            )
        per_test[name] = {
            "status": cold.status,
            "cold_seconds": round(cold_seconds, 6),
            "warm_seconds": round(warm_seconds, 6),
            "speedup": round(cold_seconds / warm_seconds, 1)
            if warm_seconds
            else None,
        }
        total_cold += cold_seconds
        total_warm += warm_seconds
    stats = cache.stats()
    total = {
        "cold_seconds": round(total_cold, 6),
        "warm_seconds": round(total_warm, 6),
        "speedup": round(total_cold / total_warm, 1) if total_warm else None,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "cache_hit_rate": round(
            stats["hits"] / (stats["hits"] + stats["misses"]), 3
        )
        if stats["hits"] + stats["misses"]
        else 0.0,
    }
    return per_test, total


def run_suite(model=None, suite="e6", search=None):
    """Run one benchmark suite under ``search``; returns (per_test, total).

    ``search`` is a ``SearchConfig`` (default: sequential, unreduced,
    unbounded).  Its reduction is recorded verbatim in every per-test
    entry (even ``"none"``) so trajectory consumers can compare reduced
    and unreduced entries without consulting the strategy record; the
    per-test ``unique_states`` counter is the coverage that pairs with
    it (canonical-key states under ``dpor``, raw keys otherwise).
    """
    from repro.concurrency.search import ExplorationLimit, SearchConfig
    from repro.isa.model import default_model
    from repro.litmus.runner import run_litmus

    model = model if model is not None else default_model()
    search = search if search is not None else SearchConfig()
    strategy = search.build()
    per_test = {}
    total_states = total_unique = total_transitions = 0
    total_seconds = 0.0
    for name, test in _suite_tests(suite):
        limited = False
        try:
            result = run_litmus(
                test, model, max_states=search.max_states, strategy=strategy
            )
            stats = result.exploration.stats
        except ExplorationLimit as exc:
            # Budget exhaustion still did (and accounts) real work.
            from repro.concurrency.search import ExplorationStats

            stats = exc.stats if exc.stats is not None else ExplorationStats()
            limited = True
        per_test[name] = {
            "states": stats.states_visited,
            "finals": stats.final_states,
            "transitions": stats.transitions_taken,
            "unique_states": stats.unique_states,
            "reduction": search.reduction,
            "seconds": round(stats.seconds, 4),
        }
        if limited:
            per_test[name]["limit"] = True
        total_states += stats.states_visited
        total_unique += stats.unique_states
        total_transitions += stats.transitions_taken
        total_seconds += stats.seconds
    total = {
        "states": total_states,
        "unique_states": total_unique,
        "transitions": total_transitions,
        "seconds": round(total_seconds, 4),
        "transitions_per_second": int(total_transitions / total_seconds)
        if total_seconds
        else 0,
        "states_per_second": int(total_states / total_seconds)
        if total_seconds
        else 0,
        "unique_per_second": int(total_unique / total_seconds)
        if total_seconds
        else 0,
    }
    return per_test, total


def main(argv=None) -> int:
    from repro.concurrency.search import REDUCTIONS, STRATEGIES, SearchConfig

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default=None, help="trajectory entry label")
    parser.add_argument(
        "--suite",
        choices=("e6", "gen", "gen-wide", "service"),
        default="e6",
        help="e6: the representative curated family (default); "
        "gen: the diy-generated two-thread suite "
        f"(seed {GEN_SEED}, size {GEN_SIZE}); "
        "gen-wide: the lifted-cap generated suite "
        f"(seed {GEN_WIDE_SEED}, size {GEN_WIDE_SIZE}, up to "
        f"{GEN_WIDE_MAX_THREADS} threads / {GEN_WIDE_MAX_RUN}-edge runs, "
        f"state budget {GEN_WIDE_MAX_STATES}); "
        "service: cold-vs-warm verdict-cache latency of the service "
        "engine on the e6 family",
    )
    parser.add_argument(
        "--strategy",
        choices=sorted(STRATEGIES),
        default="sequential",
        help="search backend per test (default sequential)",
    )
    parser.add_argument(
        "--intra-jobs",
        type=int,
        default=None,
        help="frontier workers per test for --strategy sharded",
    )
    parser.add_argument(
        "--shard-depth",
        type=int,
        default=None,
        help="frontier split depth for --strategy sharded",
    )
    parser.add_argument(
        "--reduction",
        choices=REDUCTIONS,
        default="none",
        help="partial-order reduction (verdict-preserving): sleep sets, "
        "or source-DPOR over canonical state keys",
    )
    parser.add_argument(
        "--context-bound",
        type=int,
        default=None,
        help="context-switch bound (sound under-approximation)",
    )
    args = parser.parse_args(argv)

    sharded = args.strategy == "sharded"
    if not sharded and (
        args.intra_jobs is not None or args.shard_depth is not None
    ):
        print(
            "warning: --intra-jobs/--shard-depth only apply to "
            "--strategy sharded; ignored",
            file=sys.stderr,
        )
    search = SearchConfig(
        strategy=args.strategy,
        reduction=args.reduction,
        context_bound=args.context_bound,
        max_states=GEN_WIDE_MAX_STATES if args.suite == "gen-wide" else None,
        jobs=args.intra_jobs if sharded else None,
        shard_depth=args.shard_depth if sharded else None,
    )
    # Record what will actually run, not the raw CLI args: resolve the
    # worker count, and flag sharded entries that degrade to sequential
    # (one usable CPU / no fork) so cross-machine comparisons aren't
    # poisoned by a mislabeled backend.
    strategy_record = {"name": args.strategy}
    if args.reduction != "none":
        strategy_record["reduction"] = args.reduction
    if args.context_bound is not None:
        strategy_record["context_bound"] = args.context_bound
    if sharded:
        from repro.concurrency.search import ShardedParallel

        # Reuse the strategy's own resolution so record and runtime
        # cannot drift apart.
        strategy = search.build()
        resolved_jobs = strategy.effective_jobs()
        strategy_record["intra_jobs"] = resolved_jobs
        strategy_record["shard_depth"] = strategy.shard_depth
        if resolved_jobs <= 1 or not ShardedParallel.can_fork():
            strategy_record["effective"] = "sequential"

    if args.suite == "service":
        per_test, total = run_service_suite()
    else:
        per_test, total = run_suite(suite=args.suite, search=search)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1

    trajectory = []
    if os.path.exists(args.output):
        with open(args.output) as handle:
            trajectory = json.load(handle)
    if not trajectory and args.suite == "e6":
        # The seed baseline is an E6 measurement; a gen-only trajectory
        # must not start from unrelated e6 numbers.
        trajectory.append(SEED_BASELINE)
    if args.suite == "e6":
        default_label = f"run-{len(trajectory)}"
    elif args.suite == "service":
        default_label = f"service-cold-warm-{len(trajectory)}"
    elif args.suite == "gen-wide":
        default_label = (
            f"gen-wide-seed{GEN_WIDE_SEED}-size{GEN_WIDE_SIZE}"
            f"-t{GEN_WIDE_MAX_THREADS}r{GEN_WIDE_MAX_RUN}-{len(trajectory)}"
        )
    else:
        default_label = f"gen-seed{GEN_SEED}-size{GEN_SIZE}-{len(trajectory)}"
    entry = {
        "label": args.label or default_label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "suite": args.suite,
        "strategy": strategy_record,
        # Usable cores when the entry was recorded: wall-seconds of
        # sharded entries are only comparable at equal core counts.
        "cpus": cpus,
        "per_test": per_test,
        "total": total,
    }
    trajectory.append(entry)
    with open(args.output, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")

    if args.suite == "service":
        print(f"Service suite ({len(per_test)} tests): "
              f"cold {total['cold_seconds']:.3f}s, "
              f"warm {total['warm_seconds']:.4f}s "
              f"= {total['speedup']:,}x speedup "
              f"(hit rate {total['cache_hit_rate']:.0%})")
    elif args.suite == "e6":
        # Wall seconds on the same test set: a transition rate would
        # count duplicated (e.g. cross-shard) work as speed.
        baseline = trajectory[0]["total"]
        speedup = (
            baseline["seconds"] / total["seconds"]
            if total["seconds"]
            else float("nan")
        )
        print(f"E6 suite: {total['unique_states']} unique states "
              f"({total['states']} visited) in {total['seconds']:.2f}s "
              f"= {total['unique_per_second']:,} unique/s "
              f"({speedup:.2f}x over {trajectory[0]['label']} wall time)")
    else:
        print(f"Generated suite ({len(per_test)} tests): "
              f"{total['transitions']} transitions in {total['seconds']:.2f}s "
              f"= {total['transitions_per_second']:,}/s")
    print(f"trajectory written to {args.output} ({len(trajectory)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
