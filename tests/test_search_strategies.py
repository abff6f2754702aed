"""Cross-strategy equivalence for the pluggable search subsystem.

Every backend must answer the oracle questions identically:

  * ``SequentialDFS`` stays bit-identical (states visited, transitions
    taken, outcomes) to the pre-refactor engine -- pinned against the
    recorded seed-baseline counters;
  * ``ShardedParallel`` (jobs=2) and ``BoundedIterative`` (ample budget)
    produce verdicts and outcome sets identical to ``SequentialDFS`` for
    the curated corpus and a seed-0 sample of generated tests;
  * ``BoundedIterative`` degrades to a *flagged partial* result instead
    of raising, and ``ExplorationLimit`` carries the partial stats so
    budget exhaustion no longer zeroes work accounting.

The heavier 3-4-thread curated shapes run under the ``slow`` marker; the
full slow sweep is opt-in via ``PPCMEM2_SEARCH_FULL=1``.
"""

import dataclasses
import os

import pytest

from repro.concurrency.exhaustive import ExplorationLimit, explore, find_witness
from repro.concurrency.parallel import default_job_count, plan_worker_budget
from repro.concurrency.search import (
    BoundedIterative,
    SearchConfig,
    SequentialDFS,
    ShardedParallel,
)
from repro.isa.model import default_model
from repro.litmus.library import by_name, corpus
from repro.litmus.runner import build_system, run_corpus, run_litmus

#: 3-4 thread tests whose exhaustive exploration takes minutes
#: (mirrors tests/test_litmus_corpus.py; IRIW+syncs exceeds the budget).
SLOW = {
    "IRIW", "IRIW+addrs", "IRIW+syncs", "RWC+syncs", "ISA2",
    "WRC", "WRC+addrs", "WRC+sync+addr", "WRC+lwsync+addr",
    "ISA2+sync+data+addr", "2+2W", "2+2W+syncs", "2+2W+lwsyncs",
    "LB+datas+WW", "LB+addrs+WW", "PPOCA", "PPOAA",
}

FAST_NAMES = sorted(e.name for e in corpus() if e.name not in SLOW)
#: Representative heavy shapes checked by default under ``slow``.
SLOW_SAMPLE = ["WRC+sync+addr", "2+2W+syncs", "LB+addrs+WW"]
SLOW_FULL = sorted(SLOW - {"IRIW+syncs"})

STRATEGIES = [
    ShardedParallel(jobs=2, shard_depth=3),
    BoundedIterative(),
]

SLEEP = SequentialDFS(reduction="sleep")
DPOR = SequentialDFS(reduction="dpor")


@pytest.fixture(scope="module")
def model():
    return default_model()


def _assert_equivalent(name, model):
    test = by_name(name).parse()
    reference = run_litmus(test, model)  # SequentialDFS default
    assert reference.exploration.complete
    for strategy in STRATEGIES:
        result = run_litmus(test, model, strategy=strategy)
        label = f"{name} via {strategy.name}"
        assert result.exploration.complete, label
        assert result.status == reference.status, label
        assert result.outcomes == reference.outcomes, label
        assert result.witnessed == reference.witnessed, label
        assert result.holds_always == reference.holds_always, label


class TestCuratedCorpusEquivalence:
    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries(self, model, name):
        _assert_equivalent(name, model)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        _assert_equivalent(name, model)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("PPCMEM2_SEARCH_FULL"),
        reason="full slow-corpus strategy sweep is opt-in "
        "(PPCMEM2_SEARCH_FULL=1)",
    )
    @pytest.mark.parametrize("name", sorted(set(SLOW_FULL) - set(SLOW_SAMPLE)))
    def test_slow_full_sweep(self, model, name):
        _assert_equivalent(name, model)


class TestGeneratedSampleEquivalence:
    def test_seed0_sample(self, model):
        from repro.litmus import diy

        tests = diy.generate(0, 8, max_threads=2)
        assert len(tests) == 8
        for generated in tests:
            reference = run_litmus(generated.test, model)
            for strategy in STRATEGIES:
                result = run_litmus(generated.test, model, strategy=strategy)
                label = f"{generated.name} via {strategy.name}"
                assert result.status == reference.status, label
                assert result.outcomes == reference.outcomes, label


class TestSequentialBitIdentity:
    """The refactored sequential engine equals the recorded baseline."""

    #: (states, transitions, finals) pinned from BENCH_e6.json / the seed.
    EXPECTED = {
        "MP": (316, 752, 26),
        "SB+syncs": (1125, 2542, 32),
        "R": (1390, 3284, 106),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_counters_match_baseline(self, model, name):
        result = run_litmus(by_name(name).parse(), model)
        stats = result.exploration.stats
        states, transitions, finals = self.EXPECTED[name]
        assert stats.states_visited == states
        assert stats.transitions_taken == transitions
        assert stats.final_states == finals

    def test_facade_strategy_parameter(self, model):
        system, _ = build_system(by_name("MP").parse(), model)
        default = explore(system)
        named = explore(system, strategy=SequentialDFS())
        sharded = explore(system, strategy=ShardedParallel(jobs=2))
        assert named.outcomes == default.outcomes
        assert named.stats.states_visited == default.stats.states_visited
        assert sharded.outcomes == default.outcomes


class TestWitnessEquivalence:
    @pytest.mark.parametrize(
        "strategy",
        [SequentialDFS(), ShardedParallel(jobs=2, shard_depth=2),
         BoundedIterative(initial_budget=64)],
        ids=lambda s: s.name,
    )
    def test_witness_found_and_replayable(self, model, strategy):
        system, _ = build_system(by_name("MP").parse(), model)
        witness = strategy.find_witness(system, lambda outcome: True)
        assert witness is not None
        trace, final = witness
        assert final.is_final()
        assert len(trace) > 0
        assert witness.stats.states_visited > 0
        # The trace must actually drive the initial state to a final one.
        state = system
        for transition in trace:
            state = state.apply(transition)
        assert state.is_final()

    @pytest.mark.parametrize(
        "strategy",
        [SequentialDFS(), ShardedParallel(jobs=2, shard_depth=2),
         BoundedIterative()],
        ids=lambda s: s.name,
    )
    def test_unsatisfiable_predicate(self, model, strategy):
        system, _ = build_system(by_name("MP").parse(), model)
        assert strategy.find_witness(system, lambda outcome: False) is None


class TestBoundedDegradation:
    def test_partial_result_is_flagged_not_raised(self, model):
        test = by_name("SB+syncs").parse()
        result = run_litmus(
            test, model,
            strategy=BoundedIterative(initial_budget=64),
            max_states=200,
        )
        assert result.status == "StateLimit"
        assert not result.exploration.complete
        assert result.exploration.stats.states_visited > 0
        full = run_litmus(test, model)
        # Partial outcome sets under-approximate the envelope.
        assert result.outcomes <= full.outcomes

    def test_partial_witness_yields_sound_allowed(self, model):
        """Partial outcome sets under-approximate the envelope, so an
        existential verdict found within the budget survives
        incompleteness instead of degrading to StateLimit."""
        test = by_name("MP").parse()  # exists-test, witness found early
        result = run_litmus(
            test, model,
            strategy=BoundedIterative(initial_budget=80),
            max_states=80,
        )
        assert not result.exploration.complete
        assert result.witnessed
        assert result.status == "Allowed"

    def test_partial_without_witness_stays_statelimit(self, model):
        test = by_name("MP").parse()
        result = run_litmus(
            test, model,
            strategy=BoundedIterative(initial_budget=40),
            max_states=40,
        )
        assert not result.exploration.complete
        assert not result.witnessed
        assert result.status == "StateLimit"

    def test_ample_budget_is_complete_and_identical(self, model):
        test = by_name("MP").parse()
        bounded = run_litmus(test, model, strategy=BoundedIterative())
        reference = run_litmus(test, model)
        assert bounded.exploration.complete
        assert bounded.outcomes == reference.outcomes
        # MP fits the first budget: the work accounting is identical too.
        assert (
            bounded.exploration.stats.states_visited
            == reference.exploration.stats.states_visited
        )


class TestBoundedWitnessSoundness:
    def test_exhausted_witness_search_raises_not_none(self, model):
        """An inconclusive witness search must not look like a proof."""
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            BoundedIterative(initial_budget=16).find_witness(
                system, lambda outcome: False, max_states=50
            )
        assert excinfo.value.stats is not None
        assert excinfo.value.stats.states_visited > 0


class TestShardedWorkerCrash:
    def test_dead_worker_raises_instead_of_hanging(self, model, monkeypatch):
        """A worker killed before reporting must fail loudly, not hang."""
        import os as os_module

        from repro.concurrency.search import sharded as sharded_module
        from repro.concurrency.thread import ModelError

        def crash(worker_id, root_indexes, mode, queue):
            os_module._exit(17)

        monkeypatch.setattr(sharded_module, "_shard_worker", crash)
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ModelError, match="died without reporting"):
            ShardedParallel(jobs=2, shard_depth=3).explore(system)


class TestPartialStatsAccounting:
    def test_exploration_limit_carries_stats(self, model):
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            explore(system, max_states=100)
        assert excinfo.value.stats is not None
        # The budget is checked *before* a state is popped and counted:
        # partial stats equal the budget exactly (regression: the old
        # loop counted first and reported 101).
        assert excinfo.value.stats.states_visited == 100

    def test_reduced_limit_stats_equal_budget(self, model):
        system, _ = build_system(by_name("SB+syncs").parse(), model)
        with pytest.raises(ExplorationLimit) as excinfo:
            explore(system, max_states=100, strategy=SLEEP)
        assert excinfo.value.stats.states_visited == 100

    def test_corpus_totals_count_exhausted_work(self, model):
        entry = by_name("SB+syncs")
        report = run_corpus([entry], jobs=1, max_states=100)
        result = report.results[0]
        assert result.status == "StateLimit"
        assert not result.complete
        assert result.error
        assert result.stats.states_visited > 0
        assert report.merged_stats().states_visited > 0


class TestWorkerBudgetComposition:
    def test_affinity_respected(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_job_count() == 2

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_job_count() == 3

    def test_plan_prefers_corpus_sharding(self):
        assert plan_worker_budget(4, 10) == (4, 1)
        assert plan_worker_budget(4, 4) == (4, 1)

    def test_plan_distributes_leftover_budget_as_intra_jobs(self):
        # 2 tests under --jobs 8 used to strand 6 workers as (2, 1).
        assert plan_worker_budget(8, 2) == (2, 4)
        assert plan_worker_budget(8, 3) == (3, 2)
        assert plan_worker_budget(3, 2) == (2, 1)  # no whole worker spare
        assert plan_worker_budget(5, 4) == (4, 1)

    def test_plan_gives_single_test_the_budget(self):
        assert plan_worker_budget(4, 1) == (1, 4)
        assert plan_worker_budget(1, 5) == (1, 1)

    def test_plan_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            plan_worker_budget(0, 3)

    def test_plan_budget_smaller_than_corpus(self):
        # Fewer workers than tests: every worker runs tests back to
        # back sequentially; no intra-test splitting.
        assert plan_worker_budget(2, 5) == (2, 1)
        assert plan_worker_budget(1, 1) == (1, 1)
        assert plan_worker_budget(7, 100) == (7, 1)

    def test_plan_empty_corpus_does_not_oversubscribe(self):
        # An empty corpus used to plan (1, budget), handing the whole
        # budget to a pool with nothing to run.
        assert plan_worker_budget(8, 0) == (1, 1)
        assert plan_worker_budget(1, 0) == (1, 1)

    def test_plan_never_oversubscribes_budget(self):
        for budget in range(1, 13):
            for test_count in range(0, 13):
                corpus_jobs, intra_jobs = plan_worker_budget(
                    budget, test_count
                )
                assert corpus_jobs >= 1 and intra_jobs >= 1
                assert corpus_jobs * intra_jobs <= max(budget, 1), (
                    budget, test_count, corpus_jobs, intra_jobs,
                )

    def test_single_test_corpus_uses_intra_test_workers(self, model):
        # One test + jobs=2 + sharded: the budget flows to the frontier
        # workers; verdict and outcomes still match sequential.
        entry = by_name("SB+syncs")
        report = run_corpus([entry], jobs=2, strategy=ShardedParallel())
        assert report.jobs == 1
        result = report.results[0]
        reference = run_litmus(entry.parse(), model)
        assert result.status == reference.status
        assert result.outcomes == reference.outcomes

    def test_multi_test_corpus_with_sharded_strategy(self, model):
        entries = [by_name("MP"), by_name("SB")]
        report = run_corpus(entries, jobs=2, strategy=ShardedParallel())
        assert report.jobs == 2
        for result in report.results:
            reference = run_litmus(by_name(result.name).parse(), model)
            assert result.status == reference.status
            assert result.outcomes == reference.outcomes

    def test_multi_test_corpus_spends_leftover_budget_intra(self, model):
        # 2 tests + jobs=4: the plan is (2, 2), so the corpus runs in a
        # non-daemonic executor whose workers fork 2 frontier shards
        # each.  Verdicts and outcome sets still match sequential.
        entries = [by_name("MP"), by_name("SB+syncs")]
        report = run_corpus(entries, jobs=4, strategy=ShardedParallel())
        assert report.jobs == 2
        for result in report.results:
            reference = run_litmus(by_name(result.name).parse(), model)
            assert result.status == reference.status
            assert result.outcomes == reference.outcomes


class TestStrategyResolution:
    def test_resolve_none_is_sequential(self):
        assert SearchConfig().build() == SequentialDFS()

    def test_resolve_instance_passthrough(self, model):
        # The facades run exactly the strategy instance they are given.
        ran = []

        class Spy(SequentialDFS):
            def explore(self, *args, **kwargs):
                ran.append(self)
                return super().explore(*args, **kwargs)

        strategy = Spy(reduction="sleep")
        run_litmus(by_name("MP").parse(), model, strategy=strategy)
        assert len(ran) == 1 and ran[0] is strategy

    def test_make_by_name_with_options(self):
        strategy = SearchConfig(
            strategy="sharded", jobs=4, shard_depth=5
        ).build()
        assert strategy == ShardedParallel(jobs=4, shard_depth=5)
        assert SearchConfig(strategy="bounded").build() == BoundedIterative()
        # The sharding knobs tune only the sharded backend.
        assert SearchConfig(jobs=4, shard_depth=1).build() == SequentialDFS()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            SearchConfig(strategy="quantum")
        with pytest.raises(ValueError, match="unknown reduction"):
            SearchConfig(reduction="quantum")

    def test_strategies_are_picklable(self):
        import pickle

        for strategy in (SequentialDFS(), ShardedParallel(jobs=2),
                         BoundedIterative(initial_budget=128)):
            clone = pickle.loads(pickle.dumps(strategy))
            assert clone == strategy


class TestSearchConfig:
    """The one carrier of a query's search settings validates itself."""

    # Names and ``max_states`` are covered over HTTP in test_service.py.
    @pytest.mark.parametrize("options", [
        {"context_bound": -1}, {"context_bound": 1.5}, {"jobs": 0},
        {"jobs": False}, {"shard_depth": -1}, {"shard_depth": "3"},
    ], ids=repr)
    def test_invalid_options_rejected(self, options):
        with pytest.raises((TypeError, ValueError)):
            SearchConfig.from_options(options)

    def test_options_round_trip(self):
        config = SearchConfig(
            strategy="sharded", reduction="dpor", context_bound=0,
            max_states=1, jobs=1, shard_depth=0,
        )
        assert SearchConfig.from_options(config.to_options()) == config
        assert SearchConfig().to_options() == {}

    @pytest.mark.parametrize("name", ["sequential", "sharded", "bounded"])
    def test_build_carries_pruning_options(self, name):
        strategy = SearchConfig(
            strategy=name, reduction="dpor", context_bound=2
        ).build()
        assert strategy.name == name
        assert (strategy.reduction, strategy.context_bound) == ("dpor", 2)


class TestReductionEquivalence:
    """Sleep-set reduction preserves the verdict and the outcome set.

    The matrix crosses reduction on/off with every backend: outcome
    sets must be bit-identical to unreduced ``SequentialDFS`` on the
    curated corpus and a seed-0 generated sample.
    """

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries_sequential(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, strategy=SLEEP)
        assert reduced.exploration.complete, name
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name
        assert reduced.witnessed == reference.witnessed, name

    @pytest.mark.parametrize(
        "strategy",
        [SequentialDFS(), ShardedParallel(jobs=2, shard_depth=3),
         BoundedIterative()],
        ids=lambda s: s.name,
    )
    def test_strategy_matrix(self, model, strategy):
        for name in ("MP", "SB+syncs", "R"):
            test = by_name(name).parse()
            reference = run_litmus(test, model)
            reduced = run_litmus(
                test, model,
                strategy=dataclasses.replace(strategy, reduction="sleep"),
            )
            label = f"{name} reduced via {strategy}"
            assert reduced.exploration.complete, label
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

    def test_gen_seed0_sample(self, model):
        from repro.litmus import diy

        for generated in diy.generate(0, 8, max_threads=2):
            reference = run_litmus(generated.test, model)
            reduced = run_litmus(generated.test, model, strategy=SLEEP)
            label = generated.name
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, strategy=SLEEP)
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name

    def test_reduction_visits_fewer_states(self, model):
        test = by_name("SB+syncs").parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, strategy=SLEEP)
        assert (
            reduced.exploration.stats.states_visited
            < reference.exploration.stats.states_visited
        )

    def test_unique_states_accounted(self, model):
        result = run_litmus(by_name("MP").parse(), model)
        stats = result.exploration.stats
        assert 0 < stats.unique_states <= stats.states_visited


class TestDporEquivalence:
    """Source-DPOR preserves the verdict and the outcome set.

    ``reduction="dpor"`` must answer every oracle question identically
    to the unreduced reference on the curated corpus and a seed-0
    generated sample, for both backends that run the real driver
    (``SequentialDFS`` and ``BoundedIterative``).  ``ShardedParallel``
    accepts the option but runs its forked pipeline as sleep sets
    (see ``ShardedParallel._shard_reduction``), so it is checked for
    acceptance + equivalence, not for dpor state counts.
    """

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fast_entries_sequential(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, strategy=DPOR)
        assert reduced.exploration.complete, name
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name
        assert reduced.witnessed == reference.witnessed, name

    @pytest.mark.parametrize(
        "strategy",
        [SequentialDFS(), BoundedIterative(),
         ShardedParallel(jobs=2, shard_depth=3)],
        ids=lambda s: s.name,
    )
    def test_strategy_matrix(self, model, strategy):
        for name in ("MP", "SB+syncs", "R"):
            test = by_name(name).parse()
            reference = run_litmus(test, model)
            reduced = run_litmus(
                test, model,
                strategy=dataclasses.replace(strategy, reduction="dpor"),
            )
            label = f"{name} dpor via {strategy}"
            assert reduced.exploration.complete, label
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

    def test_gen_seed0_sample(self, model):
        from repro.litmus import diy

        for generated in diy.generate(0, 8, max_threads=2):
            reference = run_litmus(generated.test, model)
            reduced = run_litmus(generated.test, model, strategy=DPOR)
            label = generated.name
            assert reduced.status == reference.status, label
            assert reduced.outcomes == reference.outcomes, label

    def test_gen_seed0_3thread_matches_sleep(self, model):
        """3-thread generated shapes, where cross-thread propagation
        order is richest: dpor's canonical-key quotient and race layer
        must reproduce the sleep-set outcome sets exactly.  The first
        shape is skipped: its ~92k-state dpor run alone would take
        most of a minute."""
        from repro.litmus import diy

        for generated in diy.generate(0, 4, max_threads=3)[1:]:
            sleep = run_litmus(generated.test, model, strategy=SLEEP)
            dpor = run_litmus(generated.test, model, strategy=DPOR)
            label = generated.name
            assert dpor.exploration.complete, label
            assert dpor.status == sleep.status, label
            assert dpor.outcomes == sleep.outcomes, label

    @pytest.mark.parametrize("name", ["ATOM-base", "ATOM-intervene"])
    def test_atomics_disabled_sibling_regression(self, model, name):
        """Store-conditional branches disable each other; taking one
        makes the sibling never *occur* below, so an occurrence-based
        race scan alone would drop the other resolution's outcomes
        (ATOM-base lost its success final before the disabled-sibling
        repair in ``run_dpor``).  Pin both resolutions survive."""
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, strategy=DPOR)
        assert reduced.exploration.complete, name
        assert reduced.outcomes == reference.outcomes, name
        assert reduced.status == reference.status, name

    def test_dpor_visits_no_more_states_than_sleep(self, model):
        test = by_name("SB+syncs").parse()
        sleep = run_litmus(test, model, strategy=SLEEP)
        dpor = run_litmus(test, model, strategy=DPOR)
        assert (
            dpor.exploration.stats.states_visited
            < sleep.exploration.stats.states_visited
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_SAMPLE)
    def test_slow_sample_entries(self, model, name):
        test = by_name(name).parse()
        reference = run_litmus(test, model)
        reduced = run_litmus(test, model, strategy=DPOR)
        assert reduced.status == reference.status, name
        assert reduced.outcomes == reference.outcomes, name


class TestContextBound:
    def test_context_bound_flags_partial(self, model):
        test = by_name("SB+syncs").parse()
        full = run_litmus(test, model)
        bounded = run_litmus(
            test, model, strategy=SequentialDFS(context_bound=1)
        )
        assert not bounded.exploration.complete
        assert bounded.outcomes <= full.outcomes

    def test_ample_context_bound_is_complete(self, model):
        test = by_name("MP").parse()
        full = run_litmus(test, model)
        bounded = run_litmus(
            test, model, strategy=SequentialDFS(context_bound=64)
        )
        assert bounded.exploration.complete
        assert bounded.outcomes == full.outcomes


class TestStablePartitioning:
    """Root-to-worker assignment must not depend on PYTHONHASHSEED."""

    _SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.concurrency.search.sharded import _stable_digest
from repro.isa.model import default_model
from repro.litmus.library import by_name
from repro.litmus.runner import build_system
system, _ = build_system(by_name("MP").parse(), default_model())
digests = [_stable_digest(system.key())]
for transition in system.enumerate_transitions():
    digests.append(_stable_digest(system.apply(transition).key()))
print(",".join(str(d) for d in digests))
"""

    def test_digests_identical_across_hash_seeds(self, tmp_path):
        import subprocess
        import sys as sys_module

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        script = tmp_path / "digest_probe.py"
        script.write_text(self._SCRIPT.format(src=src))
        outputs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys_module.executable, str(script)],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-empty: the probe really ran


class TestCliStrategyFlags:
    def _write(self, tmp_path, name):
        path = tmp_path / f"{name}.litmus"
        path.write_text(by_name(name).source)
        return str(path)

    def test_litmus_command_with_sharded(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(
            ["litmus", path, "--strategy", "sharded", "--shard-depth", "2",
             "--jobs", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "MP" in output and "Merged stats:" in output

    def test_run_command_with_strategies(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        for extra in (["--strategy", "bounded"],
                      ["--strategy", "sharded", "--jobs", "2"]):
            assert main(["run", path, *extra]) == 0
            assert "Test MP: Allowed" in capsys.readouterr().out

    def test_run_command_with_reduction(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(["run", path, "--reduction", "sleep"]) == 0
        assert "Test MP: Allowed" in capsys.readouterr().out

    def test_run_command_with_dpor(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "MP")
        assert main(["run", path, "--reduction", "dpor"]) == 0
        assert "Test MP: Allowed" in capsys.readouterr().out

    def test_gen_check_accepts_strategy(self, capsys):
        from repro.tools.cli import main

        code = main(
            ["gen", "--seed", "1", "--size", "2", "--check",
             "--jobs", "2", "--strategy", "bounded",
             "--max-states", "20000"]
        )
        captured = capsys.readouterr()
        assert code in (0, 1)  # soundness verdict, not a crash
        assert "Oracle:" in captured.err
