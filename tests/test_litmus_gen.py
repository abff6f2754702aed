"""Tests for the diy-style cycle generator and the envelope oracle.

The fast tier covers generation (determinism, distinctness, family
coverage), lowering structure, the curated-family cross-check for the
two-thread shapes, and a sampled oracle-invariant run.  The heavier
three/four-thread cross-checks carry the ``slow`` marker like the
corresponding curated corpus entries; the full generated-suite oracle
run is opt-in via ``PPCMEM2_GEN_FULL=1``.
"""

import os

import pytest

from repro.concurrency.search import SearchConfig
from repro.isa.model import default_model
from repro.litmus import diy
from repro.litmus.library import by_name
from repro.litmus.parser import parse_litmus
from repro.litmus.runner import run_litmus
from repro.litmus.test import And, MemoryEquals, RegisterEquals
from repro.testgen.concurrent import check_suite, expectation

MODEL = default_model()

#: Curated entries whose exhaustive exploration is fast enough for tier 1
#: (same split as tests/test_litmus_corpus.py).
SLOW_CURATED = {
    "2+2W", "2+2W+syncs", "2+2W+lwsyncs",
    "WRC", "WRC+addrs", "WRC+sync+addr", "WRC+lwsync+addr",
    "RWC+syncs", "ISA2", "ISA2+sync+data+addr",
    "IRIW", "IRIW+addrs", "IRIW+syncs",
}

FAST_CROSSCHECK = sorted(set(diy.CURATED_CYCLES) - SLOW_CURATED)
SLOW_CROSSCHECK = sorted(set(diy.CURATED_CYCLES) & SLOW_CURATED)


# ----------------------------------------------------------------------
# Cycle well-formedness and classification
# ----------------------------------------------------------------------


class TestCycles:
    def test_known_families_classify(self):
        for name, names in diy.CURATED_CYCLES.items():
            family = diy.classify_family(diy.edges_from_names(names))
            assert family == by_name(name).family, (
                f"{name}: classified as {family}"
            )

    def test_direction_mismatch_rejected(self):
        error = diy.cycle_error(
            diy.edges_from_names(["PodWW", "Rfe", "PodWW", "Fre"])
        )
        assert error is not None and "direction" in error

    def test_reducible_com_pairs_rejected(self):
        # Rfe;Fre composes to Wse: never part of a critical cycle.
        error = diy.cycle_error(
            diy.edges_from_names(["PodWR", "Fre", "PodWW", "Rfe", "Fre"])
        )
        assert error is not None and "composes" in error

    def test_single_location_cycle_rejected(self):
        error = diy.cycle_error(
            diy.edges_from_names(["Rfe", "PodRR", "Fre", "Wse"])
        )
        assert error is not None

    def test_two_external_edges_required(self):
        error = diy.cycle_error(
            diy.edges_from_names(["PodWW", "PodWW", "PodWR", "Fre"])
        )
        assert error is not None and "external" in error

    def test_canonical_cycle_rotation_invariant(self):
        edges = diy.edges_from_names(["PodWW", "Rfe", "PodRR", "Fre"])
        rotated = edges[2:] + edges[:2]
        assert diy.canonical_cycle(edges) == diy.canonical_cycle(rotated)


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------


class TestLowering:
    def test_mp_lowering_structure(self):
        generated = diy.generate_from_names(diy.CURATED_CYCLES["MP"])
        test = generated.test
        assert test.thread_count == 2
        assert sorted(test.init_memory) == ["x", "y"]
        # One Rfe atom (reads the written 1) and one Fre atom (reads 0).
        assert isinstance(test.condition, And)
        values = sorted(
            atom.value
            for atom in (test.condition.left, test.condition.right)
            if isinstance(atom, RegisterEquals)
        )
        assert values == [0, 1]

    def test_wse_pins_final_memory_value(self):
        generated = diy.generate_from_names(diy.CURATED_CYCLES["2+2W"])
        atoms = []
        stack = [generated.test.condition]
        while stack:
            node = stack.pop()
            if isinstance(node, And):
                stack.extend((node.left, node.right))
            else:
                atoms.append(node)
        assert all(isinstance(atom, MemoryEquals) for atom in atoms)
        assert sorted(atom.value for atom in atoms) == [2, 2]

    def test_dependency_lowering_emits_indexed_access(self):
        generated = diy.generate_from_names(diy.CURATED_CYCLES["MP+sync+addr"])
        flat = [line for program in generated.test.programs for line in program]
        assert any(line.startswith("xor ") for line in flat)
        assert any(line.startswith("lwzx ") for line in flat)

    def test_ctrlisync_lowering_emits_branch_and_isync(self):
        generated = diy.generate_from_names(
            diy.CURATED_CYCLES["MP+sync+ctrlisync"]
        )
        flat = [line for program in generated.test.programs for line in program]
        assert any(line.startswith("cmpw ") for line in flat)
        assert any(line.startswith("beq ") for line in flat)
        assert "isync" in flat

    def test_generated_source_parses_and_assembles(self):
        from repro.litmus.runner import build_system

        generated = diy.generate_from_names(diy.CURATED_CYCLES["S+sync+addr"])
        test = parse_litmus(generated.source)
        build_system(test, MODEL)  # raises if any instruction won't assemble


# ----------------------------------------------------------------------
# Seeded generation
# ----------------------------------------------------------------------


class TestGenerate:
    def test_deterministic_for_seed(self):
        first = diy.generate(7, 40)
        second = diy.generate(7, 40)
        assert [t.source for t in first] == [t.source for t in second]
        assert [t.name for t in first] == [t.name for t in second]

    def test_acceptance_seed0_size200(self):
        """The ISSUE acceptance run: 200 distinct parseable tests, >=8 families."""
        suite = diy.generate(0, 200)
        sources = {t.source for t in suite}
        assert len(sources) == 200
        families = {t.family for t in suite}
        assert len(families) >= 8
        shapes = {diy.canonical_cycle(t.edges) for t in suite}
        assert len(shapes) == 200  # structurally distinct, not just renamed
        for test in suite:
            parsed = parse_litmus(test.source)
            assert 2 <= parsed.thread_count <= 4

    def test_max_threads_respected(self):
        suite = diy.generate(3, 30, max_threads=2)
        assert all(t.thread_count == 2 for t in suite)

    def test_lifted_caps_reach_six_threads_and_four_runs(self):
        suite = diy.generate(3, 40, max_threads=6, max_run=4)
        assert max(t.thread_count for t in suite) >= 5
        longest = 0
        for test in suite:
            run = 0
            for edge in test.edges:
                run = 0 if edge.external else run + 1
                longest = max(longest, run)
        assert longest >= 3
        for test in suite:
            parse_litmus(test.source)  # >8 locations still lower and parse

    def test_no_wrap_around_reducible_candidates(self):
        """Regression: the sampler filters the closing communication pair.

        The consecutive-pair filter used to skip the wrap-around pair
        (last external edge -> cycle-initial external edge), so when the
        first thread had run length 0 the sampler built shapes like
        ``[Fre, ..., Rfe]`` (``Rfe;Fre`` composes to ``Wse``) only for
        ``cycle_error`` to throw the whole attempt away -- ~13% of all
        attempts on seed 0.  Now no candidate reaching validation may
        have a reducible wrap pair.
        """
        import random

        captured = []
        original = diy.cycle_error

        def capture(edges):
            captured.append(tuple(edges))
            return original(edges)

        rng = random.Random(0)
        diy.cycle_error = capture
        try:
            for _ in range(4000):
                diy._random_cycle(rng, max_threads=4, max_run=2)
        finally:
            diy.cycle_error = original
        assert captured  # some candidates reached validation
        for cycle in captured:
            last, first = cycle[-1], cycle[0]
            if last.external and first.external:
                assert (
                    (last.base, first.base) not in diy._REDUCIBLE_COM_PAIRS
                ), [e.name for e in cycle]

    def test_cycle_error_rejects_wrap_around_reducible_pair(self):
        # Rfe (last) wrapping into Fre (first) composes to Wse.
        error = diy.cycle_error(
            diy.edges_from_names(
                ["Fre", "PodWW", "Wse", "PodWW", "Rfe"]
            )
        )
        assert error is not None and "composes" in error

    def test_duplicates_do_not_exhaust_the_attempt_budget(self):
        # 60 distinct two-thread shapes need far more than 60 samples
        # (most are rotation duplicates); a tiny per-test budget must
        # still succeed because only dead ends are charged.
        suite = diy.generate(0, 60, max_threads=2, max_attempts_per_test=40)
        assert len(suite) == 60

    def test_exhaustion_reports_diagnostics(self):
        # The two-thread, run<=1 shape space is tiny; asking for far
        # more distinct cycles than exist must terminate (consecutive
        # unproductive samples) and name the seed and rejection counts.
        with pytest.raises(RuntimeError) as excinfo:
            diy.generate(
                0, 10_000, max_threads=2, max_run=1,
                max_attempts_per_test=300,
            )
        message = str(excinfo.value)
        assert "seed=0" in message
        assert "rotation_duplicates=" in message
        assert "dead_ends=" in message


# ----------------------------------------------------------------------
# Envelope expectations
# ----------------------------------------------------------------------


class TestExpectation:
    @pytest.mark.parametrize(
        "names,expected",
        [
            (["PodWW", "Rfe", "PodRR", "Fre"], "Allowed"),  # MP
            (["SyncdWW", "Rfe", "SyncdRR", "Fre"], "Forbidden"),  # MP+syncs
            (["LwSyncdWR", "Fre", "LwSyncdWR", "Fre"], "Allowed"),  # SB+lwsyncs
            (["SyncdWW", "Rfe", "DpCtrldR", "Fre"], "Allowed"),  # +ctrl
            (["SyncdWW", "Rfe", "DpCtrlIsyncdR", "Fre"], "Forbidden"),
            (["DpAddrdW", "Rfe", "DpAddrdW", "Rfe"], "Forbidden"),  # LB+addrs
            # LB+addrs+WW vs LB+datas+WW: the section 2.1.6 middle-write split
            (
                ["DpAddrdW", "PodWW", "Rfe", "DpAddrdW", "PodWW", "Rfe"],
                "Forbidden",
            ),
            (
                ["DpDatadW", "PodWW", "Rfe", "DpDatadW", "PodWW", "Rfe"],
                "Allowed",
            ),
            # sync reaches past an intervening access: still forbidden
            (
                ["DpAddrdR", "Fre", "SyncdWW", "PodWW", "Rfe"],
                "Forbidden",
            ),
            # all-sync IRIW: cumulativity makes it forbidden on 4 threads
            (
                ["Rfe", "SyncdRR", "Fre", "Rfe", "SyncdRR", "Fre"],
                "Forbidden",
            ),
            # dependency-only WRC: non-multi-copy-atomic, so Allowed
            (["Rfe", "DpAddrdW", "Rfe", "DpAddrdR", "Fre"], "Allowed"),
            # write-started lwsync into Wse: Allowed (R+lwsync+sync class)
            (["LwSyncdWW", "Wse", "SyncdWR", "Fre"], "Allowed"),
        ],
    )
    def test_expected_statuses(self, names, expected):
        assert expectation(diy.edges_from_names(names)) == expected


# ----------------------------------------------------------------------
# Cross-check against the curated corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", FAST_CROSSCHECK)
def test_generated_shape_matches_curated_status(name):
    entry = by_name(name)
    generated = diy.generate_from_names(
        diy.CURATED_CYCLES[name], name=f"{name}-gen"
    )
    result = run_litmus(generated.test, MODEL)
    assert result.status == entry.architected, (
        f"{name}: generated shape gives {result.status}, "
        f"curated entry is {entry.architected}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_CROSSCHECK)
def test_generated_shape_matches_curated_status_slow(name):
    if name == "IRIW+syncs":
        pytest.skip("exceeds the Python state budget (like the curated entry)")
    entry = by_name(name)
    generated = diy.generate_from_names(
        diy.CURATED_CYCLES[name], name=f"{name}-gen"
    )
    result = run_litmus(generated.test, MODEL)
    assert result.status == entry.architected


# ----------------------------------------------------------------------
# Oracle-invariant runs
# ----------------------------------------------------------------------


def _oracle_sample(size=10):
    """A deterministic, cheap sample: small two-thread cycles."""
    suite = diy.generate(0, 200)
    sample = [
        test
        for test in suite
        if test.thread_count == 2 and len(test.edges) <= 4
    ]
    return sample[:size]


def test_oracle_invariants_sample():
    sample = _oracle_sample()
    expectations = {expectation(test.edges) for test in sample}
    assert expectations == {"Allowed", "Forbidden"}  # both directions hit
    report = check_suite(
        sample, search=SearchConfig(max_states=150_000), jobs=1
    )
    assert report.checked == len(sample)
    assert report.sound, [
        (v.name, v.expected, v.status) for v in report.violations
    ]


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("PPCMEM2_GEN_FULL") != "1",
    reason="full generated-suite oracle run: set PPCMEM2_GEN_FULL=1",
)
def test_oracle_invariants_full_suite():
    suite = diy.generate(0, 200)
    report = check_suite(
        suite,
        search=SearchConfig(max_states=200_000),
        jobs=int(os.environ.get("PPCMEM2_GEN_JOBS", "0")) or None,
    )
    assert report.sound, [
        (v.name, v.expected, v.status, v.edge_names)
        for v in report.violations
    ]
