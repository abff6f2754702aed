"""Tests for the axiomatic commit/propagation-order solver.

Three layers of evidence that ``testgen.axiomatic.decide`` is the right
envelope oracle:

* *pinned verdicts* for the families a per-segment ordering analysis
  cannot settle (the R+lwsync+sync / R+eieio+sync class and the
  cumulativity-sensitive WRC/ISA2 shapes), matching the architected
  statuses;
* *agreement properties*: the solver reproduces all 31 curated
  architected statuses on its own, and agrees with the operational
  model on every seed-0 size-200 two-thread shape the model exhausts;
* *model spot-checks*: the R+lwsync+sync class runs through the
  exhaustive explorer and must land on the solver's verdict (the
  full-suite sweep is the slow tier in ``test_litmus_gen.py``).
"""

import pytest

from repro.concurrency.search import SearchConfig
from repro.isa.model import default_model
from repro.litmus import diy
from repro.litmus.library import by_name
from repro.litmus.runner import run_litmus
from repro.testgen.axiomatic import AxiomaticVerdict, decide
from repro.testgen.concurrent import check_suite, expectation

MODEL = default_model()


# ----------------------------------------------------------------------
# Pinned verdicts for the ordering-analysis-hard families
# ----------------------------------------------------------------------

#: (name, cycle, architected verdict).  The first block is the
#: write-started lwsync/eieio-into-Wse class; the second is the
#: 3+-thread cumulativity class.
PINNED = [
    ("R+lwsync+sync", ["LwSyncdWW", "Wse", "SyncdWR", "Fre"], "Allowed"),
    ("R+eieio+sync", ["EieiodWW", "Wse", "SyncdWR", "Fre"], "Allowed"),
    ("2+2W+lwsyncs", ["LwSyncdWW", "Wse", "LwSyncdWW", "Wse"], "Forbidden"),
    ("2+2W+eieios", ["EieiodWW", "Wse", "EieiodWW", "Wse"], "Forbidden"),
    ("S+lwsyncs", ["LwSyncdWW", "Rfe", "LwSyncdRW", "Wse"], "Forbidden"),
    ("WRC+addrs", diy.CURATED_CYCLES["WRC+addrs"], "Allowed"),
    ("WRC+sync+addr", diy.CURATED_CYCLES["WRC+sync+addr"], "Forbidden"),
    ("WRC+lwsync+addr", diy.CURATED_CYCLES["WRC+lwsync+addr"], "Forbidden"),
    (
        "ISA2+sync+data+addr",
        diy.CURATED_CYCLES["ISA2+sync+data+addr"],
        "Forbidden",
    ),
    ("IRIW+addrs", diy.CURATED_CYCLES["IRIW+addrs"], "Allowed"),
    ("IRIW+syncs", diy.CURATED_CYCLES["IRIW+syncs"], "Forbidden"),
]


@pytest.mark.parametrize("name,names,verdict", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_verdicts(name, names, verdict):
    result = decide(diy.edges_from_names(names))
    assert isinstance(result, AxiomaticVerdict)
    assert result.status == verdict, (
        f"{name}: solver says {result.status}, architected {verdict}"
    )
    if verdict == "Forbidden":
        # The contradiction names the architectural reason.
        assert result.contradiction, name
        assert result.contradiction[0] == result.contradiction[-1]
    else:
        assert result.contradiction is None


def test_rotation_invariant_verdicts():
    for names in (PINNED[0][1], PINNED[2][1], PINNED[7][1]):
        edges = diy.edges_from_names(names)
        baseline = decide(edges).status
        for i in range(len(edges)):
            rotated = edges[i:] + edges[:i]
            assert decide(rotated).status == baseline


# ----------------------------------------------------------------------
# Agreement properties
# ----------------------------------------------------------------------


def test_reproduces_every_curated_architected_status():
    """The solver alone decides all 31 curated cycles correctly."""
    for name, names in diy.CURATED_CYCLES.items():
        architected = by_name(name).architected
        verdict = decide(diy.edges_from_names(names))
        assert verdict.status == architected, (
            f"{name}: solver={verdict.status} architected={architected}"
        )


def test_agrees_with_model_on_seed0_suite():
    """Property: on seed-0 size-200, solver == operational model on every
    two-thread shape the model explores within its state budget."""
    suite = [test for test in diy.generate(0, 200) if test.thread_count == 2]
    report = check_suite(
        suite, SearchConfig(reduction="dpor", max_states=3000), jobs=2
    )
    assert report.sound, [
        (check.name, check.edge_names, check.expected, check.status)
        for check in report.violations
    ]
    assert report.checked >= 50  # the property is not vacuous


def test_closes_every_unasserted_shape():
    """``expectation`` gives every seed-0 size-200 shape a verdict."""
    for test in diy.generate(0, 200):
        assert expectation(test.edges) in ("Allowed", "Forbidden")


def test_lifted_caps_are_decidable():
    """Every shape of a lifted-cap suite gets a definite verdict."""
    suite = diy.generate(3, 40, max_threads=6, max_run=4)
    for test in suite:
        assert expectation(test.edges) in ("Allowed", "Forbidden")


# ----------------------------------------------------------------------
# Model spot-checks on the write-started lwsync/eieio-into-Wse class
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "names",
    [
        ["LwSyncdWW", "Wse", "SyncdWR", "Fre"],  # R+lwsync+sync
        ["EieiodWW", "Wse", "SyncdWR", "Fre"],  # R+eieio+sync
        ["LwSyncdWW", "Wse", "LwSyncdWR", "Fre"],  # R+lwsyncs
    ],
    ids=["R+lwsync+sync", "R+eieio+sync", "R+lwsyncs"],
)
def test_model_agrees_on_weak_class(names):
    edges = diy.edges_from_names(names)
    generated = diy.make_test(edges, name="weak-class-probe")
    result = run_litmus(generated.test, MODEL)
    assert result.status == decide(edges).status
