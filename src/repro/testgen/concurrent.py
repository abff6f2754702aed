"""Envelope-oracle harness for generated concurrent tests (section 7).

The diy-generated suite comes with *a priori* architectural
expectations: ``expectation`` decides each critical cycle with the
axiomatic commit/propagation-order solver (``testgen.axiomatic``), which
answers Allowed or Forbidden for every well-formed cycle.  The solver is
checked against the 31 curated architected statuses and against the
operational model itself (``tests/test_axiomatic.py``).

``check_suite`` runs a generated suite through the exhaustive explorer
(via the parallel corpus runner) and reports every test whose verdict
contradicts its expectation; state-budget exhaustion is reported as a
skip, not a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..concurrency.search import SearchConfig
from ..litmus.diy import Edge, GeneratedTest
from .axiomatic import decide


def expectation(edges: Sequence[Edge]) -> str:
    """The envelope invariant for one cycle: "Allowed" or "Forbidden"."""
    return decide(edges).status


@dataclass
class OracleCheck:
    """One generated test's verdict against its envelope expectation."""

    name: str
    family: str
    edge_names: Sequence[str]
    expected: str
    status: str  # model verdict, or "StateLimit"
    ok: Optional[bool]  # None when skipped
    error: Optional[str] = None


@dataclass
class OracleReport:
    """Suite-level outcome of an oracle-invariant run."""

    checks: List[OracleCheck]
    jobs: int
    wall_seconds: float
    stats: "object" = None  # merged ExplorationStats

    @property
    def violations(self) -> List[OracleCheck]:
        return [check for check in self.checks if check.ok is False]

    @property
    def checked(self) -> int:
        return sum(1 for check in self.checks if check.ok is not None)

    @property
    def skipped(self) -> int:
        return sum(1 for check in self.checks if check.ok is None)

    @property
    def sound(self) -> bool:
        return not self.violations


def check_suite(
    tests: Sequence[GeneratedTest],
    search: SearchConfig = SearchConfig(max_states=150_000),
    jobs: Optional[int] = None,
    engine=None,
) -> OracleReport:
    """Run a generated suite and check every envelope invariant.

    The suite runs as one batch through the service engine
    (``repro.service.EnvelopeEngine.run_batch``): tests are sharded
    across a ``jobs`` worker budget, and -- when ``engine`` carries a
    ``VerdictCache`` -- previously-decided tests are answered from the
    cache instead of re-explored.  ``search`` holds every test's search
    settings.  Its ``max_states`` bounds each exploration, so blowups
    become "StateLimit" skips, not failures; ``strategy="bounded"``
    keeps their partial outcomes and work accounting; a context bound
    degrades truncated tests to the same skips.  ``reduction`` "sleep"
    and "dpor" prune interleavings while preserving every verdict.
    Model parameters come from ``engine`` (default ``DEFAULT_PARAMS``).
    """
    from ..service.engine import EngineRequest, EnvelopeEngine

    if engine is None:
        engine = EnvelopeEngine()
    requests = [
        EngineRequest(test.source, test.name, search) for test in tests
    ]
    batch = engine.run_batch(requests, jobs=jobs)
    checks: List[OracleCheck] = []
    for test, verdict in zip(tests, batch.verdicts):
        expected = expectation(test.edges)
        skipped = verdict.status == "StateLimit"
        checks.append(
            OracleCheck(
                name=test.name,
                family=test.family,
                edge_names=test.edge_names,
                expected=expected,
                status=verdict.status,
                ok=None if skipped else verdict.status == expected,
                error=verdict.error,
            )
        )
    return OracleReport(
        checks=checks,
        jobs=batch.jobs,
        wall_seconds=batch.wall_seconds,
        stats=batch.merged_stats(),
    )
