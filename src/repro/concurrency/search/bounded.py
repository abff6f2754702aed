"""Budget-bounded search that degrades to a flagged partial result.

``BoundedIterative`` is ``SequentialDFS`` with one difference: when the
caller's state budget runs out, ``explore`` returns the outcomes found
so far with ``ExplorationResult.complete = False`` instead of raising
``ExplorationLimit``.  Corpus pipelines can then report a "StateLimit"
verdict *and* keep the outcomes and work accounting of everything that
was explored; searches that fit the budget are identical to the
sequential engine's (outcomes and counters).

The search is one pass at the caller's budget: deepening from a
smaller one would only retraverse states, since every iteration before
the last is thrown away.  ``find_witness`` is the sequential one: it
has no ``complete`` flag to set, so an exhausted witness search still
raises -- returning ``None`` would read as a proof of unsatisfiability
the search cannot support.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequential import SequentialDFS


@dataclass(frozen=True)
class BoundedIterative(SequentialDFS):
    """Sequential DFS whose budget exhaustion yields a partial result."""

    name = "bounded"
    partial_on_limit = True
