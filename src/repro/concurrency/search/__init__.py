"""Search strategies for the exhaustive oracle.

The oracle's two questions -- all reachable outcomes, or one witnessing
execution -- are answered by one in-process depth-first search over a
single unified driver (``core.run_search``), in two flavours:

* ``SequentialDFS`` -- the reference engine, bit-identical to the
  historical ``explore``/``find_witness``; budget exhaustion raises
  ``ExplorationLimit``;
* ``BoundedIterative`` -- the same single pass, but budget exhaustion
  returns the partial outcome set flagged ``complete=False`` instead of
  raising.

Both accept ``reduction``/``context_bound`` (see ``reduction``):
sleep-set partial-order reduction preserves the outcome envelope while
pruning commuting interleavings; a context bound trades completeness
(reported via ``ExplorationResult.complete``) for a drastically smaller
search.  ``reduction="dpor"`` (see ``dpor``) layers source sets and a
canonical state-key quotient on top of sleep sets.

``SearchConfig`` is the one value that carries a query's search
settings -- strategy name, reduction, context bound and state budget --
from a CLI flag or a daemon JSON ``options`` object down to
``SearchConfig.build()``, the only place a strategy is constructed from
settings; the service cache key is derived from the same value.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Type

from .bounded import BoundedIterative
from .core import (
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    Frontier,
    Outcome,
    Witness,
    outcome_of,
    registers_of_interest,
    run_search,
)
from .reduction import REDUCTIONS, Reducer, make_reducer
from .sequential import SequentialDFS

#: Name -> class registry behind ``SearchConfig`` and the CLI choices.
STRATEGIES: Dict[str, Type[SequentialDFS]] = {
    SequentialDFS.name: SequentialDFS,
    BoundedIterative.name: BoundedIterative,
}


#: Smallest accepted value of each numeric ``SearchConfig`` field.
_LEAST = {"max_states": 1, "context_bound": 0}


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Every search setting of one oracle query, validated on creation."""

    strategy: str = SequentialDFS.name
    reduction: str = "none"
    context_bound: Optional[int] = None
    max_states: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown search strategy {self.strategy!r} "
                f"(choose from {sorted(STRATEGIES)})"
            )
        if self.reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r} "
                f"(choose from {', '.join(REDUCTIONS)})"
            )
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value is None:
                continue
            # ``bool`` is an ``int`` subclass: ``True`` would run as 1.
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, not {value!r}")
            if value < least:
                raise ValueError(
                    f"{name} must be at least {least}, not {value}"
                )

    @classmethod
    def from_options(cls, options: Optional[dict] = None) -> "SearchConfig":
        """Build from a JSON-safe options dict; unknown keys are refused."""
        options = options or {}
        unknown = set(options) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown search options: {sorted(unknown)}")
        return cls(**options)

    def to_options(self) -> dict:
        """The non-default fields: the inverse of ``from_options``."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        }

    def build(self) -> SequentialDFS:
        """The strategy these settings select (budget passed separately)."""
        return STRATEGIES[self.strategy](
            reduction=self.reduction, context_bound=self.context_bound
        )


__all__ = [
    "BoundedIterative",
    "ExplorationLimit",
    "ExplorationResult",
    "ExplorationStats",
    "Frontier",
    "Outcome",
    "REDUCTIONS",
    "Reducer",
    "STRATEGIES",
    "SearchConfig",
    "SequentialDFS",
    "Witness",
    "make_reducer",
    "outcome_of",
    "registers_of_interest",
    "run_search",
]
