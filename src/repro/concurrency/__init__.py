"""The operational concurrency model (sections 2 and 5 of the paper)."""

from .events import BarrierEvent, BarrierId, Write, WriteId
from .exhaustive import (
    ExplorationLimit,
    ExplorationResult,
    ExplorationStats,
    Witness,
    explore,
    find_witness,
    run_one,
)
from .keys import CachedKey
from .parallel import (
    CorpusReport,
    CorpusTestResult,
    default_job_count,
    explore_corpus,
    plan_worker_budget,
)
from .params import DEFAULT_PARAMS, ModelParams
from .search import (
    BoundedIterative,
    SearchConfig,
    SequentialDFS,
)
from .storage import CoherenceViolation, StorageSubsystem
from .system import SystemState, Transition
from .thread import InstructionInstance, ModelError, ThreadState

__all__ = [
    "BarrierEvent",
    "BarrierId",
    "BoundedIterative",
    "CachedKey",
    "CoherenceViolation",
    "CorpusReport",
    "CorpusTestResult",
    "DEFAULT_PARAMS",
    "ExplorationLimit",
    "ExplorationResult",
    "ExplorationStats",
    "InstructionInstance",
    "ModelError",
    "ModelParams",
    "SearchConfig",
    "SequentialDFS",
    "StorageSubsystem",
    "SystemState",
    "ThreadState",
    "Transition",
    "Witness",
    "Write",
    "WriteId",
    "default_job_count",
    "explore",
    "explore_corpus",
    "find_witness",
    "plan_worker_budget",
    "run_one",
]
