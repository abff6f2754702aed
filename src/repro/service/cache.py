"""Persistent verdict cache for the envelope service.

Exploration of a single POWER litmus shape is provably expensive
(robustness against Power is PSPACE-complete), which makes the query
path an ideal memoisation target: a verdict, once computed, is a pure
function of the test and the exploration parameters.  This module is
that memo.

Cache key
---------

``cache_key`` hashes a *canonical* description of the query:

* the canonical litmus source -- ``litmus/emit.emit_litmus`` output,
  which is a fixed point of parse-then-emit, so formatting differences
  (whitespace, instruction-column alignment, condition parenthesisation)
  never split cache entries;
* every ``SearchConfig`` field -- strategy name, reduction, context
  bound, state budget -- and the model-parameter fingerprint
  (``ModelParams``);
* ``SCHEMA_VERSION`` -- bumped whenever exploration *semantics* change
  (new transitions, changed reduction soundness argument, verdict
  vocabulary), which invalidates every stale entry at once.

The digest is SHA-256 over a sorted-key JSON encoding, so it is
byte-identical across processes, machines and ``PYTHONHASHSEED``
values (pinned by ``tests/test_service.py``).

Store
-----

``VerdictCache`` is an sqlite3-backed key -> verdict-JSON table, safe
for concurrent use from daemon handler threads (one connection behind a
lock; sqlite serialises writers anyway).  ``path=":memory:"`` gives an
ephemeral cache for tests and benchmarks.  Hit/miss counters are
in-memory per-process statistics, not persisted.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import asdict
from typing import Any, Dict, Optional

from ..concurrency.params import DEFAULT_PARAMS, ModelParams
from ..concurrency.search import SearchConfig

#: Bump when exploration semantics change (see SERVICE.md for the rules).
#: 2: ``reduction="dpor"`` and the ``symmetry`` key field landed, and the
#: unique-state accounting changed meaning under dpor (canonical keys).
#: 3: the ``symmetry`` and ``sail_backend`` key fields were removed with
#: the features they selected.
SCHEMA_VERSION = 3


def cache_key(
    canonical_source: str,
    search: SearchConfig = SearchConfig(),
    params: ModelParams = DEFAULT_PARAMS,
) -> str:
    """The content hash identifying one (test, parameters) query."""
    payload = {
        "schema": SCHEMA_VERSION,
        "test": canonical_source,
        "strategy": search.strategy,
        "reduction": search.reduction,
        "context_bound": search.context_bound,
        "max_states": search.max_states,
        "params": asdict(params),
    }
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class VerdictCache:
    """Persistent key -> verdict store with hit/miss accounting."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS verdicts ("
            "  key TEXT PRIMARY KEY,"
            "  schema INTEGER NOT NULL,"
            "  name TEXT,"
            "  payload TEXT NOT NULL,"
            "  created REAL NOT NULL"
            ")"
        )
        self._connection.commit()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored verdict payload for ``key``, or ``None`` on a miss.

        Entries written under a different ``SCHEMA_VERSION`` are treated
        as misses (belt and braces: the version is also hashed into the
        key, so they should never collide in the first place).
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT schema, payload FROM verdicts WHERE key = ?", (key,)
            ).fetchone()
        if row is None or row[0] != SCHEMA_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return json.loads(row[1])

    def put(self, key: str, name: str, payload: Dict[str, Any]) -> None:
        """Store (or overwrite) the verdict payload for ``key``."""
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO verdicts "
                "(key, schema, name, payload, created) VALUES (?, ?, ?, ?, ?)",
                (key, SCHEMA_VERSION, name, encoded, time.time()),
            )
            self._connection.commit()

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM verdicts"
            ).fetchone()
        return count

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM verdicts WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "schema": SCHEMA_VERSION,
        }

    def close(self) -> None:
        with self._lock:
            self._connection.close()
