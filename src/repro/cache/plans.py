"""Global plan cache.

Parsing, export expansion, and optimization are pure functions of the SQL
text, the chosen optimizer, the federation's schema, and the statistics
the cost model consulted — so a plan can be reused as long as that whole
key is unchanged.  The key therefore includes the federation's
``schema_version`` (bumped on any relation (re)definition) and every
gateway's ``stats_version`` (bumped when its statistics cache is
invalidated): redefining a schema or committing DML flushes affected
entries implicitly by changing the key.  With adaptive feedback enabled
the key also carries the ``runtime_stats_version`` of the federation's
:class:`~repro.query.feedback.RuntimeStatsStore`, so plans compiled from
superseded learned cardinalities expire the same way — and stop expiring
once the learned estimates converge.

Cached plans are shared, not copied: a hit returns the very object every
other query with the same key executes, possibly on another thread.  A plan
is therefore never edited once the optimizer returns it.  Adaptive
re-planning, the one step that changes a plan after optimization, edits a
private copy inside :meth:`~repro.query.executor.GlobalExecutor.execute`.
"""

from __future__ import annotations

from repro.cache.lru import LRUCache
from repro.query.localizer import GlobalPlan


class PlanCache:
    """LRU of optimized :class:`~repro.query.localizer.GlobalPlan`s."""

    def __init__(self, capacity: int = 64):
        self._lru = LRUCache(capacity)

    def get(self, key: tuple) -> GlobalPlan | None:
        return self._lru.get(key)

    def put(self, key: tuple, plan: GlobalPlan) -> None:
        self._lru.put(key, plan)

    def clear(self) -> int:
        return self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def stats(self) -> dict[str, int]:
        return self._lru.stats
