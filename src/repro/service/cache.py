"""Plan cache: LRU storage of search results keyed by workload fingerprint.

The cache maps a :class:`~repro.service.fingerprint.WorkloadFingerprint` key
to a :class:`PlanCacheEntry` — the best :class:`~repro.core.plan.ExecutionPlan`
itself plus the summary statistics of the search that produced it.  Entries
live in memory only and are kept in LRU order: a plan search is cheap enough
to repeat, so nothing needs to survive a restart.

Puts are numbered, so a decision wave can warm-start every candidate from
the cache as it stood when the wave began (the ``before`` cutoff of
:meth:`PlanCache.family_entries`).  Like the rest of the library, the
cache is not thread-safe.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.plan import ExecutionPlan
from ..core.search import SearchResult
from .fingerprint import WorkloadFingerprint

__all__ = ["PlanCacheEntry", "PlanCache"]

DEFAULT_CACHE_CAPACITY = 128


@dataclass
class PlanCacheEntry:
    """One cached search outcome.

    ``plan`` is the best plan as the search returned it; its meshes carry the
    cluster it was searched on.  Served plans are shared between every hit,
    session seed and warm start of the entry, so they must not be mutated.
    ``features`` mirrors the fingerprint's scale knobs so the warm-start
    selector can rank entries without re-deriving workloads.
    """

    key: str
    family: str
    features: Dict[str, float]
    plan: ExecutionPlan
    best_cost: float
    initial_cost: float
    peak_memory_bytes: float
    """Estimated MaxMem of the best plan."""
    n_iterations: int = 0
    n_accepted: int = 0
    elapsed_seconds: float = 0.0
    search_space: float = 0.0

    @classmethod
    def from_search_result(
        cls,
        fingerprint: WorkloadFingerprint,
        result: SearchResult,
        peak_memory_bytes: float,
    ) -> "PlanCacheEntry":
        """Build an entry from a finished search."""
        return cls(
            key=fingerprint.key,
            family=fingerprint.family,
            features=dict(fingerprint.features),
            plan=result.best_plan,
            best_cost=result.best_cost,
            initial_cost=result.initial_cost,
            peak_memory_bytes=peak_memory_bytes,
            n_iterations=result.n_iterations,
            n_accepted=result.n_accepted,
            elapsed_seconds=result.elapsed_seconds,
            search_space=result.search_space,
        )

    def to_search_result(self) -> SearchResult:
        """A summary :class:`SearchResult` for cache hits.

        The proposal history and the initial plan are not kept (the initial
        plan only feeds the improvement ratio), so the result reuses the
        stored best plan with the recorded initial cost.
        """
        return SearchResult(
            best_plan=self.plan,
            best_cost=self.best_cost,
            initial_plan=self.plan,
            initial_cost=self.initial_cost,
            n_iterations=self.n_iterations,
            n_accepted=self.n_accepted,
            elapsed_seconds=self.elapsed_seconds,
            history=[],
            search_space=self.search_space,
        )


class PlanCache:
    """LRU cache of :class:`PlanCacheEntry` objects.

    ``capacity`` is the maximum number of entries; the least recently used
    entry is evicted when the cache overflows.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, PlanCacheEntry]" = OrderedDict()
        self._put_numbers: Dict[str, int] = {}
        self.puts = 0
        """How many :meth:`put` calls the cache has seen (refreshes included)."""

    def get(self, key: str) -> Optional[PlanCacheEntry]:
        """Look up an entry by exact fingerprint key (refreshes LRU order)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: str) -> Optional[PlanCacheEntry]:
        """Look up an entry without touching LRU order."""
        return self._entries.get(key)

    def put(self, entry: PlanCacheEntry) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry on overflow."""
        if entry.key in self._entries:
            self._entries.move_to_end(entry.key)
        self._entries[entry.key] = entry
        self._put_numbers[entry.key] = self.puts
        self.puts += 1
        while len(self._entries) > self.capacity:
            evicted, _entry = self._entries.popitem(last=False)
            del self._put_numbers[evicted]

    def refresh(self, entry: PlanCacheEntry) -> bool:
        """Replace the cached entry for ``entry.key`` only if this one is better.

        The staleness hook of online re-planning: a background session that
        beats the cached cost for its fingerprint writes its improved plan
        back, so future requests are never served a plan the service already
        knows how to beat.  Entries at least as good as the candidate are
        left untouched; returns whether the cache changed.
        """
        existing = self._entries.get(entry.key)
        if existing is not None and existing.best_cost <= entry.best_cost:
            return False
        self.put(entry)
        return True

    def family_entries(
        self, family: str, before: Optional[int] = None
    ) -> List[PlanCacheEntry]:
        """All cached entries of a fingerprint family, most recent first.

        With ``before``, only entries whose latest put came earlier than put
        number ``before`` (a past value of :attr:`puts`) are returned.
        """
        return [
            entry
            for entry in reversed(self._entries.values())
            if entry.family == family
            and (before is None or self._put_numbers[entry.key] < before)
        ]
