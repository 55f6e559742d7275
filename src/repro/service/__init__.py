"""Planner-as-a-service: cached, concurrent, warm-started plan serving.

The paper's execution-plan search is a one-shot offline procedure; this
subsystem turns it into a shared service so heavy planning traffic is cheap:

* :mod:`repro.service.fingerprint` — canonical cache keys for planning
  requests (exact key + warm-start family key).
* :mod:`repro.service.cache` — thread-safe in-memory LRU cache of plan
  objects.
* :mod:`repro.service.warm_start` — seeding the MCMC search from the most
  similar cached plan, adapted across cluster sizes.
* :mod:`repro.service.server` — the concurrent :class:`PlanService` with
  request deduplication and per-request statistics.
"""

from .cache import PlanCache, PlanCacheEntry
from .fingerprint import WorkloadFingerprint, canonical_request, fingerprint_request
from .server import (
    PlanRequest,
    PlanResponse,
    PlanService,
    PlanSession,
    RequestStats,
    ServiceStats,
    SessionStatus,
)
from .warm_start import adapt_plan, select_warm_start, similarity_distance

__all__ = [
    "WorkloadFingerprint",
    "canonical_request",
    "fingerprint_request",
    "PlanCache",
    "PlanCacheEntry",
    "select_warm_start",
    "adapt_plan",
    "similarity_distance",
    "PlanRequest",
    "PlanResponse",
    "RequestStats",
    "ServiceStats",
    "SessionStatus",
    "PlanSession",
    "PlanService",
]
