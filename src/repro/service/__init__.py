"""Service layer: one catalog, fingerprint-keyed caching, batch execution.

This package turns the FaiRank library into a servable engine (the thin
data-management-application pattern: a service facade over analysis
kernels).  See :mod:`repro.service.service` for the facade (which owns the
system's single :class:`~repro.catalog.Catalog`), :mod:`repro.service.jobs`
for wire protocol v2, :mod:`repro.service.client` for the in-process client
facade, and :mod:`repro.service.executor` for the batch executor.
"""

from repro.service.cache import CacheStats, LRUCache
from repro.service.client import FairnessClient, FairnessClientBase
from repro.service.executor import BatchExecutor
from repro.service.fingerprint import (
    combine_fingerprints,
    fingerprint_dataset,
    fingerprint_formulation,
    fingerprint_function,
    fingerprint_marketplace,
    fingerprint_value,
)
from repro.service.jobs import (
    PROTOCOL_VERSION,
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    JobOwnerRequest,
    QuantifyRequest,
    ServiceRequest,
    ServiceResult,
    SweepRequest,
    request_from_json,
)
from repro.service.service import FairnessService, StorePoolStats

__all__ = [
    "AuditRequest",
    "BatchExecutor",
    "BreakdownRequest",
    "CacheStats",
    "CompareRequest",
    "EndUserRequest",
    "FairnessClient",
    "FairnessClientBase",
    "FairnessService",
    "JobOwnerRequest",
    "LRUCache",
    "PROTOCOL_VERSION",
    "StorePoolStats",
    "QuantifyRequest",
    "ServiceRequest",
    "ServiceResult",
    "SweepRequest",
    "combine_fingerprints",
    "fingerprint_dataset",
    "fingerprint_formulation",
    "fingerprint_function",
    "fingerprint_marketplace",
    "fingerprint_value",
    "request_from_json",
]
