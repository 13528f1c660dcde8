"""The :class:`FairnessService` facade: catalog + cache + request execution.

FaiRank is interactive: users re-run the partitioning search over the same
population while varying the scoring function and the formulation, and
auditors fan the same analysis out across jobs and platforms.  The service
layer turns the library's pure functions into a servable engine:

* a single :class:`~repro.catalog.Catalog` of named datasets, scoring
  functions, marketplaces and formulations — the one registry the session
  engine, the role workflows, the batch executor and the CLI all resolve
  resources through (fingerprint-aware, with replace/freeze semantics);
* a **fingerprint-keyed result cache** so semantically identical requests
  are computed once (:mod:`repro.service.fingerprint`,
  :mod:`repro.service.cache`): request key -> encoded payload bytes, the one
  kind of entry it holds;
* a pool of materialized score stores
  (:class:`~repro.core.scorestore.ScoreStore`) that every payload builder,
  every role and :class:`~repro.session.engine.FaiRankEngine` score
  through, so one (population, function) pair is scored once across
  requests;
* **request execution** for the typed wire protocol v2 of
  :mod:`repro.service.jobs` — all seven request kinds — returning JSON-ready
  :class:`~repro.service.jobs.ServiceResult` envelopes, with failures
  reported as structured error payloads instead of raised-only exceptions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.catalog import Catalog, ResourceKind
from repro.core.formulations import Formulation
from repro.core.partition import Partitioning, root_partition, split_partition
from repro.core.quantify import QuantifyResult, quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import (
    favored_groups,
    unfairness,
    unfairness_breakdown,
)
from repro.data.dataset import Dataset
from repro.errors import CatalogError, FaiRankError, ServiceError
from repro.marketplace.entities import Marketplace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Trace, activate, current_trace_id
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.scoring.base import ScoringFunction
from repro.scoring.library import weight_sweep
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import observed_function
from repro.service.cache import CacheStats, LRUCache
from repro.service.fingerprint import (
    combine_fingerprints,
    fingerprint_dataset,
    fingerprint_function,
    fingerprint_value,
)
from repro.service.jobs import (
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    JobOwnerRequest,
    QuantifyRequest,
    ServiceRequest,
    ServiceResult,
    SweepRequest,
    error_code,
    request_references,
)

__all__ = ["FairnessService", "StorePoolStats"]


@dataclass(frozen=True)
class StorePoolStats:
    """Snapshot of the service's score-store pool effectiveness.

    ``hits``/``misses`` count store *lookups* (a hit means a later request
    over the same (dataset, function) fingerprints reused an existing
    materialized score vector); the scoring/histogram counters aggregate over
    the live stores (evicted stores take their counters with them).
    """

    stores: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    scoring_passes: int = 0
    sliced_partitions: int = 0
    histogram_hits: int = 0
    histogram_misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of store lookups that reused a materialized vector."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "stores": self.stores,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "scoring_passes": self.scoring_passes,
            "sliced_partitions": self.sliced_partitions,
            "histogram_hits": self.histogram_hits,
            "histogram_misses": self.histogram_misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def describe(self) -> str:
        return (
            f"{self.stores} store(s), {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} reuse), {self.scoring_passes} scoring pass(es), "
            f"histograms {self.histogram_hits} hits / {self.histogram_misses} misses, "
            f"{self.evictions} evictions"
        )


class FairnessService:
    """Servable fairness engine: one catalogue, memoisation, requests.

    Parameters
    ----------
    cache_size:
        Maximum number of memoised request payloads.
    max_stores:
        Bound on the number of per-(dataset, function) score stores the
        service keeps for cross-request reuse (LRU-evicted beyond it).
    catalog:
        An externally owned :class:`~repro.catalog.Catalog`, e.g. to share
        one resource registry between several services.  By default the
        service owns a fresh catalog — the *only* catalogue in the system;
        session engines delegate to it rather than keeping their own.
    """

    def __init__(
        self,
        cache_size: int = 256,
        max_stores: int = 32,
        catalog: Optional[Catalog] = None,
        warm_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_stores < 1:
            raise ServiceError(f"max_stores must be >= 1, got {max_stores}")
        self.catalog = catalog if catalog is not None else Catalog()
        #: Request key -> the ``json.dumps(payload)`` bytes of its answer.
        self.cache = LRUCache(cache_size)
        self.max_stores = max_stores
        # The store pool is itself an LRUCache: thread-safe LRU with
        # hit/miss/eviction stats and single-flight store construction.
        self._store_pool = LRUCache(max_stores)
        # Where warm-start bundles live; the constructor only records the
        # path — callers invoke load_warm_state() once the catalogue is
        # populated (fingerprint verification needs the live resources).
        self.warm_dir = Path(warm_dir) if warm_dir is not None else None

    # -- warm-start persistence ------------------------------------------------

    def load_warm_state(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Optional[Dict[str, int]]:
        """Reload warm state from ``directory`` (default: ``warm_dir``).

        A no-op returning ``None`` when no directory is configured.  Load
        failures never propagate: the bundle is verified against the live
        catalog and skipped on mismatch (see :mod:`repro.service.warmstart`),
        so a stale or corrupted bundle degrades to a cold boot, never a
        crashed one.
        """
        target = Path(directory) if directory is not None else self.warm_dir
        if target is None:
            return None
        from repro.service.warmstart import load_warm_state

        return load_warm_state(self, target)

    def save_warm_state(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Optional[Dict[str, object]]:
        """Persist warm state to ``directory`` (default: ``warm_dir``).

        A no-op returning ``None`` when no directory is configured.  Save
        errors are reported as a structured event rather than raised — a
        shutdown must always complete, warm bundle or not.
        """
        target = Path(directory) if directory is not None else self.warm_dir
        if target is None:
            return None
        from repro.obs.log import get_logger
        from repro.service.warmstart import save_warm_state

        try:
            return save_warm_state(self, target)
        # Shutdown must finish even when the disk is full or read-only; the
        # next boot simply comes up cold.
        except OSError as error:
            get_logger().event(
                "warmstart_save_failed", directory=str(target), error=str(error)
            )
            return None

    # -- the catalogue ---------------------------------------------------------

    def register_dataset(
        self,
        dataset: Dataset,
        name: Optional[str] = None,
        *,
        replace: bool = True,
        freeze: bool = False,
    ) -> str:
        """Add a dataset to the catalogue; returns its registered name."""
        try:
            return self.catalog.register(
                dataset, name=name, kind=ResourceKind.DATASET,
                replace=replace, freeze=freeze,
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def register_function(
        self,
        function: ScoringFunction,
        replace: bool = True,
        *,
        freeze: bool = False,
    ) -> str:
        """Add a scoring function to the catalogue; returns its name."""
        try:
            return self.catalog.register(
                function, kind=ResourceKind.FUNCTION, replace=replace, freeze=freeze
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def register_marketplace(
        self, marketplace: Marketplace, *, replace: bool = True, freeze: bool = False
    ) -> str:
        """Register a marketplace plus its workers dataset and job functions.

        ``replace`` governs the satellite registrations too: with
        ``replace=False`` a job function whose name is already taken by
        *different* content raises (after the marketplace and workers entries
        have landed — registration is not transactional).  ``freeze`` pins
        only the marketplace entry itself; job functions may be shared with
        other marketplaces, so they are never frozen implicitly.
        """
        try:
            name = self.catalog.register(
                marketplace, kind=ResourceKind.MARKETPLACE,
                replace=replace, freeze=freeze,
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None
        self.register_dataset(marketplace.workers, name=name, replace=replace)
        for job in marketplace:
            self.register_function(job.function, replace=replace)
        return name

    def register_formulation(
        self,
        formulation: Formulation,
        name: Optional[str] = None,
        *,
        replace: bool = True,
        freeze: bool = False,
    ) -> str:
        """Add a named formulation to the catalogue; returns its name."""
        try:
            return self.catalog.register(
                formulation, name=name or formulation.name,
                kind=ResourceKind.FORMULATION, replace=replace, freeze=freeze,
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    @property
    def dataset_names(self) -> Tuple[str, ...]:
        return self.catalog.names(ResourceKind.DATASET)

    @property
    def function_names(self) -> Tuple[str, ...]:
        return self.catalog.names(ResourceKind.FUNCTION)

    def dataset(self, ref: str) -> Dataset:
        """Resolve a dataset by name or content-fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.DATASET, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def function(self, ref: str) -> ScoringFunction:
        """Resolve a scoring function by name or content-fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.FUNCTION, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def marketplace(self, ref: str) -> Marketplace:
        """Resolve a marketplace by name or content-fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.MARKETPLACE, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def formulation(self, ref: str) -> Formulation:
        """Resolve a registered formulation by name or fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.FORMULATION, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    # -- score materialization (cross-request reuse) ---------------------------

    def score_store(self, dataset: Dataset, function: ScoringFunction) -> ScoreStore:
        """The shared :class:`~repro.core.scorestore.ScoreStore` for a pair.

        Stores are keyed by *content* fingerprints, so an AUDIT or COMPARE
        fan-out that re-runs searches over the same population and scoring
        function — even via rebuilt, content-identical objects — shares one
        materialized scoring pass.  The key is the proof of equality: the
        returned store adopts the caller's dataset and function as twins of
        its own (:meth:`~repro.core.scorestore.ScoreStore.adopt`).  The pool
        is LRU-bounded by ``max_stores``.
        """
        key = combine_fingerprints(
            "score-store", fingerprint_dataset(dataset), fingerprint_function(function)
        )
        store, _ = self._store_pool.get_or_compute(key, lambda: ScoreStore(dataset, function))
        store.adopt(dataset, function)
        return store

    @property
    def store_stats(self) -> StorePoolStats:
        """Aggregate effectiveness of the score-store pool (for monitoring)."""
        pool = self._store_pool.stats
        stores = [store.stats for store in self._store_pool.values()]
        return StorePoolStats(
            stores=pool.entries,
            hits=pool.hits,
            misses=pool.misses,
            evictions=pool.evictions,
            scoring_passes=sum(stats.scoring_passes for stats in stores),
            sliced_partitions=sum(stats.sliced_partitions for stats in stores),
            histogram_hits=sum(stats.histogram_hits for stats in stores),
            histogram_misses=sum(stats.histogram_misses for stats in stores),
        )

    # -- request execution (the wire protocol) --------------------------------

    def request_key(self, request: ServiceRequest) -> str:
        """The cache key a request resolves to: its JSON plus its resources.

        The key hashes the request's own ``to_json()`` together with the
        catalogue fingerprint of every resource it references.  Every name a
        payload echoes is in the JSON, so two names for identical data get
        distinct keys (and distinct cached answers, while still sharing one
        content-keyed score store); the fingerprints make a name
        re-registered with different content key differently too.  They are
        read from the catalogue entries, computed once at registration, so
        a key never scores or ranks anything.  An unknown resource or an
        invalid formulation raises :class:`~repro.errors.ServiceError`.
        """
        self._payload_builder(request)
        wire = request.to_json()
        try:
            resources = [
                f"{kind}:{self.catalog.get(ResourceKind(kind), ref).fingerprint}"
                for kind, ref in request_references(wire)
            ]
        except CatalogError as error:
            raise ServiceError(str(error)) from None
        request.formulation()
        return combine_fingerprints("request", fingerprint_value(wire), *resources)

    @staticmethod
    def _finish_timings(trace: Trace, elapsed: float) -> Dict[str, object]:
        """The envelope's ``timings`` field: recorded spans + derived totals.

        ``cache_ms`` is what is left of the wall clock after fingerprinting
        and payload computation — cache lookup, single-flight waiting and
        envelope assembly.  ``score_ms`` (when present) is *inside*
        ``compute_ms``: it times the score store's materialization pass.
        """
        timings = trace.timings()
        total_ms = round(elapsed * 1000.0, 3)
        key_ms = float(timings.get("key_ms", 0.0))  # type: ignore[arg-type]
        compute_ms = float(timings.get("compute_ms", 0.0))  # type: ignore[arg-type]
        timings["cache_ms"] = round(max(total_ms - key_ms - compute_ms, 0.0), 3)
        timings["total_ms"] = total_ms
        return timings

    @staticmethod
    def _record_request(
        kind: str, status: str, cached: bool, elapsed: float,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = registry if registry is not None else get_registry()
        registry.counter(
            "fairank_requests_total",
            "Executed service requests by kind, outcome and cache hit",
        ).inc(kind=kind, status=status, cached="true" if cached else "false")
        registry.histogram(
            "fairank_request_seconds", "Service request latency by kind"
        ).observe(elapsed, kind=kind)

    def execute(
        self,
        request: ServiceRequest,
        key: Optional[str] = None,
        *,
        queue_s: Optional[float] = None,
    ) -> ServiceResult:
        """Execute one request, serving from the cache when possible.

        ``key`` lets callers that already computed :meth:`request_key` (the
        batch executor does, for deduplication) skip recomputing it.
        ``queue_s`` is how long the request waited before execution started
        (the batch executor measures it); it lands in the envelope's
        ``timings`` as ``queue_ms``.

        A request that fails with a library error (unknown resource, invalid
        formulation, empty candidate pool, ...) returns an **error envelope**
        — :class:`~repro.service.jobs.ServiceResult` with ``error`` set and
        an empty payload — rather than raising, so batch and remote callers
        always get one result per request.  Error results are never cached:
        registering the missing resource makes the same request succeed.

        The cache entry is the ``json.dumps(payload)`` bytes, encoded once
        inside ``compute_ms``; the result carries them as ``payload_json``
        and decodes ``payload`` lazily into a tree of its own, so mutating it
        never corrupts the cached value.
        """
        started = time.perf_counter()
        # A fresh trace per request, inheriting any active trace id (HTTP
        # ingress, batch parent): batched requests share one trace id while
        # keeping per-request timings.
        trace = Trace(trace_id=current_trace_id())
        if queue_s:
            trace.add("queue", queue_s)
        registry = get_registry()
        with activate(trace):
            try:
                if key is None:
                    with trace.span("key"):
                        key = self.request_key(request)

                def produce() -> bytes:
                    with trace.span("compute"):
                        payload = self._payload_builder(request)(self, request)
                        return json.dumps(payload).encode("utf-8")

                payload_json, hit = self.cache.get_or_compute(key, produce)
            except FaiRankError as error:
                elapsed = time.perf_counter() - started
                self._record_request(request.kind, "error", False, elapsed, registry)
                return ServiceResult.failure(
                    request.kind, error_code(error), str(error), key=key or "",
                    elapsed_s=elapsed, timings=self._finish_timings(trace, elapsed),
                )
        elapsed = time.perf_counter() - started
        self._record_request(request.kind, "ok", hit, elapsed, registry)
        return ServiceResult(
            kind=request.kind,
            key=key,
            payload_json=payload_json,
            cached=hit,
            elapsed_s=elapsed,
            timings=self._finish_timings(trace, elapsed),
        )

    # -- payload builders ------------------------------------------------------

    def _effective_function(
        self, dataset: Dataset, function_name: str, use_ranks_only: bool
    ) -> ScoringFunction:
        """Resolve a function honouring the transparency settings."""
        return observed_function(
            self.function(function_name), dataset, function_name, use_ranks_only
        )

    def _search(
        self,
        dataset: Dataset,
        function: ScoringFunction,
        formulation: Formulation,
        request: Union[QuantifyRequest, CompareRequest, SweepRequest],
    ) -> Tuple[QuantifyResult, ScoreStore]:
        """QUANTIFY over the pooled store for the pair, and that store."""
        store = self.score_store(dataset, function)
        result = quantify(
            dataset,
            function,
            formulation=formulation,
            attributes=request.attributes,
            max_depth=request.max_depth,
            min_partition_size=request.min_partition_size,
            store=store,
        )
        return result, store

    def _payload_builder(self, request: ServiceRequest) -> Callable[..., Dict[str, object]]:
        try:
            return self._PAYLOAD_BUILDERS[type(request)]
        except KeyError:
            raise ServiceError(
                f"unsupported request type {type(request).__name__}"
            ) from None

    def _quantify_payload(self, request: QuantifyRequest) -> Dict[str, object]:
        dataset = self.dataset(request.dataset)
        function = self._effective_function(
            dataset, request.function, request.use_ranks_only
        )
        formulation = request.formulation()
        result, store = self._search(dataset, function, formulation, request)
        breakdown = unfairness_breakdown(
            result.partitioning, function, formulation, store=store
        )
        return {
            "dataset": request.dataset,
            "function": request.function,
            "formulation": formulation.name,
            "population": len(dataset),
            "unfairness": result.unfairness,
            "partitions": [
                {"label": label, "size": size}
                for label, size in zip(result.partitioning.labels, result.partitioning.sizes)
            ],
            "splits_evaluated": result.splits_evaluated,
            "most_favored": breakdown.most_favored,
            "least_favored": breakdown.least_favored,
            "pairwise": [
                [first, second, value]
                for (first, second), value in breakdown.pairwise.items()
            ],
        }

    def _audit_payload(self, request: AuditRequest) -> Dict[str, object]:
        market = self.marketplace(request.marketplace)
        formulation = request.formulation()
        auditor = Auditor(
            formulation=formulation,
            attributes=request.attributes,
            min_partition_size=request.min_partition_size,
            store_provider=self.score_store,
        )
        if request.job is not None:
            audits = [auditor.audit_job(market, market.job(request.job))]
        else:
            audits = auditor.audit_marketplace(market).audits
        jobs_payload = [
            {
                "job": audit.job_title,
                "transparent_function": audit.transparent_function,
                "unfairness": audit.unfairness,
                "groups": list(audit.partitions),
                "most_favored": audit.most_favored,
                "least_favored": audit.least_favored,
            }
            for audit in audits
        ]
        most_unfair = max(audits, key=lambda audit: audit.unfairness)
        least_unfair = min(audits, key=lambda audit: audit.unfairness)
        return {
            "marketplace": request.marketplace,
            "formulation": formulation.name,
            "jobs": jobs_payload,
            "most_unfair_job": most_unfair.job_title,
            "least_unfair_job": least_unfair.job_title,
        }

    def _compare_payload(self, request: CompareRequest) -> Dict[str, object]:
        dataset = self.dataset(request.dataset)
        formulation = request.formulation()
        rows: List[Dict[str, object]] = []
        for name in request.functions:
            function = self._effective_function(dataset, name, use_ranks_only=False)
            result, store = self._search(dataset, function, formulation, request)
            most, least = favored_groups(result.partitioning, function, store=store)
            rows.append(
                {
                    "function": name,
                    "unfairness": result.unfairness,
                    "groups": len(result.partitioning),
                    "most_favored": most,
                    "least_favored": least,
                }
            )
        by_unfairness = sorted(rows, key=lambda row: (row["unfairness"], row["function"]))
        return {
            "dataset": request.dataset,
            "formulation": formulation.name,
            "functions": rows,
            "fairest": by_unfairness[0]["function"],
            "most_unfair": by_unfairness[-1]["function"],
        }

    def _breakdown_payload(self, request: BreakdownRequest) -> Dict[str, object]:
        """Per-attribute unfairness of the first-level single-attribute splits."""
        dataset = self.dataset(request.dataset)
        function = self._effective_function(
            dataset, request.function, request.use_ranks_only
        )
        formulation = request.formulation()
        attributes = (
            request.attributes
            if request.attributes is not None
            else dataset.schema.protected_names
        )
        if not attributes:
            raise ServiceError(
                "a breakdown request needs at least one protected attribute "
                f"(dataset {request.dataset!r} declares none)"
            )
        for attribute in attributes:
            dataset.schema.require_protected(attribute)
        # One materialized scoring pass serves every attribute's split.
        store = self.score_store(dataset, function)
        root = root_partition(dataset)
        rows: List[Dict[str, object]] = []
        for attribute in attributes:
            children = split_partition(root, attribute, store=store)
            admissible = len(children) >= 2 and all(
                child.size >= request.min_partition_size for child in children
            )
            value = unfairness(
                Partitioning(dataset, children, validate=False),
                function,
                formulation,
                store=store,
            )
            groups = []
            for child in children:
                scores = store.scores(child)
                groups.append(
                    {
                        "label": child.label,
                        "size": child.size,
                        "mean_score": float(scores.mean()) if scores.size else 0.0,
                    }
                )
            rows.append(
                {
                    "attribute": attribute,
                    "unfairness": value,
                    "admissible": admissible,
                    "groups": groups,
                }
            )
        ranked = [row for row in rows if row["admissible"]] or rows
        most = max(ranked, key=lambda row: row["unfairness"])
        least = min(ranked, key=lambda row: row["unfairness"])
        return {
            "dataset": request.dataset,
            "function": request.function,
            "formulation": formulation.name,
            "population": len(dataset),
            "attributes": rows,
            "most_unfair_attribute": most["attribute"],
            "least_unfair_attribute": least["attribute"],
        }

    def _sweep_payload(self, request: SweepRequest) -> Dict[str, object]:
        """Weight sweep over a linear function, one shared scoring pass per point.

        Every sweep point's search, favoured groups and mean score share the
        one pooled :class:`~repro.core.scorestore.ScoreStore` for the
        variant, looked up once per point.
        """
        dataset = self.dataset(request.dataset)
        base = self.function(request.function)
        if not isinstance(base, LinearScoringFunction):
            raise ServiceError(
                f"sweep requests need a transparent linear scoring function; "
                f"{request.function!r} is a {type(base).__name__}"
            )
        formulation = request.formulation()
        vectors = request.weight_maps
        if vectors is None:
            vectors = tuple(weight_sweep(base.attributes, steps=request.steps))
        points: List[Dict[str, object]] = []
        for index, weights in enumerate(vectors):
            # An explicit vector fully specifies the variant's weights
            # (normalized; attributes it omits get weight 0) — it is NOT
            # merged into the base function's weights, so the client always
            # gets exactly the function it asked for.
            variant = LinearScoringFunction(
                dict(weights), name=f"{base.name}@sweep{index}"
            )
            result, store = self._search(dataset, variant, formulation, request)
            most, least = favored_groups(result.partitioning, variant, store=store)
            points.append(
                {
                    "weights": dict(variant.weights),
                    "unfairness": result.unfairness,
                    "groups": len(result.partitioning),
                    "most_favored": most,
                    "least_favored": least,
                    "mean_score": float(store.vector().mean()),
                    "splits_evaluated": result.splits_evaluated,
                }
            )
        fairest = min(range(len(points)), key=lambda i: points[i]["unfairness"])
        most_unfair = max(range(len(points)), key=lambda i: points[i]["unfairness"])
        return {
            "dataset": request.dataset,
            "function": request.function,
            "formulation": formulation.name,
            "population": len(dataset),
            "points": points,
            "fairest_index": fairest,
            "fairest_weights": points[fairest]["weights"],
            "most_unfair_index": most_unfair,
        }

    def _end_user_payload(self, request: EndUserRequest) -> Dict[str, object]:
        group = request.group_map
        formulation = request.formulation()
        user = EndUser(group, formulation=formulation, store_provider=self.score_store)
        outcomes: List[Dict[str, object]] = []
        for name in request.marketplaces:
            market = self.marketplace(name)
            if request.job not in market:
                continue
            outcome = user.assess_job(market, request.job)
            outcomes.append(
                {
                    "marketplace": name,
                    "job": outcome.job_title,
                    "group_size": outcome.group_size,
                    "population_size": outcome.population_size,
                    "mean_score": outcome.mean_score,
                    "population_mean_score": outcome.population_mean_score,
                    "score_gap": outcome.score_gap,
                    "mean_rank": outcome.mean_rank,
                    "exposure_share": outcome.exposure_share,
                    "emd_vs_rest": outcome.emd_vs_rest,
                    "flagged_unfair": outcome.flagged_unfair,
                }
            )
        if not outcomes:
            raise ServiceError(
                f"none of the marketplaces ({', '.join(request.marketplaces)}) "
                f"offers a job titled {request.job!r}"
            )
        best = max(outcomes, key=lambda row: row["score_gap"])
        worst = min(outcomes, key=lambda row: row["score_gap"])
        return {
            "group": dict(group),
            "job": request.job,
            "formulation": formulation.name,
            "marketplaces": list(request.marketplaces),
            "outcomes": outcomes,
            "best_marketplace": best["marketplace"],
            "worst_marketplace": worst["marketplace"],
        }

    def _job_owner_payload(self, request: JobOwnerRequest) -> Dict[str, object]:
        formulation = request.formulation()
        owner = JobOwner(
            formulation,
            min_partition_size=request.min_partition_size,
            store_provider=self.score_store,
        )
        report = owner.explore_job(
            self.marketplace(request.marketplace),
            request.job,
            sweep_steps=request.sweep_steps,
        )
        variants = [
            {
                "variant": evaluation.name,
                "weights": dict(evaluation.function.weights),
                "unfairness": evaluation.unfairness,
                "groups": len(evaluation.partitions),
                "most_favored": evaluation.most_favored,
                "least_favored": evaluation.least_favored,
            }
            for evaluation in report.evaluations
        ]
        recommended = report.fairest
        most_unfair = report.most_unfair
        return {
            "marketplace": request.marketplace,
            "job": request.job,
            "formulation": formulation.name,
            "sweep_steps": request.sweep_steps,
            "variants": variants,
            "recommended": None if recommended is None else recommended.name,
            "most_unfair": None if most_unfair is None else most_unfair.name,
        }

    #: Request class -> the method that builds its payload: the one place a
    #: request kind is dispatched on.
    _PAYLOAD_BUILDERS: Dict[type, Callable[..., Dict[str, object]]] = {
        QuantifyRequest: _quantify_payload,
        AuditRequest: _audit_payload,
        CompareRequest: _compare_payload,
        BreakdownRequest: _breakdown_payload,
        SweepRequest: _sweep_payload,
        EndUserRequest: _end_user_payload,
        JobOwnerRequest: _job_owner_payload,
    }
