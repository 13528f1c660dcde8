"""The shard router: one HTTP front door over N snapshot-booted workers.

:class:`ShardRouter` speaks exactly the surface of a single-process
:class:`~repro.server.http.FairnessHTTPServer` — same endpoints, same status
mapping, same envelopes — so :class:`~repro.server.client.HTTPFairnessClient`
code runs unchanged against either.  It is *shared-nothing*: the router
holds no dataset, no score store and no result cache, only the snapshot's
``(kind, name) -> fingerprint`` index and the worker pool.  Per endpoint:

* ``POST /v2/<kind>`` — compute the routing slot from the body's resource
  references (:mod:`repro.shard.routing`), forward the body verbatim to the
  slot's worker and relay its response.  A worker that dies mid-request is
  reported to the pool (which restarts it with backoff) and the request
  retries on the next live worker — pure queries are idempotent, so a
  mid-load crash loses no request;
* ``POST /v2/batch`` — split the batch by routing slot, fan the sub-batches
  out concurrently (each under a copy of the caller's trace context), and
  reassemble every worker's in-slot envelopes back into input order;
* ``GET /v2/health`` — aggregate per-worker liveness, cache and store-pool
  statistics around the router's own serving counters;
* ``GET /v2/metrics`` — merge the router's own registry (all families
  ``fairank_router_*``) with every live worker's ``/v2/metrics`` page into
  one fleet-wide Prometheus document;
* ``GET /v2/catalog`` — proxy any live worker (all serve the same snapshot).

Only when *no* worker can be reached within the retry budget does the
router answer itself: ``503`` with an ``unavailable`` transport payload (or
per-slot ``unavailable`` envelopes inside a batch).

Tracing: the ingress trace id (header-inherited or router-generated) rides
to the worker on ``X-Fairank-Trace``, so the worker's envelope ``timings``
carry the *same* trace id the router logs — one id spans both hops.  The
router reports its own forwarding time in the ``X-Fairank-Route-Ms``
response header of a per-kind request and relays the worker's body
byte-for-byte — it never decodes or re-encodes an envelope.
"""

from __future__ import annotations

import contextvars
import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.metrics import (
    MetricsRegistry,
    ParsedMetrics,
    get_registry,
    merge_parsed,
    parse_prometheus,
    render_parsed,
)
from repro.obs.trace import TRACE_HEADER, current_trace_id
from repro.server.http import (
    REQUEST_ENDPOINTS,
    V2ServerBase,
    _JSONRequestHandler,
    _slot_kind,
    _transport_error,
)
from repro.service.jobs import PROTOCOL_VERSION, ServiceResult
from repro.shard.pool import WorkerHandle, WorkerPool
from repro.shard.routing import (
    FingerprintIndex,
    request_references,
    routing_key,
    worker_slot,
)

__all__ = ["ROUTE_MS_HEADER", "ShardRouter"]

#: Response header carrying the router's forwarding time in milliseconds.
ROUTE_MS_HEADER = "X-Fairank-Route-Ms"

#: Transport-level failures that mean "this worker did not answer" (and the
#: request should be retried on another worker).  ``HTTPError`` is *not* one
#: of them: a 4xx/5xx from a worker is a served response and is relayed.
_TRANSPORT_FAILURES = (urllib.error.URLError, http.client.HTTPException, OSError)


class _RouterHandler(_JSONRequestHandler):
    """Routes v2 traffic onto the pool's workers."""

    server: "ShardRouter"

    def _serve_catalog(self) -> None:
        self._forward_and_relay("/v2/catalog", None, "GET", 0)

    def _forward_and_relay(
        self, path: str, body: Optional[bytes], method: str, slot: int
    ) -> None:
        try:
            status, relayed = self.server.forward(path, body, method, slot)
        except ServiceError as error:
            self._send_json(503, _transport_error("unavailable", str(error)))
            return
        self._send_raw(status, relayed)

    def _serve_kind(self, kind: str, path: str, raw: bytes) -> None:
        """Forward one per-kind request to its fingerprint-routed worker.

        The body is parsed only to *extract references* — it is forwarded
        verbatim, and the worker's response is relayed verbatim, so
        responses (including validation errors for malformed bodies) match
        single-process serving byte for byte; the only router addition is
        the ``X-Fairank-Route-Ms`` header.
        """
        slot = self.server.slot_for_body(raw)
        started = time.perf_counter()
        try:
            status, relayed = self.server.forward(path, raw, "POST", slot)
        except ServiceError as error:
            self._send_json(503, _transport_error("unavailable", str(error)))
            return
        route_ms = (time.perf_counter() - started) * 1000.0
        self.server.obs.request(
            "route",
            route_ms,
            trace_id=current_trace_id(),
            kind=kind,
            slot=slot,
            status=status,
        )
        self._send_raw(
            status, relayed, headers={ROUTE_MS_HEADER: f"{route_ms:.3f}"}
        )

    def _serve_batch(self, raw: bytes) -> None:
        """Split a batch by routing slot, fan out, reassemble in input order."""
        try:
            document = json.loads(raw) if raw else None
        except ValueError:
            document = None
        entries = document.get("requests") if isinstance(document, dict) else document
        if not isinstance(entries, list) or not entries:
            # Not a routable batch shape: forward verbatim so the worker
            # produces exactly the single-process validation error.
            self._forward_and_relay("/v2/batch", raw, "POST", 0)
            return
        groups: Dict[int, List[int]] = {}
        for index, entry in enumerate(entries):
            references = request_references(entry) if isinstance(entry, dict) else ()
            key = routing_key(references, self.server.fingerprints)
            groups.setdefault(worker_slot(key, self.server.pool.size), []).append(index)
        results: List[Optional[Dict[str, object]]] = [None] * len(entries)

        def run_group(slot: int, indices: List[int]) -> None:
            body = json.dumps(
                {"requests": [entries[index] for index in indices]}
            ).encode("utf-8")
            envelopes: Optional[List[Dict[str, object]]] = None
            try:
                status, relayed = self.server.forward("/v2/batch", body, "POST", slot)
                payload = json.loads(relayed)
                if status == 200 and isinstance(payload.get("results"), list):
                    group_results = payload["results"]
                    if len(group_results) == len(indices):
                        envelopes = group_results
            except (ServiceError, ValueError):
                envelopes = None
            if envelopes is None:
                envelopes = [
                    ServiceResult.failure(
                        _slot_kind(entries[index]), "unavailable",
                        "no worker was reachable for this batch slot",
                    ).to_json()
                    for index in indices
                ]
            for index, envelope in zip(indices, envelopes):
                results[index] = envelope

        # Each group runs in a copy of this handler's context, so the
        # active trace id reaches _send (and the worker's X-Fairank-Trace).
        with ThreadPoolExecutor(max_workers=min(len(groups), 16)) as fan_out:
            for slot, indices in groups.items():
                fan_out.submit(contextvars.copy_context().run, run_group, slot, indices)
        self._send_json(
            200, {"protocol": PROTOCOL_VERSION, "results": results}
        )


class ShardRouter(V2ServerBase):
    """Fingerprint-routing HTTP proxy over a :class:`WorkerPool`.

    Parameters
    ----------
    pool:
        The (already started) worker pool requests are routed onto.
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port (see ``.port``).
    fingerprints:
        The snapshot's ``(kind, name) -> fingerprint`` index
        (:func:`repro.snapshot.snapshot_fingerprints`); names missing from
        the index still route deterministically by name.
    forward_timeout_s:
        Socket timeout for one forwarded request (quantify searches over
        large populations can be slow cold).
    retry_window_s:
        How long a request keeps retrying when *no* worker is reachable
        (covers the pool's restart backoff for a single-worker fleet) before
        the router answers 503 itself.
    verbose:
        Emit a structured JSON log event for every request (stderr).
    slow_ms:
        Emit the structured event (marked ``"slow": true``) for any request
        at or above this many milliseconds, even without ``verbose``.
    """

    thread_name = "fairank-router"
    metrics_prefix = "fairank_router"

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        fingerprints: Optional[FingerprintIndex] = None,
        forward_timeout_s: float = 300.0,
        retry_window_s: float = 30.0,
        verbose: bool = False,
        slow_ms: Optional[float] = None,
    ) -> None:
        # Set once the router starts closing: interrupts the retry pacing of
        # any request still sweeping the fleet, so server_close()'s drain is
        # never stalled for the rest of a retry window.  Made before binding:
        # a failed bind runs server_close().
        self._stopping = threading.Event()
        super().__init__(host, port, _RouterHandler)
        self.pool = pool
        self.fingerprints: FingerprintIndex = dict(fingerprints or {})
        self.forward_timeout_s = forward_timeout_s
        self.retry_window_s = retry_window_s
        self.configure_observability(verbose=verbose, slow_ms=slow_ms)
        self._retried_forwards = 0

    def server_close(self) -> None:
        """Close the listener, interrupting any in-flight retry pauses first.

        ``server_close`` drains (it waits for every in-flight response); a
        handler pacing between fleet sweeps wakes immediately and answers
        503 instead of serving out up to ``retry_window_s`` of sleep.
        """
        self._stopping.set()
        super().server_close()

    # -- routing / forwarding --------------------------------------------------

    def slot_for_body(self, raw: bytes) -> int:
        """The routing slot for a request body (tolerant of malformed JSON)."""
        references: Tuple = ()
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        if isinstance(payload, dict):
            references = request_references(payload)
        return worker_slot(routing_key(references, self.fingerprints), self.pool.size)

    def _send(
        self,
        worker: WorkerHandle,
        path: str,
        body: Optional[bytes],
        method: str,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange with one worker (no retry).

        The active trace id (if any) travels on ``X-Fairank-Trace`` so the
        worker joins the router's trace instead of opening its own.
        """
        headers = {} if body is None else {"Content-Type": "application/json"}
        trace_id = current_trace_id()
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        request = urllib.request.Request(
            f"{worker.base_url}{path}", data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout_s or self.forward_timeout_s
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            # A non-2xx answer is a *served* response (error envelopes map to
            # 400/404/422/405); relay it instead of treating it as a failure.
            return error.code, error.read()

    def forward(
        self, path: str, body: Optional[bytes], method: str, preferred_slot: int
    ) -> Tuple[int, bytes]:
        """Forward to the preferred worker, retrying others on failure.

        Retries sweep the live candidates (preferred slot first); when the
        whole fleet is momentarily down (single worker mid-restart), the
        sweep repeats until ``retry_window_s`` elapses so the pool's
        restart-with-backoff can bring a worker back before the client sees
        an error.  Raises :class:`~repro.errors.ServiceError` when the
        window closes without an answer.
        """
        deadline = time.monotonic() + self.retry_window_s
        failures = 0
        while True:
            for worker in self.pool.candidates(preferred_slot):
                try:
                    status, relayed = self._send(worker, path, body, method)
                except _TRANSPORT_FAILURES:
                    failures += 1
                    with self._stats_lock:
                        self._retried_forwards += 1
                    get_registry().counter(
                        "fairank_router_retried_forwards_total",
                        "Forwards retried after a worker transport failure",
                    ).inc(slot=str(worker.slot))
                    self.obs.event(
                        "forward_retry",
                        path=path,
                        slot=worker.slot,
                        failures=failures,
                        trace_id=current_trace_id(),
                    )
                    self.pool.report_failure(worker)
                    continue
                return status, relayed
            if time.monotonic() >= deadline:
                self.obs.event(
                    "forward_unavailable",
                    path=path,
                    failures=failures,
                    trace_id=current_trace_id(),
                )
                raise ServiceError(
                    f"no worker answered {method} {path} within "
                    f"{self.retry_window_s:.0f}s ({failures} failed forward(s), "
                    f"{self.pool.alive_count}/{self.pool.size} workers alive)"
                )
            # Retry pacing between fleet sweeps; bounded by the retry-window
            # deadline above and holds no lock while paused.  Stop-aware: a
            # closing router wakes the pause instead of stalling the drain.
            if self._stopping.wait(timeout=0.05):
                self.obs.event(
                    "forward_abandoned",
                    path=path,
                    failures=failures,
                    trace_id=current_trace_id(),
                )
                raise ServiceError(
                    f"the router is shutting down; abandoned {method} {path} "
                    f"after {failures} failed forward(s)"
                )

    # -- observability ---------------------------------------------------------

    def _refresh_gauges(self, registry: MetricsRegistry) -> None:
        """Fleet gauges: live workers plus per-slot restart counts by reason."""
        super()._refresh_gauges(registry)
        registry.gauge(
            "fairank_router_workers_alive", "Workers currently answering"
        ).set(float(self.pool.alive_count))
        registry.gauge(
            "fairank_router_workers_total", "Configured worker slots"
        ).set(float(self.pool.size))
        restarts = registry.gauge(
            "fairank_router_worker_restarts", "Completed worker restarts by slot"
        )
        for slot in range(self.pool.size):
            restarts.set(float(self.pool.restarts(slot)), slot=str(slot))

    def metrics_text(self) -> str:
        """One Prometheus page for the whole fleet.

        The router's own families are namespaced ``fairank_router_*`` (plus
        the pool's ``fairank_worker_*`` lifecycle counters, which no worker
        emits), so merging them with the workers' pages cannot collide;
        identical series across workers (same family, same labels) sum,
        which is exactly the fleet-wide reading a scraper wants.  A worker
        that cannot be scraped (mid-restart) is skipped rather than failing
        the page.
        """
        registry = get_registry()
        self._refresh_gauges(registry)
        pages = [parse_prometheus(registry.render())]

        def scrape(slot: int) -> Optional[ParsedMetrics]:
            handle = self.pool.peek(slot)
            if handle is None:
                return None
            try:
                status, body = self._send(
                    handle, "/v2/metrics", None, "GET", timeout_s=5.0
                )
                if status != 200:
                    return None
                return parse_prometheus(body.decode("utf-8"))
            except (*_TRANSPORT_FAILURES, ValueError):
                return None

        with ThreadPoolExecutor(max_workers=self.pool.size) as scrapes:
            pages.extend(
                page for page in scrapes.map(scrape, range(self.pool.size)) if page
            )
        return render_parsed(merge_parsed(pages))

    # -- health ----------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Aggregate liveness + statistics across the fleet.

        ``status`` is ``ok`` only when every slot's worker answers its own
        health check; ``degraded`` while any slot is down or restarting
        (traffic still flows via retry), ``down`` when none answer.  The
        ``catalog`` counts are proxied from a live worker so the payload
        stays a superset of a single-process server's.
        """
        def probe(slot: int) -> Dict[str, object]:
            handle = self.pool.peek(slot)
            entry: Dict[str, object] = {
                "slot": slot,
                "alive": False,
                "restarts": self.pool.restarts(slot),
                "restart_reasons": self.pool.restart_reasons(slot),
            }
            if handle is None:
                return entry
            entry.update(handle.describe())
            entry["alive"] = False  # proven below by an actual answer
            try:
                # Short probe timeout: a hung worker must not stall the
                # aggregated health answer for the whole fleet.
                status, body = self._send(
                    handle, "/v2/health", None, "GET", timeout_s=5.0
                )
                payload = json.loads(body)
            except (*_TRANSPORT_FAILURES, ValueError):
                payload = None
                status = 0
            if status == 200 and isinstance(payload, dict):
                entry["alive"] = True
                entry["requests_served"] = payload.get("requests_served")
                entry["cache"] = payload.get("cache")
                entry["store_pool"] = payload.get("store_pool")
                counts = payload.get("catalog")
                if isinstance(counts, dict):
                    entry["_catalog"] = counts
            return entry

        # Probed concurrently so a wedged worker costs one probe timeout,
        # not one per slot.
        with ThreadPoolExecutor(max_workers=self.pool.size) as probes:
            worker_health = list(probes.map(probe, range(self.pool.size)))
        responding = sum(1 for entry in worker_health if entry["alive"])
        catalog_counts: Optional[Dict[str, object]] = None
        for entry in worker_health:
            counts = entry.pop("_catalog", None)
            if catalog_counts is None and counts is not None:
                catalog_counts = counts
        if responding == self.pool.size:
            status_label = "ok"
        elif responding:
            status_label = "degraded"
        else:
            status_label = "down"
        with self._stats_lock:
            retried = self._retried_forwards
        return {
            "status": status_label,
            "protocol": PROTOCOL_VERSION,
            "role": "shard-router",
            "uptime_s": self.uptime_s,
            "requests_served": self.requests_served,
            "retried_forwards": retried,
            "endpoints": list(REQUEST_ENDPOINTS)
            + ["batch", "catalog", "health", "metrics"],
            "routing": {
                "strategy": "resource-fingerprint",
                "fingerprints": len(self.fingerprints),
            },
            "workers": self.pool.describe() | {"health": worker_health},
            "catalog": catalog_counts or {},
        }
