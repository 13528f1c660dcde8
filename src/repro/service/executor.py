"""Parallel batch execution of service requests.

An auditor fanning one analysis out across jobs and platforms, or a panel
comparison re-running the search for many functions, is a *batch*: many
independent requests whose answers are wanted together.  The
:class:`BatchExecutor` runs such a batch over a thread pool:

* there is no CPU speed-up: the compute is mostly Python under the GIL, so
  the threads do not overlap it.  ``BENCH_service.json``'s
  ``batch_throughput`` measures a batch at or below serial speed (speedup
  under 1x on a 2-vCPU host).  What the pool does guarantee is the next
  two points;
* identical requests (same content fingerprint) are *deduplicated*: one
  computation is submitted and every duplicate shares its result.  The
  cache's single-flight ``get_or_compute`` additionally dedupes requests
  that are distinct objects but race to the same key;
* results are returned in input order, so a batch's output is deterministic
  and byte-identical to serial execution regardless of thread scheduling.
"""

from __future__ import annotations

import contextvars
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import FaiRankError
from repro.service.jobs import ServiceRequest, ServiceResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.service.service import FairnessService

__all__ = ["BatchExecutor", "default_max_workers"]


def default_max_workers() -> int:
    """Default thread-pool width (mirrors the stdlib's I/O-friendly default)."""
    return min(32, (os.cpu_count() or 1) + 4)


class BatchExecutor:
    """Runs batches of requests against one service, concurrently.

    Parameters
    ----------
    service:
        The :class:`~repro.service.service.FairnessService` that resolves and
        executes requests.
    max_workers:
        Thread-pool width; defaults to :func:`default_max_workers`.
    """

    def __init__(self, service: "FairnessService", max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.service = service
        self.max_workers = max_workers or default_max_workers()

    def run(self, requests: Sequence[ServiceRequest]) -> List[ServiceResult]:
        """Execute a batch concurrently; results come back in input order.

        Requests with the same content fingerprint are submitted once and
        share the resulting :class:`~repro.service.jobs.ServiceResult`.  A
        request whose key cannot even be computed (it references resources
        the service does not know) yields a protocol-v2 error envelope in
        its slot instead of failing the whole batch.
        """
        batch = list(requests)
        if not batch:
            return []
        keys: List[Optional[str]] = []
        failed: Dict[int, ServiceResult] = {}
        for index, request in enumerate(batch):
            try:
                keys.append(self.service.request_key(request))
            except FaiRankError as error:
                keys.append(None)
                failed[index] = self.service.error_result(request, error)
        first_of: Dict[str, ServiceRequest] = {}
        for key, request in zip(keys, batch):
            if key is not None:
                first_of.setdefault(key, request)
        futures: Dict[str, "Future[ServiceResult]"] = {}
        if first_of:
            workers = min(self.max_workers, len(first_of))
            submitted = time.perf_counter()

            def run_one(
                context: contextvars.Context, key: str, request: ServiceRequest
            ) -> ServiceResult:
                # The caller's context (active trace id, see repro.obs) rides
                # into the pool thread; the submit-to-start delta becomes the
                # envelope's queue_ms.
                queue_s = time.perf_counter() - submitted
                return context.run(self.service.execute, request, key, queue_s=queue_s)

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {
                    key: pool.submit(run_one, contextvars.copy_context(), key, request)
                    for key, request in first_of.items()
                }
        return [
            failed[index] if key is None else futures[key].result()
            for index, key in enumerate(keys)
        ]

    def run_serial(self, requests: Sequence[ServiceRequest]) -> List[ServiceResult]:
        """Execute a batch one request at a time (reference ordering/results)."""
        return [self.service.execute(request) for request in requests]
