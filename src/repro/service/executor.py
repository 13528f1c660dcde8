"""Batch execution of service requests.

An auditor fanning one analysis out across jobs and platforms, or a panel
comparison re-running the search for many functions, is a *batch*: many
independent requests whose answers are wanted together.  The
:class:`BatchExecutor` runs such a batch one request at a time, in the
caller's thread:

* there is no thread pool: the compute is mostly Python under the GIL, so
  threads would not overlap it, and parallelism comes from processes
  (``fairank serve --workers N``).  The caller's active trace (see
  :mod:`repro.obs`) covers every slot without a context hop;
* identical requests (same request key) are *deduplicated*: one
  computation runs and every duplicate slot shares its result object;
* results are returned in input order, byte-identical to
  :meth:`BatchExecutor.run_serial`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.errors import FaiRankError
from repro.service.jobs import ServiceRequest, ServiceResult, error_code

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.service.service import FairnessService

__all__ = ["BatchExecutor"]


class BatchExecutor:
    """Runs batches of requests against one service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.service.FairnessService` that resolves and
        executes requests.
    """

    def __init__(self, service: "FairnessService") -> None:
        self.service = service

    def run(self, requests: Sequence[ServiceRequest]) -> List[ServiceResult]:
        """Execute a batch; results come back in input order.

        Requests with the same request key run once and share the resulting
        :class:`~repro.service.jobs.ServiceResult`.  A request whose key
        cannot even be computed (it references resources the service does
        not know) yields a protocol-v2 error envelope in its slot instead of
        failing the whole batch.  Each computed slot's ``queue_ms`` is the
        time from the start of the batch to the start of its execution.
        """
        started = time.perf_counter()
        results: List[ServiceResult] = []
        by_key: Dict[str, ServiceResult] = {}
        for request in requests:
            try:
                key = self.service.request_key(request)
            except FaiRankError as error:
                results.append(
                    ServiceResult.failure(request.kind, error_code(error), str(error))
                )
                continue
            if key not in by_key:
                queue_s = time.perf_counter() - started
                by_key[key] = self.service.execute(request, key, queue_s=queue_s)
            results.append(by_key[key])
        return results

    def run_serial(self, requests: Sequence[ServiceRequest]) -> List[ServiceResult]:
        """Execute a batch one request at a time (reference ordering/results)."""
        return [self.service.execute(request) for request in requests]
