"""An in-process client facade over the wire protocol.

Programmatic callers of the service used to hand-assemble request
dataclasses, call :meth:`~repro.service.service.FairnessService.execute` and
unpack the envelope themselves.  :class:`FairnessClient` is the ergonomic
front door: one method per request kind (``quantify``, ``audit``,
``compare``, ``breakdown``, ``sweep``, ``end_user``, ``job_owner``) that
builds the request, executes it through the service — so every call shares
the service's fingerprint-keyed cache and score-store pool with raw-request
and batch traffic — and returns the :class:`~repro.service.jobs.ServiceResult`.

By default an error envelope is raised as a
:class:`~repro.errors.ServiceError` (``raise_errors=False`` hands envelopes
back untouched, the behaviour a remote client would implement).

The seven-method surface lives on :class:`FairnessClientBase`, which is
transport-agnostic: subclasses only implement ``_run`` (how a built request
reaches a service).  :class:`FairnessClient` executes in-process;
:class:`repro.server.client.HTTPFairnessClient` POSTs the same requests to a
``fairank serve`` process — caller code is identical against either.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

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
)
from repro.service.service import FairnessService

__all__ = ["FairnessClient", "FairnessClientBase"]


class FairnessClientBase:
    """The shared per-kind client surface over wire protocol v2.

    Subclasses implement :meth:`_run`, which carries a built request to a
    :class:`FairnessService` (in-process, over HTTP, ...) and returns its
    :class:`~repro.service.jobs.ServiceResult`.  Request *construction* —
    and therefore request validation — always happens client-side, so every
    transport raises the same errors for malformed parameters.
    """

    #: When True (subclasses set it in their constructor) an error envelope
    #: raises :class:`~repro.errors.ServiceError` instead of being returned.
    raise_errors: bool = True

    def _run(self, request: ServiceRequest) -> ServiceResult:
        raise NotImplementedError("client subclasses implement _run")

    # -- one method per protocol-v2 request kind -------------------------------
    #
    # Each method takes its kind's required names positionally and forwards
    # every other field as a keyword to the request class, so defaults and
    # type checks live on the dataclass alone and an unknown keyword is the
    # constructor's TypeError.

    def quantify(self, dataset: str, function: str, **options: Any) -> ServiceResult:
        """One QUANTIFY search plus its unfairness breakdown.

        ``options``: the formulation fields, ``attributes``, ``max_depth``,
        ``min_partition_size`` and ``use_ranks_only`` of :class:`QuantifyRequest`.
        """
        return self._run(QuantifyRequest(dataset=dataset, function=function, **options))

    def audit(
        self, marketplace: str, job: Optional[str] = None, **options: Any
    ) -> ServiceResult:
        """The AUDITOR scenario over a marketplace (or one of its jobs).

        ``options``: the formulation fields, ``attributes`` and
        ``min_partition_size`` of :class:`AuditRequest`.
        """
        return self._run(AuditRequest(marketplace=marketplace, job=job, **options))

    def compare(
        self, dataset: str, functions: Sequence[str], **options: Any
    ) -> ServiceResult:
        """Quantify several scoring functions over one dataset and rank them.

        ``options``: the formulation fields, ``attributes``, ``max_depth`` and
        ``min_partition_size`` of :class:`CompareRequest`.
        """
        return self._run(CompareRequest(dataset=dataset, functions=functions, **options))

    def breakdown(self, dataset: str, function: str, **options: Any) -> ServiceResult:
        """Per-attribute unfairness of the first-level splits.

        ``options``: the formulation fields, ``attributes``,
        ``min_partition_size`` and ``use_ranks_only`` of :class:`BreakdownRequest`.
        """
        return self._run(BreakdownRequest(dataset=dataset, function=function, **options))

    def sweep(self, dataset: str, function: str, **options: Any) -> ServiceResult:
        """Weight sweep over a linear function (explicit vectors or auto grid).

        ``options``: ``steps``, ``weights`` (a list of ``{name: weight}``
        maps), the formulation fields, ``attributes``, ``max_depth`` and
        ``min_partition_size`` of :class:`SweepRequest`.
        """
        return self._run(SweepRequest(dataset=dataset, function=function, **options))

    def end_user(
        self,
        group: Mapping[str, object],
        marketplaces: Sequence[str],
        job: str,
        **options: Any,
    ) -> ServiceResult:
        """The END-USER scenario: one group, one job, several marketplaces.

        ``options``: the formulation fields of :class:`EndUserRequest`.
        """
        return self._run(
            EndUserRequest(group=group, marketplaces=marketplaces, job=job, **options)
        )

    def job_owner(self, marketplace: str, job: str, **options: Any) -> ServiceResult:
        """The JOB-OWNER scenario: sweep a job's weights, recommend a variant.

        ``options``: ``sweep_steps``, the formulation fields and
        ``min_partition_size`` of :class:`JobOwnerRequest`.
        """
        return self._run(JobOwnerRequest(marketplace=marketplace, job=job, **options))


class FairnessClient(FairnessClientBase):
    """Typed, per-kind entry points over an in-process :class:`FairnessService`.

    Parameters
    ----------
    service:
        The service every call executes against.
    raise_errors:
        When True (default) an error envelope raises
        :class:`~repro.errors.ServiceError`; when False the envelope is
        returned as-is and the caller inspects ``result.ok`` / ``result.error``.
    """

    def __init__(self, service: FairnessService, *, raise_errors: bool = True) -> None:
        self.service = service
        self.raise_errors = raise_errors

    def _run(self, request: ServiceRequest) -> ServiceResult:
        result = self.service.execute(request)
        if self.raise_errors:
            result.raise_for_error()
        return result
