"""Typed request/response objects — wire protocol v2 of the service.

A request references datasets, scoring functions and marketplaces *by the
name they are registered under* in the service's
:class:`~repro.catalog.Catalog`, so every request is a small,
JSON-serialisable value object.  ``to_json`` / ``from_json`` round-trip
losslessly (``from_json(to_json(r)) == r``), which is what lets a batch of
requests live in a file, a queue or an HTTP body.

**Protocol v2** adds a versioned envelope and three things v1 lacked:

* every ``to_json`` payload carries ``"protocol": 2``; ingestion is
  graceful — a payload without the field (or with ``protocol: 1``) is a v1
  request and parses identically, while versions this server does not speak
  are rejected with a clear error;
* :class:`ServiceResult` gains a structured ``error`` payload
  (``{"code", "message"}``) so a failed request travels the same envelope as
  a successful one instead of only raising server-side;
* three paper scenarios that v1 could not express over the wire:

  ==================  =====================================================
  kind                workload
  ==================  =====================================================
  ``quantify``        one QUANTIFY search plus its unfairness breakdown
  ``audit``           the AUDITOR scenario over a marketplace (or one job)
  ``compare``         one dataset, several scoring functions, ranked
  ``breakdown``       per-attribute unfairness of first-level splits
  ``sweep``           weight sweep over a linear function (JOB-OWNER core)
  ``end_user``        one group, one job, several marketplaces (END-USER)
  ``job_owner``       full job-owner variant exploration with a verdict
  ==================  =====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.core.formulations import Formulation
from repro.errors import ServiceError
from repro.metrics.histogram import DEFAULT_BINS

__all__ = [
    "PROTOCOL_VERSION",
    "QuantifyRequest",
    "AuditRequest",
    "CompareRequest",
    "BreakdownRequest",
    "SweepRequest",
    "EndUserRequest",
    "JobOwnerRequest",
    "ServiceRequest",
    "ServiceResult",
    "request_from_json",
    "request_references",
]

#: The protocol version this build speaks (and stamps on outgoing payloads).
PROTOCOL_VERSION = 2

#: Versions this server ingests.  v1 payloads simply lack the new request
#: kinds and the ``protocol`` field; their fields are a strict subset of v2.
_SUPPORTED_PROTOCOLS = (1, 2)

#: Weight vectors travel as ``{attribute: weight}`` JSON objects but are
#: normalised to sorted ``((attribute, weight), ...)`` pairs internally so
#: frozen requests stay comparable regardless of key order.
WeightVector = Tuple[Tuple[str, float], ...]

#: ``(kind, name)`` — one catalogue resource a request references.
Reference = Tuple[str, str]

#: Points of an automatic sweep when a request does not say.
_DEFAULT_SWEEP_STEPS = 5


def _optional_str_tuple(value: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    return tuple(str(item) for item in value)


def _normalise_weight_vectors(
    value: Optional[Sequence[Union[Mapping[str, float], Sequence[Tuple[str, float]]]]],
) -> Optional[Tuple[WeightVector, ...]]:
    """Canonicalise a sequence of weight maps to sorted pair tuples."""
    if value is None:
        return None
    vectors = []
    for entry in value:
        items = entry.items() if isinstance(entry, Mapping) else entry
        try:
            vectors.append(
                tuple(sorted((str(name), float(weight)) for name, weight in items))
            )
        except (TypeError, ValueError):
            raise ServiceError(
                "each weight vector must map attribute names to numeric weights, "
                f"got {entry!r}"
            ) from None
    return tuple(vectors)


def _normalise_group(
    value: Union[Mapping[str, object], Sequence[Tuple[str, object]]],
) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise an end-user group to sorted (attribute, value) pairs."""
    items = value.items() if isinstance(value, Mapping) else value
    return tuple(sorted(((str(name), v) for name, v in items), key=lambda p: p[0]))


@dataclass(frozen=True)
class _FormulationMixin:
    """Shared formulation fields (kept as plain strings for the wire).

    String validation is *not* duplicated here: ``formulation()`` is the one
    resolution path — :meth:`repro.core.formulations.Formulation.from_names`
    — shared with the CLI and the experiments harness, so every layer raises
    the same error message for a bad objective/aggregation/distance name.
    """

    objective: str = "most_unfair"
    aggregation: str = "average"
    distance: str = "emd"
    bins: int = DEFAULT_BINS

    def formulation(self) -> Formulation:
        """Materialise the formulation (validates the string fields)."""
        return Formulation.from_names(
            objective=self.objective,
            aggregation=self.aggregation,
            distance=self.distance,
            bins=self.bins,
        )

    def _formulation_json(self) -> Dict[str, object]:
        return {
            "objective": self.objective,
            "aggregation": self.aggregation,
            "distance": self.distance,
            "bins": self.bins,
        }

    @classmethod
    def _formulation_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, object]:
        return {
            "objective": str(payload.get("objective", "most_unfair")),
            "aggregation": str(payload.get("aggregation", "average")),
            "distance": str(payload.get("distance", "emd")),
            "bins": int(payload.get("bins", DEFAULT_BINS)),  # type: ignore[arg-type]
        }

    def _envelope(self) -> Dict[str, object]:
        return {"protocol": PROTOCOL_VERSION, "kind": self.kind}  # type: ignore[attr-defined]


@dataclass(frozen=True)
class QuantifyRequest(_FormulationMixin):
    """Run the QUANTIFY search for one (dataset, function) configuration."""

    kind: ClassVar[str] = "quantify"

    dataset: str = ""
    function: str = ""
    attributes: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1
    use_ranks_only: bool = False

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a quantify request needs a dataset name")
        if not self.function:
            raise ServiceError("a quantify request needs a scoring-function name")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({"dataset": self.dataset, "function": self.function})
        payload.update(self._formulation_json())
        payload.update(
            {
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "max_depth": self.max_depth,
                "min_partition_size": self.min_partition_size,
                "use_ranks_only": self.use_ranks_only,
            }
        )
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "QuantifyRequest":
        return cls(
            dataset=str(payload["dataset"]),
            function=str(payload["function"]),
            attributes=_optional_str_tuple(payload.get("attributes")),  # type: ignore[arg-type]
            max_depth=(
                None if payload.get("max_depth") is None
                else int(payload["max_depth"])  # type: ignore[arg-type]
            ),
            min_partition_size=int(payload.get("min_partition_size", 1)),  # type: ignore[arg-type]
            use_ranks_only=bool(payload.get("use_ranks_only", False)),
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class AuditRequest(_FormulationMixin):
    """Audit a whole marketplace (or one of its jobs): the AUDITOR scenario."""

    kind: ClassVar[str] = "audit"

    marketplace: str = ""
    job: Optional[str] = None
    attributes: Optional[Tuple[str, ...]] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.marketplace:
            raise ServiceError("an audit request needs a marketplace name")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({"marketplace": self.marketplace, "job": self.job})
        payload.update(self._formulation_json())
        payload.update(
            {
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "min_partition_size": self.min_partition_size,
            }
        )
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "AuditRequest":
        return cls(
            marketplace=str(payload["marketplace"]),
            job=None if payload.get("job") is None else str(payload["job"]),
            attributes=_optional_str_tuple(payload.get("attributes")),  # type: ignore[arg-type]
            min_partition_size=int(payload.get("min_partition_size", 1)),  # type: ignore[arg-type]
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class CompareRequest(_FormulationMixin):
    """Quantify several scoring functions over one dataset and rank them."""

    kind: ClassVar[str] = "compare"

    dataset: str = ""
    functions: Tuple[str, ...] = ()
    attributes: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a compare request needs a dataset name")
        object.__setattr__(self, "functions", tuple(str(f) for f in self.functions))
        if len(self.functions) < 1:
            raise ServiceError("a compare request needs at least one scoring function")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({"dataset": self.dataset, "functions": list(self.functions)})
        payload.update(self._formulation_json())
        payload.update(
            {
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "max_depth": self.max_depth,
                "min_partition_size": self.min_partition_size,
            }
        )
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "CompareRequest":
        return cls(
            dataset=str(payload["dataset"]),
            functions=tuple(
                str(f) for f in payload.get("functions", ())  # type: ignore[union-attr]
            ),
            attributes=_optional_str_tuple(payload.get("attributes")),  # type: ignore[arg-type]
            max_depth=(
                None if payload.get("max_depth") is None
                else int(payload["max_depth"])  # type: ignore[arg-type]
            ),
            min_partition_size=int(payload.get("min_partition_size", 1)),  # type: ignore[arg-type]
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class BreakdownRequest(_FormulationMixin):
    """Per-attribute unfairness: how unfair is each first-level split alone?

    The first step of QUANTIFY ranks protected attributes by how unfair the
    single-attribute partitioning of the whole population is; this request
    serves that ranking directly (the "which attribute drives the bias"
    question an auditor asks before running the full search).
    """

    kind: ClassVar[str] = "breakdown"

    dataset: str = ""
    function: str = ""
    attributes: Optional[Tuple[str, ...]] = None
    min_partition_size: int = 1
    use_ranks_only: bool = False

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a breakdown request needs a dataset name")
        if not self.function:
            raise ServiceError("a breakdown request needs a scoring-function name")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({"dataset": self.dataset, "function": self.function})
        payload.update(self._formulation_json())
        payload.update(
            {
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "min_partition_size": self.min_partition_size,
                "use_ranks_only": self.use_ranks_only,
            }
        )
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "BreakdownRequest":
        return cls(
            dataset=str(payload["dataset"]),
            function=str(payload["function"]),
            attributes=_optional_str_tuple(payload.get("attributes")),  # type: ignore[arg-type]
            min_partition_size=int(payload.get("min_partition_size", 1)),  # type: ignore[arg-type]
            use_ranks_only=bool(payload.get("use_ranks_only", False)),
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SweepRequest(_FormulationMixin):
    """Weight sweep over a linear scoring function (the JOB-OWNER core loop).

    Either an explicit list of weight vectors (``weights``) or an automatic
    ``steps``-point sweep over the base function's attributes.  An explicit
    vector fully specifies a variant's weights (normalized server-side;
    attributes it omits get weight 0 — vectors are *not* merged into the
    base function's weights).  The service evaluates every point with one
    materialized scoring pass per vector, shared between the summary
    statistics, the QUANTIFY search and the unfairness breakdown via the
    score-store pool.
    """

    kind: ClassVar[str] = "sweep"

    dataset: str = ""
    function: str = ""
    steps: int = _DEFAULT_SWEEP_STEPS
    weights: Optional[Tuple[WeightVector, ...]] = None
    attributes: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a sweep request needs a dataset name")
        if not self.function:
            raise ServiceError("a sweep request needs a scoring-function name")
        object.__setattr__(self, "weights", _normalise_weight_vectors(self.weights))
        if self.weights is not None:
            if not self.weights:
                raise ServiceError(
                    "a sweep request with explicit weights needs at least one vector"
                )
            # Explicit vectors make ``steps`` meaningless; one value keeps
            # equal sweeps' JSON (and so their cache keys) equal.
            object.__setattr__(self, "steps", _DEFAULT_SWEEP_STEPS)
        elif self.steps < 2:
            raise ServiceError(f"an automatic sweep needs at least 2 steps, got {self.steps}")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))

    @property
    def weight_maps(self) -> Optional[Tuple[Dict[str, float], ...]]:
        """The explicit weight vectors as plain dicts (None for automatic)."""
        if self.weights is None:
            return None
        return tuple(dict(vector) for vector in self.weights)

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update({"dataset": self.dataset, "function": self.function})
        payload.update(self._formulation_json())
        payload.update(
            {
                "steps": self.steps,
                "weights": (
                    None if self.weights is None
                    else [dict(vector) for vector in self.weights]
                ),
                "attributes": list(self.attributes) if self.attributes is not None else None,
                "max_depth": self.max_depth,
                "min_partition_size": self.min_partition_size,
            }
        )
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "SweepRequest":
        return cls(
            dataset=str(payload["dataset"]),
            function=str(payload["function"]),
            steps=int(payload.get("steps", _DEFAULT_SWEEP_STEPS)),  # type: ignore[arg-type]
            weights=_normalise_weight_vectors(payload.get("weights")),  # type: ignore[arg-type]
            attributes=_optional_str_tuple(payload.get("attributes")),  # type: ignore[arg-type]
            max_depth=(
                None if payload.get("max_depth") is None
                else int(payload["max_depth"])  # type: ignore[arg-type]
            ),
            min_partition_size=int(payload.get("min_partition_size", 1)),  # type: ignore[arg-type]
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class EndUserRequest(_FormulationMixin):
    """The END-USER scenario: one group, one job, several marketplaces."""

    kind: ClassVar[str] = "end_user"

    group: Tuple[Tuple[str, object], ...] = ()
    marketplaces: Tuple[str, ...] = ()
    job: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", _normalise_group(self.group))
        if not self.group:
            raise ServiceError(
                "an end-user request needs at least one protected-attribute value"
            )
        object.__setattr__(
            self, "marketplaces", tuple(str(m) for m in self.marketplaces)
        )
        if not self.marketplaces:
            raise ServiceError("an end-user request needs at least one marketplace name")
        if not self.job:
            raise ServiceError("an end-user request needs a job title")

    @property
    def group_map(self) -> Dict[str, object]:
        """The group as a plain ``{attribute: value}`` dict."""
        return dict(self.group)

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update(
            {
                "group": dict(self.group),
                "marketplaces": list(self.marketplaces),
                "job": self.job,
            }
        )
        payload.update(self._formulation_json())
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "EndUserRequest":
        return cls(
            group=_normalise_group(payload["group"]),  # type: ignore[arg-type]
            marketplaces=tuple(
                str(m) for m in payload.get("marketplaces", ())  # type: ignore[union-attr]
            ),
            job=str(payload.get("job", "")),
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class JobOwnerRequest(_FormulationMixin):
    """The JOB-OWNER scenario: sweep one job's weights and recommend a variant."""

    kind: ClassVar[str] = "job_owner"

    marketplace: str = ""
    job: str = ""
    sweep_steps: int = 5
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.marketplace:
            raise ServiceError("a job-owner request needs a marketplace name")
        if not self.job:
            raise ServiceError("a job-owner request needs a job title")
        if self.sweep_steps < 2:
            raise ServiceError(
                f"a job-owner sweep needs at least 2 steps, got {self.sweep_steps}"
            )

    def to_json(self) -> Dict[str, object]:
        payload = self._envelope()
        payload.update(
            {
                "marketplace": self.marketplace,
                "job": self.job,
                "sweep_steps": self.sweep_steps,
                "min_partition_size": self.min_partition_size,
            }
        )
        payload.update(self._formulation_json())
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "JobOwnerRequest":
        return cls(
            marketplace=str(payload["marketplace"]),
            job=str(payload["job"]),
            sweep_steps=int(payload.get("sweep_steps", 5)),  # type: ignore[arg-type]
            min_partition_size=int(payload.get("min_partition_size", 1)),  # type: ignore[arg-type]
            **cls._formulation_kwargs(payload),  # type: ignore[arg-type]
        )


ServiceRequest = Union[
    QuantifyRequest,
    AuditRequest,
    CompareRequest,
    BreakdownRequest,
    SweepRequest,
    EndUserRequest,
    JobOwnerRequest,
]

_REQUEST_KINDS: Dict[str, Type[ServiceRequest]] = {
    QuantifyRequest.kind: QuantifyRequest,
    AuditRequest.kind: AuditRequest,
    CompareRequest.kind: CompareRequest,
    BreakdownRequest.kind: BreakdownRequest,
    SweepRequest.kind: SweepRequest,
    EndUserRequest.kind: EndUserRequest,
    JobOwnerRequest.kind: JobOwnerRequest,
}


def request_references(payload: Mapping[str, object]) -> Tuple[Reference, ...]:
    """The catalogue resources a request payload references, sorted.

    Works on the ``to_json`` form, so the service's request keys, the CLI's
    resolution check and the shard router's fingerprint routing all read
    references the same way.  Tolerant by design: unknown fields are
    ignored and nothing is validated, so the router can compute a slot for
    *any* body and leave rejection to the worker.  The request ``kind`` is
    deliberately not part of the result: a ``quantify``, ``breakdown`` and
    ``sweep`` over the same (dataset, function) pair should share one
    worker's score store.
    """
    references = set()
    for field_name, kind in (("dataset", "dataset"), ("function", "function"),
                             ("marketplace", "marketplace")):
        value = payload.get(field_name)
        if isinstance(value, str) and value:
            references.add((kind, value))
    for field_name, kind in (("functions", "function"), ("marketplaces", "marketplace")):
        value = payload.get(field_name)
        if isinstance(value, (list, tuple)):
            for name in value:
                if isinstance(name, str) and name:
                    references.add((kind, name))
    return tuple(sorted(references))


def request_from_json(payload: Mapping[str, object]) -> ServiceRequest:
    """Rebuild any request from its ``to_json`` form (dispatch on ``kind``).

    Payloads without a ``protocol`` field are treated as protocol v1 (the
    pre-envelope wire format, whose fields are a strict subset of v2), so
    existing batch files keep executing unchanged.  Protocol versions this
    build does not speak are rejected up front.
    """
    try:
        raw_protocol = payload.get("protocol", 1)
    except AttributeError:
        raise ServiceError("a request payload must be a JSON object") from None
    try:
        protocol = int(raw_protocol)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ServiceError(f"invalid protocol version {raw_protocol!r}") from None
    if protocol not in _SUPPORTED_PROTOCOLS:
        raise ServiceError(
            f"unsupported protocol version {protocol}; this server speaks "
            f"{', '.join(str(v) for v in _SUPPORTED_PROTOCOLS)}"
        )
    try:
        kind = payload["kind"]
    except (KeyError, TypeError):
        raise ServiceError(
            "a request payload needs a 'kind' field "
            f"(one of {', '.join(sorted(_REQUEST_KINDS))})"
        ) from None
    try:
        request_type = _REQUEST_KINDS[str(kind)]
    except KeyError:
        raise ServiceError(
            f"unknown request kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_REQUEST_KINDS))}"
        ) from None
    try:
        return request_type.from_json(payload)
    except KeyError as missing:
        raise ServiceError(
            f"{kind} request payload is missing required field {missing.args[0]!r}"
        ) from None


@dataclass(frozen=True)
class ServiceResult:
    """Uniform response envelope for every request kind.

    ``payload`` is a plain-JSON tree (only dicts/lists/strings/numbers/bools/
    None), so a result can be shipped over any transport.  ``canonical()``
    serialises the semantic content — kind, key, payload and (when present)
    the error — with sorted keys, so two results are byte-comparable
    regardless of whether they were computed, cached, or ran in a batch.

    Protocol v2 additions: ``protocol`` stamps the envelope version, and a
    failed request carries a structured ``error`` (``{"code", "message"}``,
    with the code derived from the library's exception hierarchy, e.g.
    ``"service"`` for a :class:`~repro.errors.ServiceError`) instead of only
    raising server-side — a batch with one bad request still returns a
    result per request.

    ``store_stats`` is serving metadata: a snapshot of the service's
    score-store pool (materialized scoring passes, histogram hits/misses,
    store reuse) taken when the response was assembled, so clients can watch
    the compute-once layer work without a separate monitoring call.

    ``timings`` is per-request observability metadata (:mod:`repro.obs`):
    the request's trace id plus a phase breakdown in milliseconds
    (``key_ms``, ``compute_ms``, ``score_ms``, ``cache_ms``, ``queue_ms``
    for batched requests).  The shard router reports its forwarding time
    in the ``X-Fairank-Route-Ms`` response header instead, so relayed
    envelopes stay byte-for-byte what the worker encoded.  Like
    ``elapsed_s`` and ``store_stats`` it is *excluded* from ``canonical()``
    — two envelopes with different timings still compare byte-identical
    on semantic content.

    ``payload_json`` is the encode-once form: the service builds results
    from the immutable ``json.dumps(payload)`` bytes its cache holds, and
    ``payload`` is then decoded lazily on first read into a tree private
    to this result (mutating it never reaches the cache).  :meth:`encode`
    splices those bytes into the wire body without decoding or
    re-encoding them.  Leave ``payload`` at its default when passing
    ``payload_json``: the bytes are the payload.
    """

    kind: str
    key: str
    payload: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    elapsed_s: float = 0.0
    store_stats: Optional[Dict[str, Any]] = None
    timings: Optional[Dict[str, Any]] = None
    protocol: int = PROTOCOL_VERSION
    error: Optional[Dict[str, Any]] = None
    payload_json: Optional[bytes] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_json is not None:
            # Dropped so the first read of ``payload`` falls through to
            # __getattr__, which decodes the bytes.
            object.__delattr__(self, "payload")

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal lookup fails: ``payload`` of a result
        # built from bytes that nobody has read yet.  Two threads racing
        # here each decode an equal tree; either one may win.
        if name != "payload" or self.payload_json is None:
            raise AttributeError(name)
        payload = json.loads(self.payload_json)
        object.__setattr__(self, "payload", payload)
        return payload

    @property
    def ok(self) -> bool:
        """True when the request was served successfully."""
        return self.error is None

    def raise_for_error(self) -> "ServiceResult":
        """Raise :class:`~repro.errors.ServiceError` for an error result."""
        if self.error is not None:
            raise ServiceError(
                f"{self.kind} request failed "
                f"[{self.error.get('code', 'error')}]: {self.error.get('message', '')}"
            )
        return self

    def canonical(self) -> str:
        """Deterministic JSON of the semantic content (excludes metadata)."""
        content: Dict[str, object] = {
            "kind": self.kind, "key": self.key, "payload": self.payload,
        }
        if self.error is not None:
            content["error"] = self.error
        return json.dumps(content, sort_keys=True)

    def to_json(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "kind": self.kind,
            "key": self.key,
            "payload": self.payload,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "store_stats": self.store_stats,
            "timings": self.timings,
            "error": self.error,
        }

    def encode(self) -> bytes:
        """The wire body: exactly ``json.dumps(self.to_json()).encode()``.

        The payload bytes are spliced between the encoded envelope fields,
        so a result built from ``payload_json`` is never decoded or
        re-encoded here; only the small envelope fields are.
        """
        payload = self.payload_json
        if payload is None:
            payload = json.dumps(self.payload).encode("utf-8")
        head = json.dumps(
            {"protocol": self.protocol, "kind": self.kind, "key": self.key}
        )
        tail = json.dumps(
            {
                "cached": self.cached,
                "elapsed_s": self.elapsed_s,
                "store_stats": self.store_stats,
                "timings": self.timings,
                "error": self.error,
            }
        )
        # json.dumps joins members with ", " and keys with ": ": drop the
        # head's closing brace and the tail's opening one, and splice.
        return b"".join(
            (
                head[:-1].encode("utf-8"),
                b', "payload": ',
                payload,
                b", ",
                tail[1:].encode("utf-8"),
            )
        )

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ServiceResult":
        store_stats = payload.get("store_stats")
        timings = payload.get("timings")
        error = payload.get("error")
        return cls(
            kind=str(payload["kind"]),
            key=str(payload["key"]),
            payload=dict(payload.get("payload", {})),  # type: ignore[arg-type]
            cached=bool(payload.get("cached", False)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),  # type: ignore[arg-type]
            store_stats=(
                None if store_stats is None else dict(store_stats)  # type: ignore[arg-type]
            ),
            timings=None if timings is None else dict(timings),  # type: ignore[arg-type]
            protocol=int(payload.get("protocol", 1)),  # type: ignore[arg-type]
            error=None if error is None else dict(error),  # type: ignore[arg-type]
        )
