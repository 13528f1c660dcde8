"""Typed request/response objects — wire protocol v2 of the service.

A request references datasets, scoring functions and marketplaces *by the
name they are registered under* in the service's
:class:`~repro.catalog.Catalog`, so every request is a small,
JSON-serialisable value object, which is what lets a batch of requests
live in a file, a queue or an HTTP body.

**One codec.**  A request kind is its frozen dataclass and nothing more:
fields, defaults and the checks that belong to that kind alone.
:class:`ServiceRequest` derives the wire form from ``dataclasses.fields()``
and the field annotations:

* ``to_json`` is ``{"protocol", "kind"}`` plus every field;
* ``from_json`` takes a missing optional field's dataclass default, ignores
  unknown fields and hands the rest to the constructor;
* the constructor checks every value once against its annotation's JSON
  type and normalises it (lists become tuples, weight vectors and groups
  are sorted), so Python-side and JSON-side construction share one path
  and ``from_json(to_json(r)) == r``.  A wrong type is a
  :class:`~repro.errors.ServiceError` naming the kind, the field, the
  expected and the found JSON type;
* a field declared without a default is required: absent from a payload
  it is a "missing required field" error, and empty it is a "needs ..."
  error.

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

import functools
import json
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.formulations import Formulation
from repro.errors import ServiceError
from repro.metrics.histogram import DEFAULT_BINS, MAX_BINS
from repro.obs.trace import Trace, current_trace_id

__all__ = [
    "MAX_SWEEP_POINTS",
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
    "error_code",
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

#: The field types the codec knows (see ``_FIELD_CODECS``).
Names = Tuple[str, ...]
WeightVectors = Tuple[WeightVector, ...]
#: An end-user group: sorted ``((attribute, value), ...)`` pairs.
Group = Tuple[Tuple[str, object], ...]

#: ``(kind, name)`` — one catalogue resource a request references.
Reference = Tuple[str, str]

#: Points of an automatic sweep when a request does not say.
_DEFAULT_SWEEP_STEPS = 5

#: The most points one request fans out to, each a full QUANTIFY or job
#: assessment: bounds a sweep's ``steps``, a job owner's
#: ``sweep_steps``, the number of explicit ``weights`` vectors, a compare's
#: ``functions`` and an end user's ``marketplaces`` alike.
MAX_SWEEP_POINTS = 64

#: What an empty required field leaves a request without.
_REQUIRED_NOUNS = {
    "dataset": "a dataset name",
    "function": "a scoring-function name",
    "functions": "at least one scoring function",
    "marketplace": "a marketplace name",
    "marketplaces": "at least one marketplace name",
    "job": "a job title",
    "group": "at least one protected-attribute value",
}

#: ``(minimum or None, maximum or None)`` a field accepts, checked at decode
#: so a request outside its bounds never gets a key or reaches compute.  An
#: integer field is bounded by its value, an array field by its length.
_BOUNDS: Dict[str, Tuple[Optional[int], Optional[int]]] = {
    "max_depth": (1, None),
    "min_partition_size": (1, None),
    "bins": (1, MAX_BINS),
    "steps": (None, MAX_SWEEP_POINTS),
    "sweep_steps": (None, MAX_SWEEP_POINTS),
    "weights": (None, MAX_SWEEP_POINTS),
    "functions": (None, MAX_SWEEP_POINTS),
    "marketplaces": (None, MAX_SWEEP_POINTS),
}


class _WrongType(Exception):
    """A value does not have its field's JSON type; the message is what was found."""


def _json_type(value: object) -> str:
    """The JSON type name of a value (its Python type name if it has none)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "array"
    if isinstance(value, Mapping):
        return "object"
    return type(value).__name__


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_bool(value: object) -> bool:
    return isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def _as_is(is_type: Callable[[object], bool]) -> Callable[[object], Any]:
    """A codec for a JSON scalar that ``is_type`` accepts unchanged."""

    def decode(value: object) -> Any:
        if not is_type(value):
            raise _WrongType(_json_type(value))
        return value

    return decode


def _array_of(item: Callable[[object], Any]) -> Callable[[object], Tuple[Any, ...]]:
    """A codec for a JSON array (or tuple) whose items pass ``item``."""

    def decode(value: object) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise _WrongType(_json_type(value))
        try:
            return tuple(item(entry) for entry in value)
        except _WrongType as wrong:
            raise _WrongType(f"an array holding {wrong}") from None

    return decode


def _object_pairs(
    value: object, is_item: Callable[[object], bool]
) -> Tuple[Tuple[str, Any], ...]:
    """A ``{name: item}`` object, or its normalised pair tuple, as pairs."""
    if isinstance(value, Mapping):
        pairs = tuple(value.items())
    elif isinstance(value, tuple) and all(
        isinstance(pair, tuple) and len(pair) == 2 for pair in value
    ):
        pairs = value
    else:
        raise _WrongType(_json_type(value))
    for name, item in pairs:
        if not isinstance(name, str):
            raise _WrongType(f"an object with a {_json_type(name)} key")
        if not is_item(item):
            raise _WrongType(f"an object holding {_json_type(item)}")
    return pairs


def _weight_vector(value: object) -> WeightVector:
    pairs = _object_pairs(value, _is_number)
    return tuple(sorted((name, float(weight)) for name, weight in pairs))


def _group(value: object) -> Group:
    return tuple(sorted(_object_pairs(value, _is_scalar), key=lambda pair: pair[0]))


def _same(value: Any) -> Any:
    return value


class _Codec(NamedTuple):
    """How one field type is checked on the way in and written on the way out."""

    expected: str
    decode: Callable[[object], Any]
    encode: Callable[[Any], object]


#: Field annotation -> its codec.  ``Optional[...]`` of any of these also
#: takes ``null``.
_FIELD_CODECS: Dict[object, _Codec] = {
    str: _Codec("a string", _as_is(_is_str), _same),
    int: _Codec("an integer", _as_is(_is_integer), _same),
    bool: _Codec("true or false", _as_is(_is_bool), _same),
    Names: _Codec("an array of strings", _array_of(_as_is(_is_str)), list),
    WeightVectors: _Codec(
        "an array of weight vectors ({name: number} objects)",
        _array_of(_weight_vector),
        lambda vectors: [dict(vector) for vector in vectors],
    ),
    Group: _Codec("an object of JSON scalars", _group, dict),
}


class _Field(NamedTuple):
    name: str
    codec: _Codec
    #: The annotation is ``Optional[...]``: ``null`` is a value.
    optional: bool
    #: Declared without a default: must be present and non-empty.
    required: bool


@functools.lru_cache(maxsize=None)
def _schema(request_type: type) -> Tuple[_Field, ...]:
    """The codec of every field of a request class, in declaration order."""
    hints = get_type_hints(request_type)
    schema = []
    for spec in fields(request_type):
        annotation = hints[spec.name]
        optional = get_origin(annotation) is Union and type(None) in get_args(annotation)
        if optional:
            (annotation,) = [a for a in get_args(annotation) if a is not type(None)]
        schema.append(
            _Field(
                name=spec.name,
                codec=_FIELD_CODECS[annotation],
                optional=optional,
                required=spec.default is MISSING and spec.default_factory is MISSING,
            )
        )
    return tuple(schema)


@dataclass(frozen=True, kw_only=True)
class ServiceRequest:
    """Base of every request kind: the formulation fields and the one codec.

    The formulation fields stay plain strings for the wire.  String
    validation is *not* duplicated here: ``formulation()`` is the one
    resolution path — :meth:`repro.core.formulations.Formulation.from_names`
    — shared with the CLI and the experiments harness, so every layer raises
    the same error message for a bad objective/aggregation/distance name.
    """

    kind: ClassVar[str]

    objective: str = "most_unfair"
    aggregation: str = "average"
    distance: str = "emd"
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        for spec in _schema(type(self)):
            value = getattr(self, spec.name)
            if value is None and spec.optional:
                continue
            try:
                decoded = spec.codec.decode(value)
            except _WrongType as wrong:
                expected = spec.codec.expected
                if spec.optional:
                    expected = f"null or {expected}"
                raise ServiceError(
                    f"{self.kind} request field {spec.name!r} must be {expected}, "
                    f"got {wrong}"
                ) from None
            if spec.required and not decoded:
                raise ServiceError(
                    f"{self.kind} request needs {_REQUIRED_NOUNS[spec.name]}"
                )
            minimum, maximum = _BOUNDS.get(spec.name, (None, None))
            sized = isinstance(decoded, tuple)
            measure = len(decoded) if sized else decoded
            if (minimum is not None and measure < minimum) or (
                maximum is not None and measure > maximum
            ):
                if maximum is None:
                    bound = f">= {minimum}"
                elif minimum is None:
                    bound = f"<= {maximum}"
                else:
                    bound = f"in [{minimum}, {maximum}]"
                raise ServiceError(
                    f"{self.kind} request field {spec.name!r} must "
                    f"{'have length' if sized else 'be'} {bound}, got {measure}"
                )
            if decoded is not value:
                object.__setattr__(self, spec.name, decoded)

    def formulation(self) -> Formulation:
        """Materialise the formulation (validates the string fields)."""
        return Formulation.from_names(
            objective=self.objective,
            aggregation=self.aggregation,
            distance=self.distance,
            bins=self.bins,
        )

    def to_json(self) -> Dict[str, object]:
        """``{"protocol", "kind"}`` plus every field, as plain JSON values."""
        payload: Dict[str, object] = {"protocol": PROTOCOL_VERSION, "kind": self.kind}
        for spec in _schema(type(self)):
            value = getattr(self, spec.name)
            payload[spec.name] = None if value is None else spec.codec.encode(value)
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ServiceRequest":
        """Build the request a ``to_json``-form payload describes."""
        values = {}
        for spec in _schema(cls):
            if spec.name in payload:
                values[spec.name] = payload[spec.name]
            elif spec.required:
                raise ServiceError(
                    f"{cls.kind} request payload is missing required field "
                    f"{spec.name!r}"
                )
        return cls(**values)


@dataclass(frozen=True, kw_only=True)
class QuantifyRequest(ServiceRequest):
    """Run the QUANTIFY search for one (dataset, function) configuration."""

    kind: ClassVar[str] = "quantify"

    dataset: str
    function: str
    attributes: Optional[Names] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1
    use_ranks_only: bool = False


@dataclass(frozen=True, kw_only=True)
class AuditRequest(ServiceRequest):
    """Audit a whole marketplace (or one of its jobs): the AUDITOR scenario."""

    kind: ClassVar[str] = "audit"

    marketplace: str
    job: Optional[str] = None
    attributes: Optional[Names] = None
    min_partition_size: int = 1


@dataclass(frozen=True, kw_only=True)
class CompareRequest(ServiceRequest):
    """Quantify several scoring functions over one dataset and rank them."""

    kind: ClassVar[str] = "compare"

    dataset: str
    functions: Names
    attributes: Optional[Names] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1


@dataclass(frozen=True, kw_only=True)
class BreakdownRequest(ServiceRequest):
    """Per-attribute unfairness: how unfair is each first-level split alone?

    The first step of QUANTIFY ranks protected attributes by how unfair the
    single-attribute partitioning of the whole population is; this request
    serves that ranking directly (the "which attribute drives the bias"
    question an auditor asks before running the full search).
    """

    kind: ClassVar[str] = "breakdown"

    dataset: str
    function: str
    attributes: Optional[Names] = None
    min_partition_size: int = 1
    use_ranks_only: bool = False


@dataclass(frozen=True, kw_only=True)
class SweepRequest(ServiceRequest):
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

    dataset: str
    function: str
    steps: int = _DEFAULT_SWEEP_STEPS
    weights: Optional[WeightVectors] = None
    attributes: Optional[Names] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
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

    @property
    def weight_maps(self) -> Optional[Tuple[Dict[str, float], ...]]:
        """The explicit weight vectors as plain dicts (None for automatic)."""
        if self.weights is None:
            return None
        return tuple(dict(vector) for vector in self.weights)


@dataclass(frozen=True, kw_only=True)
class EndUserRequest(ServiceRequest):
    """The END-USER scenario: one group, one job, several marketplaces."""

    kind: ClassVar[str] = "end_user"

    group: Group
    marketplaces: Names
    job: str

    @property
    def group_map(self) -> Dict[str, object]:
        """The group as a plain ``{attribute: value}`` dict."""
        return dict(self.group)


@dataclass(frozen=True, kw_only=True)
class JobOwnerRequest(ServiceRequest):
    """The JOB-OWNER scenario: sweep one job's weights and recommend a variant."""

    kind: ClassVar[str] = "job_owner"

    marketplace: str
    job: str
    sweep_steps: int = 5
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sweep_steps < 2:
            raise ServiceError(
                f"a job-owner sweep needs at least 2 steps, got {self.sweep_steps}"
            )


_REQUEST_KINDS: Dict[str, Type[ServiceRequest]] = {
    request_type.kind: request_type
    for request_type in (
        QuantifyRequest,
        AuditRequest,
        CompareRequest,
        BreakdownRequest,
        SweepRequest,
        EndUserRequest,
        JobOwnerRequest,
    )
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
    except (TypeError, ValueError, OverflowError):
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
    return request_type.from_json(payload)


def error_code(error: BaseException) -> str:
    """Stable wire code for an exception class (``ServiceError`` -> ``service``)."""
    name = type(error).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    code = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
    return code or "error"


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
    result per request.  Every error envelope is built by :meth:`failure`.

    An envelope carries facts about its own request only.  Process-wide
    counters (the score-store pool's) are read from the service
    (``FairnessService.store_stats``) or over HTTP from ``/v2/health`` and
    ``/v2/metrics``, so an answer's bytes do not depend on how many
    requests the process has served before it.

    ``timings`` is per-request observability metadata (:mod:`repro.obs`):
    the request's trace id plus a phase breakdown in milliseconds
    (``key_ms``, ``compute_ms``, ``score_ms``, ``cache_ms``, ``queue_ms``
    for batched requests).  The shard router reports its forwarding time
    in the ``X-Fairank-Route-Ms`` response header instead, so relayed
    envelopes stay byte-for-byte what the worker encoded.  Like
    ``elapsed_s`` it is *excluded* from ``canonical()``
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

    @classmethod
    def failure(
        cls,
        kind: str,
        code: str,
        message: str,
        *,
        key: str = "",
        elapsed_s: float = 0.0,
        timings: Optional[Dict[str, Any]] = None,
    ) -> "ServiceResult":
        """The error envelope: empty payload, ``error`` = ``{code, message}``.

        Without ``timings`` (a slot that never ran) the envelope still
        carries the active trace id.
        """
        if timings is None:
            timings = Trace(current_trace_id()).timings()
        return cls(
            kind=kind, key=key, elapsed_s=elapsed_s, timings=timings,
            error={"code": code, "message": message},
        )

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
        timings = payload.get("timings")
        error = payload.get("error")
        return cls(
            kind=str(payload["kind"]),
            key=str(payload["key"]),
            payload=dict(payload.get("payload", {})),  # type: ignore[arg-type]
            cached=bool(payload.get("cached", False)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),  # type: ignore[arg-type]
            timings=None if timings is None else dict(timings),  # type: ignore[arg-type]
            protocol=int(payload.get("protocol", 1)),  # type: ignore[arg-type]
            error=None if error is None else dict(error),  # type: ignore[arg-type]
        )
