"""Property-based tests for the serving stack's round-trips (hypothesis).

The sharded deployment leans on two lossless encodings:

* **wire protocol v2** — a request routed through the shard router, a batch
  file or an HTTP body must rebuild into exactly the object the client
  constructed (``request_from_json(r.to_json()) == r``), and result
  envelopes must survive the same trip;
* **catalog snapshots** — every worker boots from ``Catalog.save`` output,
  so ``Catalog.load`` must reconstruct every resource with its content
  fingerprint intact (fingerprints are the routing keys *and* the cache
  keys — drift would split caches across the fleet).

Random generators draw every request kind, every formulation name and
random small catalogs; json.dumps round-trips ensure the payloads are
actual JSON, not just dicts.  The request codec is also pinned from the
other side: a value of the wrong JSON type in any field is a
``ServiceError``, and a golden file fixes the exact ``to_json()`` dicts and
request keys of every kind.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, ResourceKind
from repro.core.formulations import Formulation
from repro.data.dataset import Dataset
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.data.schema import Schema, observed, protected
from repro.errors import ServiceError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.scoring.linear import LinearScoringFunction
from repro.service import FairnessService
from repro.service.jobs import (
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    JobOwnerRequest,
    QuantifyRequest,
    ServiceResult,
    SweepRequest,
    request_from_json,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CATALOG_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- shared strategies ---------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1,
    max_size=12,
)
name_tuples = st.lists(names, min_size=1, max_size=4, unique=True).map(tuple)
optional_names = st.none() | name_tuples

formulation_fields = {
    "objective": st.sampled_from(["most_unfair", "least_unfair"]),
    "aggregation": st.sampled_from(["average", "maximum", "minimum", "variance"]),
    "distance": st.sampled_from(
        ["emd", "normalized_emd", "total_variation",
         "kolmogorov_smirnov", "jensen_shannon", "mean_gap"]
    ),
    "bins": st.integers(min_value=2, max_value=12),
}

weights = st.dictionaries(
    names, st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=1, max_size=4
)

group_values = st.one_of(
    names, st.integers(min_value=-100, max_value=100), st.booleans()
)


@st.composite
def quantify_requests(draw):
    return QuantifyRequest(
        dataset=draw(names),
        function=draw(names),
        attributes=draw(optional_names),
        max_depth=draw(st.none() | st.integers(min_value=1, max_value=9)),
        min_partition_size=draw(st.integers(min_value=1, max_value=20)),
        use_ranks_only=draw(st.booleans()),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


@st.composite
def audit_requests(draw):
    return AuditRequest(
        marketplace=draw(names),
        job=draw(st.none() | names),
        attributes=draw(optional_names),
        min_partition_size=draw(st.integers(min_value=1, max_value=20)),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


@st.composite
def compare_requests(draw):
    return CompareRequest(
        dataset=draw(names),
        functions=draw(name_tuples),
        attributes=draw(optional_names),
        max_depth=draw(st.none() | st.integers(min_value=1, max_value=9)),
        min_partition_size=draw(st.integers(min_value=1, max_value=20)),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


@st.composite
def breakdown_requests(draw):
    return BreakdownRequest(
        dataset=draw(names),
        function=draw(names),
        attributes=draw(optional_names),
        min_partition_size=draw(st.integers(min_value=1, max_value=20)),
        use_ranks_only=draw(st.booleans()),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


@st.composite
def sweep_requests(draw):
    explicit = draw(st.booleans())
    return SweepRequest(
        dataset=draw(names),
        function=draw(names),
        steps=draw(st.integers(min_value=2, max_value=9)),
        weights=(
            tuple(draw(st.lists(weights, min_size=1, max_size=3)))
            if explicit
            else None
        ),
        attributes=draw(optional_names),
        max_depth=draw(st.none() | st.integers(min_value=1, max_value=9)),
        min_partition_size=draw(st.integers(min_value=1, max_value=20)),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


@st.composite
def end_user_requests(draw):
    return EndUserRequest(
        group=tuple(
            draw(st.dictionaries(names, group_values, min_size=1, max_size=3)).items()
        ),
        marketplaces=draw(name_tuples),
        job=draw(names),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


@st.composite
def job_owner_requests(draw):
    return JobOwnerRequest(
        marketplace=draw(names),
        job=draw(names),
        sweep_steps=draw(st.integers(min_value=2, max_value=9)),
        min_partition_size=draw(st.integers(min_value=1, max_value=20)),
        **{field: draw(strategy) for field, strategy in formulation_fields.items()},
    )


any_request = st.one_of(
    quantify_requests(),
    audit_requests(),
    compare_requests(),
    breakdown_requests(),
    sweep_requests(),
    end_user_requests(),
    job_owner_requests(),
)


class TestRequestRoundTrips:
    @SETTINGS
    @given(request=any_request)
    def test_every_kind_survives_to_json_from_json(self, request):
        payload = request.to_json()
        assert payload["protocol"] == 2
        assert payload["kind"] == request.kind
        rebuilt = request_from_json(payload)
        assert rebuilt == request
        assert type(rebuilt) is type(request)

    @SETTINGS
    @given(request=any_request)
    def test_the_wire_form_is_real_json(self, request):
        # Through an actual byte encoding, exactly like the HTTP body path.
        over_the_wire = json.loads(json.dumps(request.to_json()))
        assert request_from_json(over_the_wire) == request

    @SETTINGS
    @given(request=any_request)
    def test_round_trips_are_idempotent(self, request):
        once = request_from_json(request.to_json())
        twice = request_from_json(once.to_json())
        assert twice == once == request


#: The JSON type of every request field.
FIELD_TYPES = {
    "dataset": "string", "function": "string", "marketplace": "string",
    "job": "string", "objective": "string", "aggregation": "string",
    "distance": "string",
    "bins": "integer", "min_partition_size": "integer", "max_depth": "integer",
    "steps": "integer", "sweep_steps": "integer",
    "use_ranks_only": "boolean",
    "attributes": "names", "functions": "names", "marketplaces": "names",
    "weights": "weights",
    "group": "group",
}
GOLDEN_PATH = Path(__file__).with_name("golden_requests.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: ``(kind, field)`` pairs that take null: the ones a golden request holds
#: null in.  Every other field rejects it.
NULLABLE = {
    (case["to_json"]["kind"], field)
    for case in GOLDEN.values()
    for field, value in case["to_json"].items()
    if value is None
}

wrong_scalars = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(min_value=-10**6, max_value=10**6),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "string": names | st.sampled_from(["", "false", "5", "abc"]),
}
wrong_arrays = st.lists(st.integers() | names, max_size=3)
wrong_objects = st.dictionaries(names, st.integers() | names, max_size=3)


def wrong_values(kind, field):
    """JSON values of any type but the field's own."""
    declared = FIELD_TYPES[field]
    nullable = (kind, field) in NULLABLE
    scalar_types = [
        name for name in wrong_scalars
        if name != declared and not (name == "null" and nullable)
    ]
    options = [wrong_scalars[name] for name in scalar_types]
    non_strings = st.one_of([wrong_scalars[n] for n in ("boolean", "integer", "number")])
    if declared == "names":
        options += [wrong_objects, st.lists(non_strings | wrong_arrays, min_size=1)]
    elif declared == "weights":
        options += [
            wrong_objects,
            st.lists(names | non_strings | wrong_arrays, min_size=1),
            st.lists(
                st.dictionaries(
                    names, names | st.booleans() | st.none() | wrong_arrays,
                    min_size=1, max_size=2,
                ),
                min_size=1, max_size=2,
            ),
        ]
    elif declared == "group":
        options += [
            wrong_arrays,
            st.dictionaries(names, wrong_arrays | wrong_objects, min_size=1, max_size=2),
        ]
    else:
        options += [wrong_arrays, wrong_objects]
    return st.one_of(options)


@st.composite
def wrong_typed_payloads(draw):
    payload = json.loads(json.dumps(draw(any_request).to_json()))
    field = draw(st.sampled_from(sorted(set(payload) - {"protocol", "kind"})))
    payload[field] = draw(wrong_values(payload["kind"], field))
    return payload, field


class TestRequestFieldTypes:
    def test_every_request_field_has_a_declared_type(self):
        every_field = set()
        for case in GOLDEN.values():
            every_field |= set(case["to_json"]) - {"protocol", "kind"}
        assert every_field == set(FIELD_TYPES)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=wrong_typed_payloads())
    @example(case=({"kind": "quantify", "dataset": "d", "function": "f",
                    "min_partition_size": None}, "min_partition_size"))
    @example(case=({"kind": "quantify", "dataset": "d", "function": "f",
                    "bins": 5.9}, "bins"))
    @example(case=({"kind": "quantify", "dataset": ["x"], "function": "f"}, "dataset"))
    @example(case=({"kind": "breakdown", "dataset": "d", "function": "f",
                    "use_ranks_only": "false"}, "use_ranks_only"))
    @example(case=({"kind": "compare", "dataset": "d", "functions": "abc"}, "functions"))
    @example(case=({"kind": "audit", "marketplace": "m", "attributes": "age"},
                   "attributes"))
    @example(case=({"kind": "sweep", "dataset": "d", "function": "f",
                    "weights": [{"a": True}]}, "weights"))
    @example(case=({"kind": "end_user", "group": {"a": [1]}, "marketplaces": ["m"],
                    "job": "j"}, "group"))
    def test_a_wrong_typed_field_is_a_service_error_naming_it(self, case):
        payload, field = case
        with pytest.raises(ServiceError) as raised:
            request_from_json(payload)
        message = str(raised.value)
        assert f"{payload['kind']} request field {field!r} must be" in message
        assert ", got " in message


#: One all-defaults and one every-field-set request per kind (plus an
#: automatic sweep with custom steps).  Their ``to_json()`` dicts and request
#: keys in ``golden_requests.json`` were captured before the request codec
#: was derived from the dataclass fields, over the catalog of
#: ``golden_service()``.
_FORMULATION = dict(
    objective="least_unfair", aggregation="variance",
    distance="total_variation", bins=7,
)
GOLDEN_REQUESTS = {
    "quantify/defaults": QuantifyRequest(dataset="table1", function="table1-f"),
    "quantify/every-field": QuantifyRequest(
        dataset="table1", function="table1-f", attributes=("Gender", "Language"),
        max_depth=2, min_partition_size=2, use_ranks_only=True, **_FORMULATION,
    ),
    "audit/defaults": AuditRequest(marketplace="crowdsourcing-sim"),
    "audit/every-field": AuditRequest(
        marketplace="crowdsourcing-sim", job="Content writing",
        attributes=("Gender",), min_partition_size=3, **_FORMULATION,
    ),
    "compare/defaults": CompareRequest(dataset="table1", functions=("table1-f",)),
    "compare/every-field": CompareRequest(
        dataset="table1", functions=("table1-f", "table1-f"),
        attributes=("Gender", "Country"), max_depth=1, min_partition_size=2,
        **_FORMULATION,
    ),
    "breakdown/defaults": BreakdownRequest(dataset="table1", function="table1-f"),
    "breakdown/every-field": BreakdownRequest(
        dataset="table1", function="table1-f", attributes=("Language",),
        min_partition_size=2, use_ranks_only=True, **_FORMULATION,
    ),
    "sweep/defaults": SweepRequest(dataset="table1", function="table1-f"),
    "sweep/every-field": SweepRequest(
        dataset="table1", function="table1-f", steps=3,
        weights=({"Rating": 1, "Language Test": 0.25},
                 {"Language Test": 0.5, "Rating": 0.5}),
        attributes=("Gender",), max_depth=2, min_partition_size=2, **_FORMULATION,
    ),
    "sweep/steps": SweepRequest(dataset="table1", function="table1-f", steps=3),
    "end_user/defaults": EndUserRequest(
        group={"Gender": "F"}, marketplaces=("crowdsourcing-sim",),
        job="Content writing",
    ),
    "end_user/every-field": EndUserRequest(
        group={"Gender": "F", "Age": 30, "Verified": True, "Score": 0.5, "Note": None},
        marketplaces=("crowdsourcing-sim", "crowdsourcing-sim"),
        job="Content writing", **_FORMULATION,
    ),
    "job_owner/defaults": JobOwnerRequest(
        marketplace="crowdsourcing-sim", job="Content writing"
    ),
    "job_owner/every-field": JobOwnerRequest(
        marketplace="crowdsourcing-sim", job="Content writing", sweep_steps=3,
        min_partition_size=2, **_FORMULATION,
    ),
}


@pytest.fixture(scope="module")
def golden_service():
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
    return service


class TestGoldenRequests:
    def test_golden_file_covers_every_kind(self):
        assert set(GOLDEN) == set(GOLDEN_REQUESTS)
        assert {request.kind for request in GOLDEN_REQUESTS.values()} == {
            case.split("/")[0] for case in GOLDEN
        } == {"quantify", "audit", "compare", "breakdown", "sweep", "end_user",
              "job_owner"}

    @pytest.mark.parametrize("case", sorted(GOLDEN_REQUESTS))
    def test_to_json_and_request_key_are_unchanged(self, case, golden_service):
        golden = GOLDEN[case]
        request = GOLDEN_REQUESTS[case]
        assert json.dumps(request.to_json(), sort_keys=True) == json.dumps(
            golden["to_json"], sort_keys=True
        )
        assert request_from_json(golden["to_json"]) == request
        assert golden_service.request_key(request) == golden["request_key"]


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    names,
)
json_payloads = st.dictionaries(
    names,
    st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=5,
)


@st.composite
def service_results(draw):
    failed = draw(st.booleans())
    return ServiceResult(
        kind=draw(names),
        key=draw(names),
        payload={} if failed else draw(json_payloads),
        cached=draw(st.booleans()),
        elapsed_s=draw(st.floats(min_value=0, max_value=100, allow_nan=False)),
        timings=draw(st.none() | json_payloads),
        error=(
            {"code": draw(names), "message": draw(names)} if failed else None
        ),
    )


class TestResultRoundTrips:
    @SETTINGS
    @given(result=service_results())
    def test_result_envelopes_survive_the_wire(self, result):
        rebuilt = ServiceResult.from_json(json.loads(json.dumps(result.to_json())))
        assert rebuilt == result
        assert rebuilt.canonical() == result.canonical()
        assert rebuilt.ok == result.ok
        # An older server's envelope still carries a pool snapshot; it is
        # ignored on decode.
        legacy = dict(result.to_json(), store_stats={"scoring_passes": 1})
        assert ServiceResult.from_json(legacy) == result


# Payload trees as the service builds them: nested objects and arrays over
# any text (non-ASCII included, escaped by json.dumps), exponent-form floats
# such as 1e-07, and the NaN/Infinity tokens json.dumps emits by default.
tree_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([1e-07, -2.5e-12, 1e300, float("nan"), float("inf")]),
    st.text(),
)
payload_trees = st.dictionaries(
    st.text(),
    st.recursive(
        tree_scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(), children, max_size=4),
        max_leaves=20,
    ),
    max_size=6,
)


class TestEncodeOnce:
    @SETTINGS
    @given(tree=payload_trees, envelope=service_results())
    def test_spliced_bytes_equal_a_full_dumps(self, tree, envelope):
        from_bytes = ServiceResult(
            kind=envelope.kind,
            key=envelope.key,
            payload_json=json.dumps(tree).encode("utf-8"),
            cached=envelope.cached,
            elapsed_s=envelope.elapsed_s,
            timings=envelope.timings,
            error=envelope.error,
        )
        from_tree = ServiceResult(
            kind=envelope.kind,
            key=envelope.key,
            payload=tree,
            cached=envelope.cached,
            elapsed_s=envelope.elapsed_s,
            timings=envelope.timings,
            error=envelope.error,
        )
        expected = json.dumps(from_tree.to_json()).encode("utf-8")
        assert from_tree.encode() == expected
        assert from_bytes.encode() == expected
        # The lazily decoded tree re-encodes to the very same bytes.
        assert json.dumps(from_bytes.to_json()).encode("utf-8") == expected


# -- catalog snapshots ---------------------------------------------------------


@st.composite
def datasets(draw):
    protected_names = draw(
        st.lists(names, min_size=1, max_size=2, unique=True)
    )
    observed_names = draw(
        st.lists(
            names.filter(lambda n: True), min_size=1, max_size=2, unique=True
        ).filter(lambda chosen: not set(chosen) & set(protected_names))
    )
    domains = {
        name: draw(st.lists(names, min_size=2, max_size=3, unique=True))
        for name in protected_names
    }
    schema = Schema(
        tuple(
            [protected(name, domain=tuple(domains[name])) for name in protected_names]
            + [observed(name) for name in observed_names]
        )
    )
    size = draw(st.integers(min_value=1, max_value=8))
    records = []
    for uid in range(size):
        record = {name: draw(st.sampled_from(domains[name])) for name in protected_names}
        for name in observed_names:
            record[name] = draw(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
            )
        records.append({"uid": f"u{uid}", **record})
    return Dataset.from_records(schema, records, name=draw(names), uid_field="uid")


@st.composite
def catalogs(draw):
    catalog = Catalog()
    drawn_datasets = draw(st.lists(datasets(), min_size=1, max_size=2))
    for index, dataset in enumerate(drawn_datasets):
        catalog.register(dataset, name=f"dataset-{index}", kind=ResourceKind.DATASET)
    functions = draw(st.lists(weights, min_size=1, max_size=2))
    for index, function_weights in enumerate(functions):
        catalog.register(
            LinearScoringFunction(function_weights, name=f"function-{index}"),
            kind=ResourceKind.FUNCTION,
        )
    if draw(st.booleans()):
        formulation = Formulation.from_names(
            objective=draw(formulation_fields["objective"]),
            aggregation=draw(formulation_fields["aggregation"]),
            distance=draw(formulation_fields["distance"]),
            bins=draw(formulation_fields["bins"]),
        )
        catalog.register(
            formulation, name="formulation-0", kind=ResourceKind.FORMULATION
        )
    return catalog


class TestCatalogSnapshotRoundTrips:
    @CATALOG_SETTINGS
    @given(catalog=catalogs())
    def test_random_catalogs_survive_save_load_with_fingerprints_intact(
        self, catalog
    ):
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "snapshot.json"
            catalog.save(path)
            # load re-fingerprints every rebuilt resource and raises on
            # drift, so a successful load *is* the fingerprint property...
            reloaded = Catalog.load(path)
        # ... and the reloaded registry must agree entry by entry.
        original = {(r.kind.value, r.name): r.fingerprint for r in catalog.resources()}
        rebuilt = {(r.kind.value, r.name): r.fingerprint for r in reloaded.resources()}
        assert rebuilt == original

    @CATALOG_SETTINGS
    @given(catalog=catalogs())
    def test_snapshot_fingerprint_index_matches_the_registry(self, catalog):
        from repro.snapshot import snapshot_fingerprints

        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "snapshot.json"
            catalog.save(path)
            index = snapshot_fingerprints(path)
        assert index == {
            (r.kind.value, r.name): r.fingerprint for r in catalog.resources()
        }
