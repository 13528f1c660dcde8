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
actual JSON, not just dicts.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, ResourceKind
from repro.core.formulations import Formulation
from repro.data.dataset import Dataset, Individual
from repro.data.schema import Schema, observed, protected
from repro.scoring.linear import LinearScoringFunction
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
        store_stats=draw(st.none() | json_payloads),
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
            store_stats=envelope.store_stats,
            timings=envelope.timings,
            error=envelope.error,
        )
        from_tree = ServiceResult(
            kind=envelope.kind,
            key=envelope.key,
            payload=tree,
            cached=envelope.cached,
            elapsed_s=envelope.elapsed_s,
            store_stats=envelope.store_stats,
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
    individuals = []
    for uid in range(size):
        values = {name: draw(st.sampled_from(domains[name])) for name in protected_names}
        for name in observed_names:
            values[name] = draw(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
            )
        individuals.append(Individual(uid=f"u{uid}", values=values))
    return Dataset(
        schema=schema,
        individuals=tuple(individuals),
        name=draw(names),
    )


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
