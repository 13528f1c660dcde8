"""Fingerprint stability and sensitivity (cache-key correctness)."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulations import Aggregation, Formulation, Objective
from repro.data.columns import CodedColumn, ColumnStore
from repro.data.dataset import Dataset, DatasetView, _build_store
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.data.schema import Schema, observed, protected
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.scoring.base import ScoringFunction
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction, RankDerivedScorer
from repro.service.fingerprint import (
    combine_fingerprints,
    fingerprint_dataset,
    fingerprint_formulation,
    fingerprint_function,
    fingerprint_value,
)


class ConstantScorer(ScoringFunction):
    """Module-level so instances are picklable (exercises the pickle fallback)."""

    name = "constant"

    def score_dataset(self, dataset):
        return np.full(len(dataset), 0.5)


class TestDatasetFingerprint:
    def test_same_content_same_key(self):
        first = load_example_table1()
        second = load_example_table1()
        assert first is not second
        assert fingerprint_dataset(first) == fingerprint_dataset(second)

    def test_memoised_per_object(self):
        dataset = load_example_table1()
        assert fingerprint_dataset(dataset) == fingerprint_dataset(dataset)

    def test_different_rows_different_key(self):
        first = CrowdsourcingGenerator(seed=1).generate(50)
        second = CrowdsourcingGenerator(seed=2).generate(50)
        assert fingerprint_dataset(first) != fingerprint_dataset(second)

    def test_display_name_is_ignored(self):
        base = CrowdsourcingGenerator(seed=3).generate(30, name="one-name")
        renamed = CrowdsourcingGenerator(seed=3).generate(30, name="other-name")
        assert fingerprint_dataset(base) == fingerprint_dataset(renamed)

    def test_subset_differs_from_whole(self):
        dataset = load_example_table1()
        subset = DatasetView(dataset, np.arange(5), "subset")
        assert fingerprint_dataset(dataset) != fingerprint_dataset(subset)


# -- content, not build route -------------------------------------------------

#: A protected column of any value type and an observed numeric column.
#: Each pool holds type-distinct twins (1 / 1.0 / True / "1", 0.0 / -0.0)
#: and two NaN objects with different sign bits, which must hash alike.
_NAN = float("nan")
_NEGATIVE_NAN = math.copysign(float("nan"), -1.0)
_CODES = (0, 1, 1.0, True, False, "1", "a", -0.0, 0.0, _NAN, _NEGATIVE_NAN, 2.5, None)
_SCORES = (0.0, -0.0, 1.0, 2.5, _NAN, _NEGATIVE_NAN, 1, True)
_SCHEMA = Schema((protected("Code"), observed("Score")))
_NAMES = _SCHEMA.names


@st.composite
def _contents(draw, codes=_CODES):
    """``(uids, {name: values})``; uids are ``w1..wn`` or the same reversed."""
    n = draw(st.integers(min_value=0, max_value=6))
    columns = {
        "Code": draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n)),
        "Score": draw(st.lists(st.sampled_from(_SCORES), min_size=n, max_size=n)),
    }
    uids = [f"w{index}" for index in range(1, n + 1)]
    if draw(st.booleans()):
        uids.reverse()
    return uids, columns


def _typed(value):
    """The exact-typed identity of a value: all NaNs alike, -0.0 is not 0.0."""
    if isinstance(value, float):
        return float, "nan" if math.isnan(value) else value.hex()
    return type(value), value


#: Values that compare equal (or are all NaN) but are not the same value.
_TWINS = ((1, 1.0, True, "1"), (0, False, 0.0, -0.0), (_NAN, _NEGATIVE_NAN))


def _twin(value):
    """The next member of ``value``'s twin group (``value`` if it has none)."""
    for group in _TWINS:
        keys = [_typed(member) for member in group]
        if _typed(value) in keys:
            return group[(keys.index(_typed(value)) + 1) % len(group)]
    return value


def _content_key(content):
    uids, columns = content
    return tuple(uids), tuple(tuple(map(_typed, columns[name])) for name in _NAMES)


def _from_values(content) -> Dataset:
    """The content through the store builder ``from_records`` uses, unvalidated
    (``None`` is an invalid value)."""
    uids, columns = content
    return Dataset(_SCHEMA, _build_store(_SCHEMA, columns, uids), validate=False)


def _hand_built_store(content) -> ColumnStore:
    """Coded columns whose decode table is reversed, has an unused entry and
    holds every value twice; rows alternate between the twins.  Uids are
    always stored explicitly."""
    uids, columns = content
    built = {}
    for name in _NAMES:
        distinct = {}
        for value in columns[name]:
            distinct.setdefault(_typed(value), value)
        table = ["unused"]
        slots = {}
        for key, value in reversed(list(distinct.items())):
            slots[key] = (len(table), len(table) + 1)
            table += [value, value]
        codes = [
            slots[_typed(value)][index % 2] for index, value in enumerate(columns[name])
        ]
        built[name] = CodedColumn(codes, table)
    return ColumnStore(len(uids), built, uids=uids)


def _build_routes(content):
    """The same content built every way a dataset can be built."""
    store = _hand_built_store(content)
    routes = {
        "values": _from_values(content),
        "hand-built": Dataset(_SCHEMA, store, validate=False),
    }
    uids, columns = content
    if None not in columns["Code"]:  # these validate; None is invalid
        routes["from_columns"] = Dataset.from_columns(_SCHEMA, columns, uids=uids)
        records = [
            {"uid": uid, **{name: columns[name][index] for name in _NAMES}}
            for index, uid in enumerate(uids)
        ]
        routes["from_records"] = Dataset.from_records(_SCHEMA, records, uid_field="uid")
    with tempfile.TemporaryDirectory() as tmp:
        store.save(Path(tmp) / "columns")
        reloaded = ColumnStore.load(Path(tmp) / "columns")
        routes["save/load"] = Dataset(_SCHEMA, reloaded, validate=False)
        return {route: fingerprint_dataset(dataset) for route, dataset in routes.items()}


class TestDatasetFingerprintProperties:
    @settings(max_examples=150, deadline=None)
    @given(_contents())
    def test_every_build_route_hashes_alike(self, content):
        fingerprints = _build_routes(content)
        assert len(set(fingerprints.values())) == 1, fingerprints

    @settings(max_examples=300, deadline=None)
    @given(_contents(), st.data())
    def test_equal_iff_schema_uids_and_typed_values_are_equal(self, first, data):
        # The second content is the first, the first with one value swapped
        # for its twin, or an independent draw.
        uids, columns = first
        second = data.draw(st.one_of(st.just(first), _contents()))
        if uids and data.draw(st.booleans()):
            name = data.draw(st.sampled_from(_NAMES))
            row = data.draw(st.integers(0, len(uids) - 1))
            swapped = list(columns[name])
            swapped[row] = _twin(swapped[row])
            second = uids, {**columns, name: swapped}
        left = fingerprint_dataset(_from_values(first))
        right = fingerprint_dataset(
            Dataset(_SCHEMA, _hand_built_store(second), validate=False)
        )
        assert (left == right) == (_content_key(first) == _content_key(second))

    @settings(max_examples=100, deadline=None)
    @given(
        _contents(codes=tuple(value for value in _CODES if value is not None)),
        st.data(),
    )
    def test_realised_view_hashes_like_its_rows_rebuilt(self, content, data):
        parent = _from_values(content)
        positions = data.draw(st.permutations(range(len(parent))))
        keep = positions[: data.draw(st.integers(0, len(positions)))]
        view = DatasetView(parent, keep, name="view")
        assert view.store is not None  # realised: keeps the parent's decode tables
        rows = [
            {"uid": uid, **{name: content[1][name][position] for name in _NAMES}}
            for uid, position in zip(view.uids, keep)
        ]
        rebuilt = Dataset.from_records(_SCHEMA, rows, uid_field="uid")
        assert fingerprint_dataset(view) == fingerprint_dataset(rebuilt)


class TestFunctionFingerprint:
    def test_same_weights_same_key(self):
        first = LinearScoringFunction(dict(TABLE1_WEIGHTS), name="f")
        second = LinearScoringFunction(dict(TABLE1_WEIGHTS), name="f")
        assert fingerprint_function(first) == fingerprint_function(second)

    def test_display_name_is_ignored(self):
        # Identical weights under different job names score identically, so
        # they must share cache entries (the request-level key re-adds the
        # requested name because payloads echo it).
        first = LinearScoringFunction(dict(TABLE1_WEIGHTS), name="Content writing")
        second = LinearScoringFunction(dict(TABLE1_WEIGHTS), name="Data labelling")
        assert fingerprint_function(first) == fingerprint_function(second)

    def test_one_changed_weight_changes_key(self):
        base = LinearScoringFunction({"Language Test": 0.7, "Rating": 0.3}, name="f")
        tweaked = LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="f")
        assert fingerprint_function(base) != fingerprint_function(tweaked)

    def test_weight_order_is_irrelevant(self):
        first = LinearScoringFunction({"Language Test": 0.7, "Rating": 0.3}, name="f")
        second = LinearScoringFunction({"Rating": 0.3, "Language Test": 0.7}, name="f")
        assert fingerprint_function(first) == fingerprint_function(second)

    def test_rank_derived_scorer_fingerprints_by_ranking(self):
        dataset = load_example_table1()
        function = LinearScoringFunction(TABLE1_WEIGHTS, name="f")
        first = RankDerivedScorer(function.rank(dataset), name="g")
        second = RankDerivedScorer(function.rank(dataset), name="g")
        assert fingerprint_function(first) == fingerprint_function(second)
        exposure = RankDerivedScorer(function.rank(dataset), weighting="exposure", name="g")
        assert fingerprint_function(first) != fingerprint_function(exposure)

    def test_opaque_wrapper_distinct_from_hidden(self):
        hidden = LinearScoringFunction(TABLE1_WEIGHTS, name="f")
        opaque = OpaqueScoringFunction(hidden, name="f")
        assert fingerprint_function(opaque) != fingerprint_function(hidden)
        assert fingerprint_function(opaque) == fingerprint_function(
            OpaqueScoringFunction(LinearScoringFunction(TABLE1_WEIGHTS, name="f"), name="f")
        )

    def test_pickle_fallback_for_plain_functions(self):
        first, second = ConstantScorer(), ConstantScorer()
        # Picklable, structurally identical objects share a pickle-hash key.
        assert fingerprint_function(first) == fingerprint_function(second)

    def test_unpicklable_function_degrades_to_identity(self):
        class Closure(ScoringFunction):
            name = "closure"

            def __init__(self):
                self.fn = lambda dataset: np.full(len(dataset), 0.5)  # unpicklable payload

            def score_dataset(self, dataset):
                return self.fn(dataset)

        first, second = Closure(), Closure()
        assert fingerprint_function(first) == fingerprint_function(first)
        assert fingerprint_function(first) != fingerprint_function(second)


class TestFormulationAndValues:
    def test_formulation_fields_feed_the_key(self):
        base = Formulation()
        assert fingerprint_formulation(base) == fingerprint_formulation(Formulation())
        assert fingerprint_formulation(base) != fingerprint_formulation(
            Formulation(objective=Objective.LEAST_UNFAIR)
        )
        assert fingerprint_formulation(base) != fingerprint_formulation(
            Formulation(aggregation=Aggregation.MAXIMUM)
        )
        assert fingerprint_formulation(base) != fingerprint_formulation(Formulation(bins=7))

    def test_value_encoding_distinguishes_types(self):
        assert fingerprint_value("1") != fingerprint_value(1)
        assert fingerprint_value(True) != fingerprint_value(1)
        assert fingerprint_value(None) != fingerprint_value("None")
        assert fingerprint_value([1, 2]) != fingerprint_value([2, 1])
        assert fingerprint_value({"a": 1, "b": 2}) == fingerprint_value({"b": 2, "a": 1})

    def test_combine_is_order_sensitive(self):
        assert combine_fingerprints("a", "b") != combine_fingerprints("b", "a")
        assert combine_fingerprints("a", None) != combine_fingerprints("a", "-")
