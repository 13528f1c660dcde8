"""Column paths against their row-at-a-time references (``row_reference``).

Filters, planted bias, ``map_column``, equivalence classes, global recoding,
Mondrian local recoding and its information loss all work over column
arrays; each property here draws small datasets whose columns mix values
that are equal under ``==`` but differently typed (``1``, ``1.0``,
``True``), look alike (``"1"``), or are awkward (``None``, NaN, ``-0.0``),
and checks the column path returns what the row reference returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from row_reference import (
    row_apply_bias,
    row_equivalence_classes,
    row_filter_uids,
    row_generalised_cells,
    row_global_recoding,
    row_map_column,
    row_mondrian,
)

from repro.anonymize.hierarchy import CategoricalHierarchy, IntervalHierarchy
from repro.anonymize.kanonymity import (
    AnonymizationResult,
    GlobalRecodingAnonymizer,
    MondrianAnonymizer,
    equivalence_classes,
)
from repro.anonymize.metrics import information_loss
from repro.data.columns import CodedColumn, NumericColumn
from repro.data.dataset import Dataset, _build_store
from repro.data.filters import And, Between, Equals, Not, OneOf, Or, TrueFilter
from repro.data.schema import AttributeType, Schema, observed, protected
from repro.errors import AnonymizationError
from repro.marketplace.bias import BiasSpec, apply_bias
from repro.scoring.linear import LinearScoringFunction
from repro.service import FairnessService, QuantifyRequest
from repro.service.fingerprint import fingerprint_dataset

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One NaN object shared by columns and filters, so identity-based
#: containment (``nan in (nan,)``) is exercised as well as ``nan != nan``.
NAN = float("nan")
#: Values a coded column may hold: equal-but-differently-typed, look-alike
#: and awkward ones.
CODED_VALUES = (1, 1.0, True, "1", None, NAN, 0, False, "a", 2, 0.5, -0.0)
#: Values a ``float64`` column may hold.
FLOAT_VALUES = (1.0, 0.0, -0.0, 0.5, 2.0, NAN, -1.5)
#: Values filters compare against (a superset of both pools).
PROBES = CODED_VALUES + (1.5, "b", float("nan"))


def _dataset(schema, columns, name="oracle", uids=None):
    if uids is None:
        uids = [f"u{index}" for index in range(len(next(iter(columns.values()))))]
    return Dataset(schema, _build_store(schema, columns, uids), name=name, validate=False)


@st.composite
def mixed_datasets(draw):
    """Two coded columns (``A`` protected, ``B`` observed) and a float64 ``X``."""
    size = draw(st.integers(min_value=0, max_value=30))
    schema = Schema((protected("A"), observed("B"), observed("X")))
    columns = {
        "A": draw(st.lists(st.sampled_from(CODED_VALUES), min_size=size, max_size=size)),
        "B": draw(st.lists(st.sampled_from(CODED_VALUES), min_size=size, max_size=size)),
        "X": draw(st.lists(st.sampled_from(FLOAT_VALUES), min_size=size, max_size=size)),
    }
    dataset = _dataset(schema, columns)
    assert isinstance(dataset.store["X"], NumericColumn) or not size
    return dataset


def _leaves(attribute):
    return st.one_of(
        st.builds(Equals, st.just(attribute), st.sampled_from(PROBES)),
        st.builds(OneOf, st.just(attribute), st.lists(st.sampled_from(PROBES), max_size=3)),
        st.builds(
            Between,
            st.just(attribute),
            st.sampled_from((-1, 0, 0.5, 1, 1.0)),
            st.sampled_from((0, 0.5, 1, 2, 2.5)),
        ),
    )


filters = st.recursive(
    st.one_of(st.just(TrueFilter()), *(_leaves(name) for name in ("A", "B", "X"))),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, st.lists(inner, max_size=3)),
        st.builds(Or, st.lists(inner, max_size=3)),
    ),
    max_leaves=6,
)


class TestFilters:
    @SETTINGS
    @given(mixed_datasets(), filters)
    def test_mask_selects_the_rows_the_row_reference_selects(self, dataset, row_filter):
        view = dataset.filter(row_filter)
        assert view.uids == row_filter_uids(dataset, row_filter)
        assert view.indices_in(dataset).tolist() == [
            position for position, uid in enumerate(dataset.uids) if uid in set(view.uids)
        ]
        assert view.name == f"{dataset.name}[{row_filter.describe()}]"

    @SETTINGS
    @given(mixed_datasets(), filters, filters)
    def test_filter_of_a_view(self, dataset, outer, inner):
        view = dataset.filter(outer)
        nested = view.filter(inner, name="nested")
        assert nested.uids == row_filter_uids(view, inner)
        assert nested.name == "nested"
        uids = dataset.uids
        assert [uids[i] for i in nested.indices_in(dataset).tolist()] == list(nested.uids)

    @pytest.mark.parametrize("parts", [(), (Equals("A", 1),)])
    def test_empty_and_or(self, parts):
        dataset = _dataset(Schema((protected("A"),)), {"A": [1, "1", None, NAN]})
        assert And(parts).mask(dataset).tolist() == [
            True, not parts, not parts, not parts
        ]
        assert Or(()).mask(dataset).tolist() == [False] * 4

    def test_equal_but_differently_typed_values_match(self):
        dataset = _dataset(
            Schema((protected("A"), observed("X"))),
            {"A": [1, 1.0, True, "1", None, NAN], "X": [1.0, 1.0, 0.0, -0.0, NAN, 2.0]},
        )
        assert isinstance(dataset.store["A"], CodedColumn)
        assert Equals("A", 1).mask(dataset).tolist() == [True, True, True, False, False, False]
        assert Equals("A", "1").mask(dataset).tolist() == [False, False, False, True, False, False]
        assert Equals("A", NAN).mask(dataset).tolist() == [False] * 6
        assert OneOf("A", [NAN]).mask(dataset).tolist() == [False] * 5 + [True]
        assert Equals("X", True).mask(dataset).tolist() == [True, True, False, False, False, False]
        assert Equals("X", 0).mask(dataset).tolist() == [False, False, True, True, False, False]
        assert Equals("X", "1").mask(dataset).tolist() == [False] * 6
        assert Between("A", 1, 1).mask(dataset).tolist() == [True, True, True, True, False, False]


# -- planted bias ---------------------------------------------------------------

NUMERIC_VALUES = (0, 1, 0.5, 0.25, 1.0, 0.75, -0.0)


@st.composite
def bias_cases(draw):
    """A dataset with a coded (``B``) and a float64 (``X``) observed column, plus specs."""
    size = draw(st.integers(min_value=0, max_value=30))
    schema = Schema((protected("G"), protected("R"), observed("B"), observed("X")))
    columns = {
        "G": draw(st.lists(st.sampled_from(("F", "M", 1, True)), min_size=size, max_size=size)),
        "R": draw(st.lists(st.sampled_from(("n", "s")), min_size=size, max_size=size)),
        "B": draw(st.lists(st.sampled_from(NUMERIC_VALUES), min_size=size, max_size=size)),
        "X": draw(st.lists(
            st.one_of(st.floats(min_value=-0.5, max_value=1.5), st.just(NAN)),
            min_size=size, max_size=size,
        )),
    }
    shift = st.floats(min_value=-0.6, max_value=0.6, allow_nan=False)
    specs = draw(st.lists(
        st.builds(
            BiasSpec,
            st.dictionaries(
                st.sampled_from(("G", "R")), st.sampled_from(("F", "M", "n", 1, 1.0)),
                min_size=1,
            ),
            st.dictionaries(st.sampled_from(("B", "X")), shift, min_size=1),
        ),
        max_size=3,
    ))
    return _dataset(schema, columns), specs


def _same_content(column_path: Dataset, row_path: Dataset) -> None:
    assert fingerprint_dataset(column_path) == fingerprint_dataset(row_path)
    assert column_path.name == row_path.name
    assert column_path.schema == row_path.schema
    assert repr(column_path.to_records()) == repr(row_path.to_records())


class TestBias:
    @SETTINGS
    @given(bias_cases())
    def test_apply_bias_matches_row_reference(self, case):
        dataset, specs = case
        _same_content(apply_bias(dataset, specs), row_apply_bias(dataset, specs))

    @SETTINGS
    @given(bias_cases())
    def test_subgroup_selects_matching_rows(self, case):
        dataset, specs = case
        for spec in specs:
            assert dataset.filter(spec.subgroup).uids == tuple(
                record["uid"] for record in dataset.to_records()
                if all(record[attr] == value for attr, value in spec.conditions)
            )


# -- numeric columns ------------------------------------------------------------

#: Values a coded numeric column may hold: ints, floats, bools, numeric strings.
NUMERIC_LIKE = (0, 1, 2, -3, 0.5, 1.0, -0.0, NAN, float("inf"), True, False,
                "1", "0.25", "-2", "1e3", "nan", " 7 ")


@st.composite
def coded_numeric_datasets(draw):
    """A dataset whose observed ``N`` column is coded (it holds a string)."""
    size = draw(st.integers(min_value=1, max_value=30))
    values = draw(st.lists(st.sampled_from(NUMERIC_LIKE), min_size=size - 1, max_size=size - 1))
    values.insert(draw(st.integers(min_value=0, max_value=size - 1)), draw(
        st.sampled_from([value for value in NUMERIC_LIKE if isinstance(value, str)])
    ))
    groups = draw(st.lists(st.sampled_from(("a", "b")), min_size=size, max_size=size))
    dataset = _dataset(Schema((protected("G"), observed("N"))), {"G": groups, "N": values})
    assert isinstance(dataset.store["N"], CodedColumn)
    return dataset


class TestNumericColumn:
    @SETTINGS
    @given(coded_numeric_datasets())
    def test_coded_column_equals_row_by_row_floats(self, dataset):
        for population in (dataset, dataset.filter(Equals("G", "a"))):
            expected = np.array(
                [float(record["N"]) for record in population.to_records()], dtype=float
            )
            got = population.numeric_column("N")
            assert got.dtype == np.float64 and got.flags.writeable
            assert got.tobytes() == expected.tobytes()


# -- map_column and equivalence classes ---------------------------------------

MAPPERS = {
    "identity": lambda value: value,
    "str": str,
    "halve": lambda value: value / 2 if isinstance(value, (int, float)) else value,
    "bucket": lambda value: "[0-1)" if isinstance(value, (int, float)) and value < 1 else "*",
}


class TestMapColumn:
    @SETTINGS
    @given(mixed_datasets(), st.sampled_from(("A", "B", "X")), st.sampled_from(sorted(MAPPERS)),
           st.booleans())
    def test_map_column_matches_row_reference(self, dataset, name, mapper, as_categorical):
        function = MAPPERS[mapper]
        _same_content(
            dataset.map_column(name, function, as_categorical=as_categorical),
            row_map_column(dataset, name, function, as_categorical=as_categorical),
        )

    def test_mapper_runs_once_per_distinct_value(self):
        dataset = _dataset(
            Schema((protected("A"), observed("X"))),
            {"A": ["a", "b", "a", "a"], "X": [1.0, 1.0, 2.0, 1.0]},
        )
        calls = []
        dataset.map_column("A", lambda value: calls.append(value) or value)
        dataset.map_column("X", lambda value: calls.append(value) or value)
        assert calls == ["a", "b", 1.0, 2.0]


@st.composite
def quasi_datasets(draw, min_size=0):
    """Coded QIs (categorical ``C``, ordinal ``Y``), a float64 QI ``F``, a skill."""
    size = draw(st.integers(min_value=min_size, max_value=30))
    schema = Schema((
        protected("C"),
        protected("Y", atype=AttributeType.ORDINAL),
        protected("F", atype=AttributeType.NUMERIC),
        observed("Skill"),
    ))
    columns = {
        "C": draw(st.lists(st.sampled_from(("a", "b", 1, 1.0, True, "1", NAN)),
                           min_size=size, max_size=size)),
        "Y": draw(st.lists(st.integers(min_value=1980, max_value=1990),
                           min_size=size, max_size=size)),
        "F": draw(st.lists(st.sampled_from((0.0, -0.0, 3.5, 12.0, 7.25)),
                           min_size=size, max_size=size)),
        "Skill": draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                               min_size=size, max_size=size)),
    }
    return _dataset(schema, columns)


qi_subsets = st.lists(st.sampled_from(("C", "Y", "F")), max_size=3, unique=True)


class TestEquivalenceClasses:
    @SETTINGS
    @given(quasi_datasets(), qi_subsets)
    def test_same_classes_same_keys_same_order(self, dataset, names):
        column_path = equivalence_classes(dataset, names)
        row_path = row_equivalence_classes(dataset, names)
        assert column_path == row_path
        assert list(column_path) == list(row_path)
        assert repr(list(column_path)) == repr(list(row_path))

    def test_float_column_nans_form_one_class(self):
        # The row reference makes each NaN row of a float64 column its own
        # class (every row decodes a fresh NaN and nan != nan); the column
        # path counts over codes, where every NaN is one value.
        dataset = _dataset(Schema((protected("F", atype=AttributeType.NUMERIC),)),
                           {"F": [NAN, 1.0, NAN]})
        classes = equivalence_classes(dataset, ["F"])
        assert list(classes.values()) == [2, 1]


# -- global recoding -----------------------------------------------------------

def _quantify_bytes(dataset: Dataset) -> str:
    service = FairnessService()
    service.register_dataset(dataset, name="anonymised")
    service.register_function(LinearScoringFunction({"Skill": 1.0}, name="skill"))
    return service.execute(
        QuantifyRequest(dataset="anonymised", function="skill", min_partition_size=2)
    ).canonical()


HIERARCHIES = {
    "default": {},
    "custom": {
        "C": CategoricalHierarchy(
            attribute="C",
            ladders={"a": ("letters",), "b": ("letters",), 1: ("ones",), "1": ("ones",)},
        ),
        "Y": IntervalHierarchy("Y", widths=(2.0, 4.0), origin=1980.0),
    },
}


class TestGlobalRecoding:
    @SETTINGS
    @given(
        quasi_datasets(min_size=1),
        qi_subsets,
        st.integers(min_value=2, max_value=4),
        st.sampled_from((0.0, 0.1, 0.3)),
        st.sampled_from(sorted(HIERARCHIES)),
    )
    def test_matches_row_reference(self, dataset, names, k, rate, hierarchies):
        chosen = HIERARCHIES[hierarchies]
        anonymizer = GlobalRecodingAnonymizer(chosen, max_suppression_rate=rate)
        try:
            expected = row_global_recoding(dataset, k, names, chosen, rate)
        except AnonymizationError:
            with pytest.raises(AnonymizationError):
                anonymizer.anonymize(dataset, k, names)
            return
        result = anonymizer.anonymize(dataset, k, names)
        assert result.levels == expected.levels
        assert result.suppressed_uids == expected.suppressed_uids
        assert result.dataset.name == expected.dataset.name
        assert result.dataset.schema == expected.dataset.schema
        assert fingerprint_dataset(result.dataset) == fingerprint_dataset(expected.dataset)
        assert repr(result.dataset.to_records()) == repr(expected.dataset.to_records())
        if len(result.dataset):
            assert _quantify_bytes(result.dataset) == _quantify_bytes(expected.dataset)

    def test_default_population_matches_row_reference(self, small_population):
        result = GlobalRecodingAnonymizer().anonymize(small_population, k=3)
        expected = row_global_recoding(small_population, 3)
        assert result.levels == expected.levels
        assert result.suppressed_uids == expected.suppressed_uids
        assert fingerprint_dataset(result.dataset) == fingerprint_dataset(expected.dataset)
        assert _quantify_bytes(result.dataset) == _quantify_bytes(expected.dataset)


# -- local-recoding information loss ----------------------------------------------

class TestLocalRecodingLoss:
    @SETTINGS
    @given(quasi_datasets(min_size=1), st.integers(min_value=1, max_value=4))
    def test_intensity_matches_row_count_on_mondrian_output(self, dataset, k):
        names = ("C", "Y", "F")
        if len(dataset) < k:
            return
        result = MondrianAnonymizer().anonymize(dataset, k, names)
        generalised, total = row_generalised_cells(result.dataset, names)
        assert information_loss(result).generalization_intensity == generalised / total

    def test_counts_labels_in_float_and_coded_columns(self):
        dataset = _dataset(
            Schema((protected("C"), protected("F", atype=AttributeType.NUMERIC))),
            {"C": ["[1-2)", "a|b", "*", "x", 1], "F": [1.0, 2.0, 3.0, 4.0, 5.0]},
        )
        assert row_generalised_cells(dataset, ("C", "F")) == (3, 10)
        result = AnonymizationResult(dataset=dataset, k=1, quasi_identifiers=("C", "F"),
                                     method="mondrian")
        assert information_loss(result).generalization_intensity == 3 / 10


# -- Mondrian local recoding ---------------------------------------------------

#: Classes of values equal under ``==``; a column holds at most one value of
#: each, so no box mixes ``==``-equal values of different types.
MONDRIAN_CLASSES = (
    (1, 1.0, True), (0, 0.0, False), (2, 2.0), (7,), (-3,), (1.5,), (12.25,),
    ("1",), ("2.5",), (" 7 ",), ("a",), ("b",), ("a|b",), ("[1-2]",), (None,),
)
#: Values a ``float64`` quasi-identifier may hold (no NaN, no ``-0.0``).
MONDRIAN_FLOATS = (0.0, 1.0, 2.5, 3.0, 12.0, 7.25, -1.5, 1e20)


@st.composite
def mondrian_cases(draw):
    """Coded QIs ``C`` and ``D``, a float64 QI ``F`` and a skill, shuffled uids."""
    size = draw(st.integers(min_value=1, max_value=40))

    def coded_column():
        chosen = draw(st.lists(st.sampled_from(MONDRIAN_CLASSES), min_size=1, unique=True))
        pool = [draw(st.sampled_from(equals)) for equals in chosen]
        return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))

    schema = Schema((
        protected("C"),
        protected("D", atype=AttributeType.ORDINAL),
        protected("F", atype=AttributeType.NUMERIC),
        observed("Skill"),
    ))
    columns = {
        "C": coded_column(),
        "D": coded_column(),
        "F": draw(st.lists(st.sampled_from(MONDRIAN_FLOATS), min_size=size, max_size=size)),
        "Skill": draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                               min_size=size, max_size=size)),
    }
    uids = draw(st.permutations([f"u{index}" for index in range(size)]))
    names = draw(st.lists(st.sampled_from(("C", "D", "F")), max_size=3, unique=True))
    dataset = _dataset(schema, columns, uids=uids)
    assert isinstance(dataset.store["F"], NumericColumn)
    return dataset, tuple(names), draw(st.integers(min_value=1, max_value=6))


class TestMondrian:
    @SETTINGS
    @given(mondrian_cases())
    def test_matches_row_reference(self, case):
        dataset, names, k = case
        if len(dataset) < k:
            with pytest.raises(AnonymizationError):
                row_mondrian(dataset, k, names)
            with pytest.raises(AnonymizationError):
                MondrianAnonymizer().anonymize(dataset, k, names)
            return
        result = MondrianAnonymizer().anonymize(dataset, k, names)
        expected = row_mondrian(dataset, k, names)
        _same_content(result.dataset, expected.dataset)
        assert information_loss(result) == information_loss(expected)
        assert (result.method, result.levels) == (expected.method, expected.levels)

    def test_other_columns_are_shared(self, small_population):
        names = ["Gender", "Country"]
        result = MondrianAnonymizer().anonymize(small_population, 3, names)
        store = result.dataset.store
        for name in small_population.store.names:
            shared = store[name] is small_population.store[name]
            assert shared == (name not in names)
        _same_content(result.dataset, row_mondrian(small_population, 3, names).dataset)

    def test_nan_is_one_value_and_its_span_is_nan(self):
        # The row reference reads a fresh NaN per row of a float64 column, so
        # two NaN rows are two values there and their box is "[nan-nan]";
        # over codes every NaN is one value, which a box of NaN rows keeps.
        # A box holding NaN among numbers spans NaN: never split on, and
        # labelled "[nan-nan]".
        schema = Schema((protected("F", atype=AttributeType.NUMERIC), protected("C")))
        dataset = _dataset(schema, {"F": [NAN, NAN, 1.0, 2.0], "C": ["a", "a", "b", "b"]})
        split = MondrianAnonymizer().anonymize(dataset, 2, ("F", "C")).dataset
        assert repr([record["F"] for record in split.to_records()]) == repr(
            [NAN, NAN, "[1-2]", "[1-2]"]
        )
        assert [record["C"] for record in split.to_records()] == ["a", "a", "b", "b"]
        assert row_mondrian(dataset, 2, ("F", "C")).dataset.to_records()[0]["F"] == "[nan-nan]"
        whole = MondrianAnonymizer().anonymize(dataset, 1, ("F",)).dataset
        assert {record["F"] for record in whole.to_records()} == {"[nan-nan]"}

    def test_equal_values_of_different_types_are_one_value(self):
        # ``1`` and ``1.0`` are one value of C (Dataset.codes), shown as the
        # dataset's first-seen of them, even in a box holding only the other;
        # the row reference keeps each box's own first value.
        schema = Schema((protected("C"), protected("D")))
        dataset = _dataset(schema, {"C": [1, 1.0, True], "D": ["b", "a", "c"]})
        result = MondrianAnonymizer().anonymize(dataset, 1, ("D", "C")).dataset
        assert repr([record["C"] for record in result.to_records()]) == "[1, 1, 1]"
        expected = row_mondrian(dataset, 1, ("D", "C")).dataset
        assert repr([record["C"] for record in expected.to_records()]) == "[1, 1.0, True]"
