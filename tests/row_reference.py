"""Row-at-a-time references for row selection, planted bias and recoding.

``repro`` answers "which rows?" and "rewrite this column" over column
arrays: filters compile to masks over codes (``repro.data.filters``),
``apply_bias`` shifts observed columns under a subgroup mask, ``map_column``
remaps decode tables, global recoding counts equivalence classes over codes
and Mondrian partitions row-index arrays.  This module keeps the direct way
— take every row as a dict record (``Dataset.to_records()``, which carries
its ``uid``), test or rewrite it in Python, re-ingest the records — so the
property tests can check that the column paths give the same rows, values
and fingerprints.

Tests import it as ``row_reference``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.anonymize.hierarchy import GeneralizationHierarchy
from repro.anonymize.kanonymity import (
    CATEGORICAL_JOINER,
    AnonymizationResult,
    _generalized_schema,
    default_hierarchies,
)
from repro.data.dataset import Dataset, _build_store
from repro.data.filters import And, Between, Equals, Filter, Not, OneOf, Or, TrueFilter
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import AnonymizationError
from repro.marketplace.bias import BiasSpec

__all__ = [
    "row_matches",
    "row_filter_uids",
    "row_apply_bias",
    "row_map_column",
    "row_equivalence_classes",
    "row_generalised_cells",
    "row_global_recoding",
    "row_mondrian",
]

Record = Dict[str, object]


class _Missing:
    """Sentinel distinct from any attribute value (including None)."""

    def __eq__(self, other: object) -> bool:
        return False

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)


_MISSING = _Missing()


def _records_dataset(schema: Schema, records: Sequence[Record], name: str) -> Dataset:
    """Records (each with its ``uid``) re-ingested as a dataset, unvalidated."""
    columns = {attr.name: [record[attr.name] for record in records] for attr in schema}
    store = _build_store(schema, columns, [str(record["uid"]) for record in records])
    return Dataset(schema, store, name=name, validate=False)


def row_matches(row_filter: Filter, record: Record) -> bool:
    """Whether ``row_filter`` selects one row, evaluated on its Python values."""
    if isinstance(row_filter, TrueFilter):
        return True
    if isinstance(row_filter, Equals):
        return record.get(row_filter.attribute, _MISSING) == row_filter.value
    if isinstance(row_filter, OneOf):
        return record.get(row_filter.attribute, _MISSING) in row_filter.values
    if isinstance(row_filter, Between):
        value = record.get(row_filter.attribute, None)
        if value is None:
            return False
        try:
            numeric = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return row_filter.low <= numeric <= row_filter.high
    if isinstance(row_filter, Not):
        return not row_matches(row_filter.inner, record)
    if isinstance(row_filter, And):
        return all(row_matches(part, record) for part in row_filter.parts)
    if isinstance(row_filter, Or):
        return any(row_matches(part, record) for part in row_filter.parts)
    raise TypeError(f"no row reference for {type(row_filter).__name__}")


def row_filter_uids(dataset: Dataset, row_filter: Filter) -> Tuple[str, ...]:
    """The uids of the rows ``row_filter`` selects, in row order."""
    return tuple(
        str(record["uid"]) for record in dataset.to_records() if row_matches(row_filter, record)
    )


def _spec_matches(spec: BiasSpec, record: Record) -> bool:
    return all(record.get(attr) == value for attr, value in spec.conditions)


def row_apply_bias(
    dataset: Dataset,
    specs: Sequence[BiasSpec],
    clamp: Tuple[float, float] = (0.0, 1.0),
) -> Dataset:
    """Planted biases applied row by row, the rows re-ingested."""
    low, high = clamp
    records = []
    for record in dataset.to_records():
        updates: Dict[str, float] = {}
        for spec in specs:
            if not _spec_matches(spec, record):
                continue
            for attr, shift in spec.shifts:
                current = updates.get(attr, float(record[attr]))  # type: ignore[arg-type]
                updates[attr] = current + shift
        clamped = {attr: float(np.clip(value, low, high)) for attr, value in updates.items()}
        records.append({**record, **clamped})
    return _records_dataset(dataset.schema, records, f"{dataset.name}/biased")


def row_map_column(
    dataset: Dataset, name: str, mapper, as_categorical: bool = False
) -> Dataset:
    """Column ``name`` rewritten by calling ``mapper`` on every row."""
    attr = dataset.schema.attribute(name)
    new_attr = Attribute(
        name=attr.name,
        kind=attr.kind,
        atype=AttributeType.CATEGORICAL if as_categorical else attr.atype,
        domain=None,
        description=attr.description,
    )
    records = [{**record, name: mapper(record[name])} for record in dataset.to_records()]
    return _records_dataset(dataset.schema.replace_attribute(new_attr), records, dataset.name)


def row_equivalence_classes(
    dataset: Dataset, quasi_identifiers: Sequence[str]
) -> Dict[Tuple[object, ...], int]:
    """Class sizes keyed by each row's tuple of quasi-identifier values."""
    classes: Dict[Tuple[object, ...], int] = {}
    for record in dataset.to_records():
        key = tuple(record[name] for name in quasi_identifiers)
        classes[key] = classes.get(key, 0) + 1
    return classes


def row_generalised_cells(dataset: Dataset, quasi_identifiers: Sequence[str]) -> Tuple[int, int]:
    """(generalised cells, all cells) of the quasi-identifier columns, row by row."""
    generalised = total = 0
    for record in dataset.to_records():
        for name in quasi_identifiers:
            total += 1
            value = record[name]
            if isinstance(value, str) and (
                value.startswith("[") or CATEGORICAL_JOINER in value or value == "*"
            ):
                generalised += 1
    return generalised, total


def _row_apply_levels(
    dataset: Dataset,
    hierarchies: Mapping[str, GeneralizationHierarchy],
    levels: Mapping[str, int],
    quasi_identifiers: Sequence[str],
) -> Dataset:
    schema = _generalized_schema(dataset.schema, quasi_identifiers)
    records = [
        {
            **record,
            **{
                name: hierarchies[name].generalize(record[name], levels[name])
                for name in quasi_identifiers
            },
        }
        for record in dataset.to_records()
    ]
    return _records_dataset(schema, records, f"{dataset.name}/generalized")


def row_global_recoding(
    dataset: Dataset,
    k: int,
    quasi_identifiers: Optional[Sequence[str]] = None,
    hierarchies: Optional[Mapping[str, GeneralizationHierarchy]] = None,
    max_suppression_rate: float = 0.05,
) -> AnonymizationResult:
    """Full-domain global recoding that rebuilds every row per lattice point."""
    if quasi_identifiers is None:
        quasi_identifiers = dataset.schema.protected_names
    quasi_identifiers = tuple(quasi_identifiers)
    chosen = dict(default_hierarchies(dataset, quasi_identifiers))
    chosen.update({n: h for n, h in (hierarchies or {}).items() if n in quasi_identifiers})
    if k == 1:
        return AnonymizationResult(
            dataset=dataset, k=1, quasi_identifiers=quasi_identifiers,
            levels={name: 0 for name in quasi_identifiers},
        )
    level_ranges = [range(chosen[name].height + 1) for name in quasi_identifiers]
    combos = sorted(itertools.product(*level_ranges), key=lambda combo: (sum(combo), combo))
    max_suppressed = int(max_suppression_rate * len(dataset))
    for combo in combos:
        levels = dict(zip(quasi_identifiers, combo))
        generalized = _row_apply_levels(dataset, chosen, levels, quasi_identifiers)
        classes = row_equivalence_classes(generalized, quasi_identifiers)
        violating = {key for key, size in classes.items() if size < k}
        if not violating:
            return AnonymizationResult(
                dataset=generalized, k=k, quasi_identifiers=quasi_identifiers, levels=levels,
            )
        records = generalized.to_records()
        suppressed: List[str] = [
            str(record["uid"])
            for record in records
            if tuple(record[name] for name in quasi_identifiers) in violating
        ]
        if len(suppressed) <= max_suppressed:
            dropped = set(suppressed)
            kept = [record for record in records if record["uid"] not in dropped]
            return AnonymizationResult(
                dataset=_records_dataset(generalized.schema, kept, f"{dataset.name}/k={k}"),
                k=k,
                quasi_identifiers=quasi_identifiers,
                levels=levels,
                suppressed_uids=tuple(suppressed),
            )
    raise AnonymizationError(f"could not achieve {k}-anonymity on {dataset.name!r}")


def _is_number(value: object) -> bool:
    try:
        float(value)  # type: ignore[arg-type]
        return True
    except (TypeError, ValueError):
        return False


def row_mondrian(
    dataset: Dataset, k: int, quasi_identifiers: Optional[Sequence[str]] = None
) -> AnonymizationResult:
    """Mondrian local recoding over dict records: Python sets of each box's
    values, ``sorted`` median splits and a ``float()`` per value."""
    if quasi_identifiers is None:
        quasi_identifiers = dataset.schema.protected_names
    quasi_identifiers = tuple(quasi_identifiers)
    if len(dataset) and len(dataset) < k:
        raise AnonymizationError(f"dataset has {len(dataset)} records, cannot be {k}-anonymous")
    generalized: List[Record] = []
    for box in _row_partition(dataset.to_records(), quasi_identifiers, k):
        summary = _row_summarize_box(box, quasi_identifiers)
        generalized.extend({**record, **summary} for record in box)
    # Back to the original row order.
    order = {uid: index for index, uid in enumerate(dataset.uids)}
    generalized.sort(key=lambda record: order[record["uid"]])
    return AnonymizationResult(
        dataset=_records_dataset(
            _generalized_schema(dataset.schema, quasi_identifiers),
            generalized,
            f"{dataset.name}/mondrian-k={k}",
        ),
        k=k,
        quasi_identifiers=quasi_identifiers,
        levels={},
        method="mondrian",
    )


def _row_partition(
    records: List[Record], quasi_identifiers: Sequence[str], k: int
) -> List[List[Record]]:
    if len(records) < 2 * k:
        return [records]
    attribute = _row_widest_attribute(records, quasi_identifiers)
    if attribute is None:
        return [records]
    values = [record[attribute] for record in records]
    if all(_is_number(v) for v in values):
        ordered = sorted(records, key=lambda r: (float(r[attribute]), r["uid"]))  # type: ignore
    else:
        ordered = sorted(records, key=lambda r: (str(r[attribute]), r["uid"]))  # type: ignore
    middle = len(ordered) // 2
    left, right = ordered[:middle], ordered[middle:]
    if len(left) < k or len(right) < k:
        return [records]
    return _row_partition(left, quasi_identifiers, k) + _row_partition(right, quasi_identifiers, k)


def _row_widest_attribute(
    records: List[Record], quasi_identifiers: Sequence[str]
) -> Optional[str]:
    best_name = None
    best_width = -1.0
    for name in quasi_identifiers:
        values = [record[name] for record in records]
        distinct = set(values)
        if len(distinct) < 2:
            continue
        if all(_is_number(v) for v in values):
            numeric = [float(v) for v in values]  # type: ignore[arg-type]
            width = max(numeric) - min(numeric)
        else:
            width = float(len(distinct))
        if width > best_width:
            best_width = width
            best_name = name
    return best_name


def _row_summarize_box(box: List[Record], quasi_identifiers: Sequence[str]) -> Record:
    summary: Record = {}
    for name in quasi_identifiers:
        distinct = sorted(
            set(record[name] for record in box), key=lambda v: (str(type(v)), str(v))
        )
        if len(distinct) == 1:
            summary[name] = distinct[0]
        elif all(_is_number(v) for v in distinct):
            numbers = [float(v) for v in distinct]  # type: ignore[arg-type]
            low, high = min(numbers), max(numbers)
            if low.is_integer() and high.is_integer():
                summary[name] = f"[{int(low)}-{int(high)}]"
            else:
                summary[name] = f"[{low:g}-{high:g}]"
        else:
            summary[name] = CATEGORICAL_JOINER.join(str(v) for v in distinct)
    return summary
