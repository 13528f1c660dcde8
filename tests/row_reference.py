"""Row-at-a-time references for row selection, planted bias and recoding.

``repro`` answers "which rows?" and "rewrite this column" over column
arrays: filters compile to masks over codes (``repro.data.filters``),
``apply_bias`` shifts observed columns under a subgroup mask, ``map_column``
remaps decode tables and global recoding counts equivalence classes over
codes.  This module keeps the direct way — build an
:class:`~repro.data.dataset.Individual` per row, test or rewrite it in
Python, re-ingest the rows — so the property tests can check that the
column paths give the same rows, values and fingerprints.

Tests import it as ``row_reference``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.anonymize.hierarchy import GeneralizationHierarchy
from repro.anonymize.kanonymity import AnonymizationResult, _generalized_schema, default_hierarchies
from repro.data.dataset import Dataset, Individual
from repro.data.filters import And, Between, Equals, Filter, Not, OneOf, Or, TrueFilter
from repro.data.schema import Attribute, AttributeType
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
]


class _Missing:
    """Sentinel distinct from any attribute value (including None)."""

    def __eq__(self, other: object) -> bool:
        return False

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)


_MISSING = _Missing()


def row_matches(row_filter: Filter, individual: Individual) -> bool:
    """Whether ``row_filter`` selects one row, evaluated on its Python values."""
    if isinstance(row_filter, TrueFilter):
        return True
    if isinstance(row_filter, Equals):
        return individual.get(row_filter.attribute, _MISSING) == row_filter.value
    if isinstance(row_filter, OneOf):
        return individual.get(row_filter.attribute, _MISSING) in row_filter.values
    if isinstance(row_filter, Between):
        value = individual.get(row_filter.attribute, None)
        if value is None:
            return False
        try:
            numeric = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return row_filter.low <= numeric <= row_filter.high
    if isinstance(row_filter, Not):
        return not row_matches(row_filter.inner, individual)
    if isinstance(row_filter, And):
        return all(row_matches(part, individual) for part in row_filter.parts)
    if isinstance(row_filter, Or):
        return any(row_matches(part, individual) for part in row_filter.parts)
    raise TypeError(f"no row reference for {type(row_filter).__name__}")


def row_filter_uids(dataset: Dataset, row_filter: Filter) -> Tuple[str, ...]:
    """The uids of the rows ``row_filter`` selects, in row order."""
    return tuple(row.uid for row in dataset if row_matches(row_filter, row))


def _spec_matches(spec: BiasSpec, individual: Individual) -> bool:
    return all(individual.get(attr) == value for attr, value in spec.conditions)


def row_apply_bias(
    dataset: Dataset,
    specs: Sequence[BiasSpec],
    clamp: Tuple[float, float] = (0.0, 1.0),
) -> Dataset:
    """Planted biases applied row by row, the rows re-ingested."""
    low, high = clamp
    individuals = []
    for individual in dataset:
        updates: Dict[str, float] = {}
        for spec in specs:
            if not _spec_matches(spec, individual):
                continue
            for attr, shift in spec.shifts:
                current = updates.get(
                    attr, float(individual.values[attr])  # type: ignore[arg-type]
                )
                updates[attr] = current + shift
        if updates:
            clamped = {attr: float(np.clip(value, low, high)) for attr, value in updates.items()}
            individuals.append(individual.with_values(**clamped))
        else:
            individuals.append(individual)
    return Dataset(dataset.schema, individuals, name=f"{dataset.name}/biased", validate=False)


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
    individuals = tuple(
        ind.with_values(**{name: mapper(ind.values[name])}) for ind in dataset
    )
    return Dataset(
        dataset.schema.replace_attribute(new_attr), individuals, name=dataset.name, validate=False
    )


def row_equivalence_classes(
    dataset: Dataset, quasi_identifiers: Sequence[str]
) -> Dict[Tuple[object, ...], int]:
    """Class sizes keyed by each row's tuple of quasi-identifier values."""
    classes: Dict[Tuple[object, ...], int] = {}
    for individual in dataset:
        key = tuple(individual.values[name] for name in quasi_identifiers)
        classes[key] = classes.get(key, 0) + 1
    return classes


def row_generalised_cells(dataset: Dataset, quasi_identifiers: Sequence[str]) -> Tuple[int, int]:
    """(generalised cells, all cells) of the quasi-identifier columns, row by row."""
    generalised = total = 0
    for individual in dataset:
        for name in quasi_identifiers:
            total += 1
            value = individual.values[name]
            if isinstance(value, str) and (value.startswith("[") or "|" in value or value == "*"):
                generalised += 1
    return generalised, total


def _row_apply_levels(
    dataset: Dataset,
    hierarchies: Mapping[str, GeneralizationHierarchy],
    levels: Mapping[str, int],
    quasi_identifiers: Sequence[str],
) -> Dataset:
    schema = _generalized_schema(dataset.schema, quasi_identifiers)
    individuals = []
    for individual in dataset:
        updates = {
            name: hierarchies[name].generalize(individual.values[name], levels[name])
            for name in quasi_identifiers
        }
        individuals.append(individual.with_values(**updates))
    return Dataset(schema, individuals, name=f"{dataset.name}/generalized", validate=False)


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
        suppressed: List[str] = [
            individual.uid
            for individual in generalized
            if tuple(individual.values[name] for name in quasi_identifiers) in violating
        ]
        if len(suppressed) <= max_suppressed:
            dropped = set(suppressed)
            kept = [individual for individual in generalized if individual.uid not in dropped]
            return AnonymizationResult(
                dataset=Dataset(
                    generalized.schema, kept, name=f"{dataset.name}/k={k}", validate=False
                ),
                k=k,
                quasi_identifiers=quasi_identifiers,
                levels=levels,
                suppressed_uids=tuple(suppressed),
            )
    raise AnonymizationError(f"could not achieve {k}-anonymity on {dataset.name!r}")
