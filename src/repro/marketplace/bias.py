"""Controlled bias injection for synthetic marketplace data.

The reproduction cannot use the paper's crawled Qapa/TaskRabbit/Fiverr data
(never released), so the generators plant *known* group-conditional score
gaps instead.  A :class:`BiasSpec` describes one such planted effect — "this
subgroup's observed attributes are shifted by delta" — which gives every
experiment a ground truth to recover: the most-unfair partitioning found by
QUANTIFY should isolate (a superset of) the biased subgroup, and unfairness
should grow with the planted gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.data.columns import CodedColumn, ColumnStore, NumericColumn
from repro.data.dataset import Dataset
from repro.data.filters import And, Equals
from repro.errors import MarketplaceError

__all__ = ["BiasSpec", "apply_bias"]


@dataclass(frozen=True)
class BiasSpec:
    """A planted group-conditional shift on observed attributes.

    Attributes
    ----------
    conditions:
        Mapping of protected attribute -> value; the shift applies to
        individuals matching *all* conditions (intersectional subgroups are
        expressed with several conditions).
    shifts:
        Mapping of observed attribute -> additive shift applied to matching
        individuals (values are clamped back into [0, 1]).
    name:
        Optional label used in experiment tables.
    """

    conditions: Tuple[Tuple[str, object], ...]
    shifts: Tuple[Tuple[str, float], ...]
    name: str = ""

    def __init__(
        self,
        conditions: Mapping[str, object],
        shifts: Mapping[str, float],
        name: str = "",
    ) -> None:
        object.__setattr__(self, "conditions", tuple(sorted(conditions.items())))
        object.__setattr__(self, "shifts", tuple(sorted((k, float(v)) for k, v in shifts.items())))
        object.__setattr__(self, "name", name or self._default_name())
        if not self.conditions:
            raise MarketplaceError("a bias spec needs at least one protected-attribute condition")
        if not self.shifts:
            raise MarketplaceError("a bias spec needs at least one observed-attribute shift")

    def _default_name(self) -> str:
        condition_text = ",".join(f"{attr}={value}" for attr, value in self.conditions)
        return f"bias[{condition_text}]"

    @property
    def subgroup(self) -> And:
        """The biased subgroup as a filter: every condition holds."""
        return And(tuple(Equals(attr, value) for attr, value in self.conditions))

    @property
    def condition_attributes(self) -> Tuple[str, ...]:
        return tuple(attr for attr, _ in self.conditions)

    @property
    def shifted_attributes(self) -> Tuple[str, ...]:
        return tuple(attr for attr, _ in self.shifts)

    def describe(self) -> str:
        condition_text = " and ".join(f"{attr}={value!r}" for attr, value in self.conditions)
        shift_text = ", ".join(f"{attr}{shift:+.2f}" for attr, shift in self.shifts)
        return f"{self.name}: if {condition_text} then {shift_text}"


def apply_bias(
    dataset: Dataset,
    specs: Sequence[BiasSpec],
    clamp: Tuple[float, float] = (0.0, 1.0),
) -> Dataset:
    """Apply planted biases to a dataset, returning a new dataset.

    Shifts accumulate when several specs match the same individual.  Observed
    values are clamped into ``clamp`` so they remain valid scores.
    """
    for spec in specs:
        for attr in spec.condition_attributes:
            if attr not in dataset.schema:
                raise MarketplaceError(f"bias condition uses unknown attribute {attr!r}")
        for attr in spec.shifted_attributes:
            attribute = dataset.schema.attribute(attr)
            if not attribute.is_observed:
                raise MarketplaceError(
                    f"bias shifts must target observed attributes, got {attr!r}"
                )
    low, high = clamp
    store = dataset.store
    masks = [spec.subgroup.mask(dataset) for spec in specs]
    columns = {name: store[name] for name in store.names}
    for attr in dict.fromkeys(a for spec in specs for a in spec.shifted_attributes):
        column = store[attr]
        values = dataset.numeric_column(attr)
        rows = np.zeros(store.n, dtype=bool)
        for spec, mask in zip(specs, masks):
            for name, shift in spec.shifts:
                if name == attr:
                    values[mask] += shift
                    rows |= mask
        values[rows] = np.clip(values[rows], low, high)
        if isinstance(column, CodedColumn):
            # Untouched rows keep their exact values; shifted floats are new entries.
            shifted = NumericColumn(values[rows]).coded()
            codes = column.codes.copy()
            codes[rows] = len(column.values) + shifted.codes
            columns[attr] = CodedColumn(codes, column.values + shifted.values)
        else:
            columns[attr] = NumericColumn(values)
    store = ColumnStore(store.n, columns, uids=store.explicit_uids)
    return Dataset(dataset.schema, store, name=f"{dataset.name}/biased", validate=False)
