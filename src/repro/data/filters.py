"""Row selection over protected attributes.

The FaiRank interface lets a user "filter the individuals based on protected
attributes … say only individuals who speak Arabic or who are located in New
York city" (paper §2).  This module provides a small, composable filter
algebra that session filters, job candidates, end-user groups and planted-bias
subgroups use to express such selections declaratively (and to print them
back to the user).  It is the one definition of "these rows": a filter
compiles to a boolean mask over a dataset's columns, and
:meth:`Dataset.filter` turns the mask into a view.  A leaf tests each
distinct value of its column once, with Python's own comparison, and the
answers are indexed by the row codes; no row object is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "Filter",
    "Equals",
    "OneOf",
    "Between",
    "Not",
    "And",
    "Or",
    "TrueFilter",
]


class Filter:
    """Base class for declarative row selections.

    Subclasses implement :meth:`mask`.  Filters compose with ``&``, ``|``
    and ``~`` and render to a human-readable string via ``describe()``.
    """

    def mask(self, dataset: Dataset) -> np.ndarray:
        """One ``bool`` per row of ``dataset``; an attribute outside its
        schema raises :class:`~repro.errors.UnknownAttributeError`."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __and__(self, other: "Filter") -> "Filter":
        return And((self, other))

    def __or__(self, other: "Filter") -> "Filter":
        return Or((self, other))

    def __invert__(self) -> "Filter":
        return Not(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


@dataclass(frozen=True)
class TrueFilter(Filter):
    """Matches every individual (the default, no-op filter)."""

    def mask(self, dataset: Dataset) -> np.ndarray:
        return np.ones(len(dataset), dtype=bool)

    def describe(self) -> str:
        return "all individuals"


class _Leaf(Filter):
    """A test of one attribute's values: :meth:`_accepts` runs once per
    distinct value of the column."""

    attribute: str

    def mask(self, dataset: Dataset) -> np.ndarray:
        dataset.schema.attribute(self.attribute)
        column = dataset.store[self.attribute].coded()
        table = column.values
        return np.fromiter(map(self._accepts, table), dtype=bool, count=len(table))[column.codes]


@dataclass(frozen=True)
class Equals(_Leaf):
    """``attribute == value``."""

    attribute: str
    value: object

    def _accepts(self, value: object) -> bool:
        return bool(value == self.value)

    def describe(self) -> str:
        return f"{self.attribute} = {self.value!r}"


@dataclass(frozen=True)
class OneOf(_Leaf):
    """``attribute`` takes one of the given values."""

    attribute: str
    values: Tuple[object, ...]

    def __init__(self, attribute: str, values: Iterable[object]):
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", tuple(values))

    def _accepts(self, value: object) -> bool:
        return value in self.values

    def describe(self) -> str:
        rendered = ", ".join(repr(v) for v in self.values)
        return f"{self.attribute} in {{{rendered}}}"


@dataclass(frozen=True)
class Between(_Leaf):
    """``low <= attribute <= high`` for numeric/ordinal attributes."""

    attribute: str
    low: float
    high: float

    def _accepts(self, value: object) -> bool:
        try:
            numeric = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        return self.low <= numeric <= self.high

    def describe(self) -> str:
        return f"{self.low} <= {self.attribute} <= {self.high}"


@dataclass(frozen=True)
class Not(Filter):
    """Logical negation of another filter."""

    inner: Filter

    def mask(self, dataset: Dataset) -> np.ndarray:
        return ~self.inner.mask(dataset)

    def describe(self) -> str:
        return f"not ({self.inner.describe()})"


class _Combinator(Filter):
    """Shared machinery for And / Or."""

    _joiner = ""
    _empty_result = True
    _combine = staticmethod(np.logical_and)

    def __init__(self, parts: Iterable[Filter]):
        self.parts: Tuple[Filter, ...] = tuple(parts)

    def mask(self, dataset: Dataset) -> np.ndarray:
        result = np.full(len(dataset), self._empty_result)
        for part in self.parts:
            self._combine(result, part.mask(dataset), out=result)
        return result

    def describe(self) -> str:
        if not self.parts:
            return "all individuals"
        return f" {self._joiner} ".join(f"({p.describe()})" for p in self.parts)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.parts == other.parts  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.parts))


class And(_Combinator):
    """Conjunction of filters (matches when *all* parts match)."""

    _joiner = "and"


class Or(_Combinator):
    """Disjunction of filters (matches when *any* part matches)."""

    _joiner = "or"
    _empty_result = False
    _combine = staticmethod(np.logical_or)
