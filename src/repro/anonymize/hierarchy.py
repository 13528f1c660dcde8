"""Generalisation hierarchies for k-anonymisation.

The paper anonymises datasets with the ARX tool before feeding them to
FaiRank.  ARX's central abstraction is the *generalisation hierarchy*: each
quasi-identifier attribute has a ladder of increasingly coarse value
mappings, ending in full suppression ("*").  We reproduce that abstraction:

* :class:`CategoricalHierarchy` — explicit value -> ancestor ladders
  (e.g. ``Paris -> France -> Europe -> *``);
* :class:`IntervalHierarchy` — numeric/ordinal values generalised into
  progressively wider intervals (e.g. year of birth -> decade -> 20-year band
  -> ``*``), the standard treatment for ages and dates.

A :class:`GeneralizationLevel` of 0 always means "original value"; the
highest level always maps every value to ``SUPPRESSED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import AnonymizationError

__all__ = [
    "SUPPRESSED",
    "GeneralizationHierarchy",
    "CategoricalHierarchy",
    "IntervalHierarchy",
    "identity_hierarchy",
]

#: The fully suppressed value (top of every hierarchy), rendered like ARX.
SUPPRESSED = "*"


class GeneralizationHierarchy:
    """Interface of a per-attribute generalisation hierarchy."""

    #: Name of the attribute this hierarchy generalises.
    attribute: str = ""

    @property
    def height(self) -> int:
        """Number of levels above the original values (level ``height`` = suppression)."""
        raise NotImplementedError

    def generalize(self, value: object, level: int) -> object:
        """Return ``value`` generalised to the given level."""
        raise NotImplementedError

    def validate_level(self, level: int) -> int:
        if not 0 <= level <= self.height:
            raise AnonymizationError(
                f"generalisation level {level} out of range [0, {self.height}] "
                f"for attribute {self.attribute!r}"
            )
        return level


@dataclass
class CategoricalHierarchy(GeneralizationHierarchy):
    """Explicit per-value generalisation ladders for a categorical attribute.

    ``ladders`` maps each original value to the tuple of its ancestors from
    level 1 upwards (the final suppression level is implicit and does not
    need to be listed).  All ladders are padded to the same height with their
    last ancestor so the hierarchy is uniform, as ARX requires.
    """

    attribute: str
    ladders: Mapping[object, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: Dict[object, Tuple[object, ...]] = {}
        max_height = 0
        for value, ancestors in self.ladders.items():
            chain = tuple(ancestors)
            cleaned[value] = chain
            max_height = max(max_height, len(chain))
        padded: Dict[object, Tuple[object, ...]] = {}
        for value, chain in cleaned.items():
            if len(chain) < max_height:
                filler = chain[-1] if chain else value
                chain = chain + (filler,) * (max_height - len(chain))
            padded[value] = chain
        self.ladders = padded
        self._height = max_height + 1  # +1 for the suppression level

    @property
    def height(self) -> int:
        return self._height

    def generalize(self, value: object, level: int) -> object:
        level = self.validate_level(level)
        if level == 0:
            return value
        if level == self.height:
            return SUPPRESSED
        chain = self.ladders.get(value)
        if chain is None:
            # Unknown values can only be suppressed; any positive level hides them.
            return SUPPRESSED
        return chain[level - 1]


@dataclass
class IntervalHierarchy(GeneralizationHierarchy):
    """Numeric values generalised into progressively wider intervals.

    ``widths`` lists the interval width used at each level (level 1 uses
    ``widths[0]``, level 2 ``widths[1]``, ...); intervals are aligned to
    ``origin``.  Generalised values are rendered as ``"[low-high)"`` strings
    so they behave as ordinary categorical values downstream.
    """

    attribute: str
    widths: Sequence[float] = (10.0,)
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not self.widths:
            raise AnonymizationError(f"hierarchy for {self.attribute!r} needs at least one width")
        cleaned = [float(w) for w in self.widths]
        if any(w <= 0 for w in cleaned):
            raise AnonymizationError("interval widths must be positive")
        if any(b < a for a, b in zip(cleaned, cleaned[1:])):
            raise AnonymizationError("interval widths must be non-decreasing across levels")
        self.widths = tuple(cleaned)

    @property
    def height(self) -> int:
        return len(self.widths) + 1  # +1 for the suppression level

    def generalize(self, value: object, level: int) -> object:
        level = self.validate_level(level)
        if level == 0:
            return value
        if level == self.height:
            return SUPPRESSED
        try:
            numeric = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return SUPPRESSED
        width = self.widths[level - 1]
        offset = numeric - self.origin
        low = self.origin + (offset // width) * width
        high = low + width
        if float(low).is_integer() and float(high).is_integer():
            return f"[{int(low)}-{int(high)})"
        return f"[{low:g}-{high:g})"


def identity_hierarchy(attribute: str) -> CategoricalHierarchy:
    """A degenerate hierarchy whose only generalisation is full suppression."""
    return CategoricalHierarchy(attribute=attribute, ladders={})
