"""Attribute schema for individuals in a job marketplace.

FaiRank distinguishes two kinds of attributes (Definition 1 of the paper):

* **protected** attributes ``A = {a1, ..., an}`` — inherent properties such as
  gender, country, year of birth, language or ethnicity.  Partitionings are
  built exclusively from combinations of protected-attribute values.
* **observed** attributes ``B = {b1, ..., bm}`` — skills and performance
  signals such as a language-test score or a platform rating.  Scoring
  functions are linear combinations of observed attributes.

A :class:`Schema` is an immutable description of both attribute sets, plus
optional declared domains for categorical protected attributes (used by the
exhaustive enumerator and by the anonymisation hierarchies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownAttributeError

__all__ = [
    "AttributeKind",
    "AttributeType",
    "Attribute",
    "Schema",
]


class AttributeKind(str, Enum):
    """Whether an attribute is protected (demographic) or observed (skill)."""

    PROTECTED = "protected"
    OBSERVED = "observed"


class AttributeType(str, Enum):
    """Value type of an attribute.

    ``CATEGORICAL`` attributes take values from a finite unordered domain
    (gender, country, ethnicity).  ``ORDINAL`` attributes take values from a
    finite *ordered* domain (experience bands, age bands) — ordering matters
    for generalisation hierarchies.  ``NUMERIC`` attributes are real-valued
    (test scores, ratings) and are what scoring functions consume.
    """

    CATEGORICAL = "categorical"
    ORDINAL = "ordinal"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Attribute:
    """A single named attribute.

    Parameters
    ----------
    name:
        Unique attribute name within the schema (e.g. ``"Gender"``).
    kind:
        Protected or observed.
    atype:
        Categorical, ordinal or numeric.
    domain:
        Optional declared domain.  For categorical/ordinal attributes this is
        the tuple of admissible values (order meaningful for ordinal
        attributes).  For numeric attributes it may be ``None`` or a
        ``(low, high)`` pair used for validation and histogram ranges.
    description:
        Free-text documentation shown by the session layer.
    """

    name: str
    kind: AttributeKind
    atype: AttributeType = AttributeType.CATEGORICAL
    domain: Optional[Tuple] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("attribute name must be a non-empty string")
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))
            if self.atype is AttributeType.NUMERIC:
                if len(self.domain) != 2:
                    raise SchemaError(
                        f"numeric attribute {self.name!r} domain must be (low, high), "
                        f"got {self.domain!r}"
                    )
                low, high = self.domain
                if not (float(low) <= float(high)):
                    raise SchemaError(
                        f"numeric attribute {self.name!r} has empty domain "
                        f"({low!r} > {high!r})"
                    )
            elif len(set(self.domain)) != len(self.domain):
                raise SchemaError(
                    f"attribute {self.name!r} domain contains duplicate values"
                )

    @property
    def is_protected(self) -> bool:
        """True if this attribute may be used to form partitions."""
        return self.kind is AttributeKind.PROTECTED

    @property
    def is_observed(self) -> bool:
        """True if this attribute may be used by a scoring function."""
        return self.kind is AttributeKind.OBSERVED

    @property
    def is_numeric(self) -> bool:
        return self.atype is AttributeType.NUMERIC

    def validate_value(self, value: object) -> bool:
        """Return True if ``value`` is admissible for this attribute.

        Values outside a declared categorical domain are rejected; numeric
        values outside a declared (low, high) range are rejected.  Attributes
        without a declared domain accept any value of a sensible type.
        """
        if value is None:
            return False
        if self.atype is AttributeType.NUMERIC:
            try:
                fval = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return False
            if self.domain is not None:
                low, high = self.domain
                return float(low) <= fval <= float(high)
            return True
        if self.domain is not None:
            return value in self.domain
        return True


def protected(
    name: str,
    domain: Optional[Sequence] = None,
    atype: AttributeType = AttributeType.CATEGORICAL,
    description: str = "",
) -> Attribute:
    """Convenience constructor for a protected attribute."""
    return Attribute(
        name=name,
        kind=AttributeKind.PROTECTED,
        atype=atype,
        domain=tuple(domain) if domain is not None else None,
        description=description,
    )


def observed(
    name: str,
    domain: Optional[Sequence] = None,
    atype: AttributeType = AttributeType.NUMERIC,
    description: str = "",
) -> Attribute:
    """Convenience constructor for an observed (skill) attribute."""
    return Attribute(
        name=name,
        kind=AttributeKind.OBSERVED,
        atype=atype,
        domain=tuple(domain) if domain is not None else None,
        description=description,
    )


@dataclass(frozen=True)
class Schema:
    """An immutable collection of attributes with unique names.

    The schema is the single source of truth for which attributes are
    protected (usable for partitioning) and which are observed (usable for
    scoring).  It is deliberately independent of any particular storage so
    that datasets, anonymisers and marketplaces can share it.
    """

    attributes: Tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names in schema: {dupes}")

    # -- look-ups ---------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return any(a.name == name for a in self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> Tuple[str, ...]:
        """All attribute names, in declaration order."""
        return tuple(a.name for a in self.attributes)

    @property
    def protected_names(self) -> Tuple[str, ...]:
        """Names of protected attributes, in declaration order."""
        return tuple(a.name for a in self.attributes if a.is_protected)

    @property
    def observed_names(self) -> Tuple[str, ...]:
        """Names of observed attributes, in declaration order."""
        return tuple(a.name for a in self.attributes if a.is_observed)

    @property
    def protected_attributes(self) -> Tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.is_protected)

    @property
    def observed_attributes(self) -> Tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.is_observed)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``.

        Raises
        ------
        UnknownAttributeError
            If no attribute with that name exists.
        """
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise UnknownAttributeError(name, self.names)

    def require_protected(self, name: str) -> Attribute:
        """Return the protected attribute ``name`` or raise :class:`SchemaError`."""
        attr = self.attribute(name)
        if not attr.is_protected:
            raise SchemaError(f"attribute {name!r} is not protected")
        return attr

    # -- construction helpers --------------------------------------------

    def replace_attribute(self, attribute: Attribute) -> "Schema":
        """Return a new schema with the same-named attribute replaced."""
        self.attribute(attribute.name)  # raise if missing
        return Schema(
            tuple(attribute if a.name == attribute.name else a for a in self.attributes)
        )
