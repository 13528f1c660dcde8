"""Data substrate: schemas, datasets, filters and loaders (S1)."""

from repro.data.dataset import Dataset
from repro.data.filters import (
    And,
    Between,
    Equals,
    Filter,
    Not,
    OneOf,
    Or,
    TrueFilter,
)
from repro.data.loaders import (
    TABLE1_PUBLISHED_SCORES,
    TABLE1_WEIGHTS,
    load_csv,
    load_example_table1,
    table1_schema,
)
from repro.data.schema import (
    Attribute,
    AttributeKind,
    AttributeType,
    Schema,
    observed,
    protected,
)

__all__ = [
    "Attribute",
    "AttributeKind",
    "AttributeType",
    "Schema",
    "protected",
    "observed",
    "Dataset",
    "Filter",
    "TrueFilter",
    "Equals",
    "OneOf",
    "Between",
    "Not",
    "And",
    "Or",
    "load_example_table1",
    "table1_schema",
    "load_csv",
    "TABLE1_WEIGHTS",
    "TABLE1_PUBLISHED_SCORES",
]
