"""Tests for repro.data.schema."""

import pytest

from repro.data.schema import (
    Attribute,
    AttributeKind,
    AttributeType,
    Schema,
    observed,
    protected,
)
from repro.errors import SchemaError, UnknownAttributeError


class TestAttribute:
    def test_protected_constructor_sets_kind(self):
        attr = protected("Gender", domain=("Female", "Male"))
        assert attr.kind is AttributeKind.PROTECTED
        assert attr.is_protected
        assert not attr.is_observed

    def test_observed_constructor_is_numeric_by_default(self):
        attr = observed("Rating")
        assert attr.kind is AttributeKind.OBSERVED
        assert attr.atype is AttributeType.NUMERIC
        assert attr.is_numeric

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute(name="", kind=AttributeKind.PROTECTED)

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(SchemaError):
            protected("Gender", domain=("Male", "Male"))

    def test_numeric_domain_must_be_low_high(self):
        with pytest.raises(SchemaError):
            observed("Rating", domain=(0.0, 0.5, 1.0))

    def test_numeric_domain_must_be_ordered(self):
        with pytest.raises(SchemaError):
            observed("Rating", domain=(1.0, 0.0))

    def test_validate_value_categorical_domain(self):
        attr = protected("Gender", domain=("Female", "Male"))
        assert attr.validate_value("Female")
        assert not attr.validate_value("Unknown")
        assert not attr.validate_value(None)

    def test_validate_value_numeric_range(self):
        attr = observed("Rating", domain=(0.0, 1.0))
        assert attr.validate_value(0.5)
        assert attr.validate_value(0)
        assert not attr.validate_value(1.5)
        assert not attr.validate_value("not-a-number")

    def test_validate_value_without_domain_accepts_anything_sensible(self):
        attr = protected("City")
        assert attr.validate_value("Grenoble")
        assert not attr.validate_value(None)


class TestSchema:
    def _schema(self):
        return Schema((
            protected("Gender", domain=("Female", "Male")),
            protected("Country", domain=("America", "India")),
            observed("Rating", domain=(0.0, 1.0)),
            observed("Skill"),
        ))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema((protected("Gender"), observed("Gender")))

    def test_names_and_partitions_of_kinds(self):
        schema = self._schema()
        assert schema.names == ("Gender", "Country", "Rating", "Skill")
        assert schema.protected_names == ("Gender", "Country")
        assert schema.observed_names == ("Rating", "Skill")
        assert len(schema.protected_attributes) == 2
        assert len(schema.observed_attributes) == 2

    def test_contains_and_len_and_iter(self):
        schema = self._schema()
        assert "Gender" in schema
        assert "Unknown" not in schema
        assert len(schema) == 4
        assert [a.name for a in schema] == list(schema.names)

    def test_attribute_lookup_and_error(self):
        schema = self._schema()
        assert schema.attribute("Rating").is_observed
        with pytest.raises(UnknownAttributeError) as excinfo:
            schema.attribute("Missing")
        assert "Missing" in str(excinfo.value)

    def test_require_protected(self):
        schema = self._schema()
        assert schema.require_protected("Gender").name == "Gender"
        with pytest.raises(SchemaError):
            schema.require_protected("Rating")

    def test_replace_attribute(self):
        schema = self._schema()
        replaced = schema.replace_attribute(protected("Gender", domain=("X", "Y")))
        assert replaced.attribute("Gender").domain == ("X", "Y")
        with pytest.raises(UnknownAttributeError):
            schema.replace_attribute(protected("Nope"))
