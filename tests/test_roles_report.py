"""Tests for repro.roles.report (ReportTable, format_table)."""

import pytest

from repro.roles.report import ReportTable, format_table


class TestFormatTable:
    def test_columns_are_aligned(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert len({line.index("|") for line in (lines[0], lines[2], lines[3])}) == 1

    def test_floats_are_rounded_to_four_decimals(self):
        text = format_table(["x"], [[0.123456789]])
        assert "0.1235" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestReportTable:
    def _table(self):
        table = ReportTable(title="Jobs", headers=["job", "unfairness"])
        table.add_row("writing", 0.5)
        table.add_row("coding", 1.5)
        table.add_row("design", 1.0)
        return table

    def test_add_row_validates_width(self):
        table = ReportTable(title="t", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_and_records(self):
        table = self._table()
        assert table.column("job") == ["writing", "coding", "design"]
        assert table.to_records()[1] == {"job": "coding", "unfairness": 1.5}
        with pytest.raises(ValueError):
            table.column("missing")

    def test_render_includes_title_rows_and_notes(self):
        table = self._table()
        table.add_note("a note about the data")
        text = table.render()
        assert "Jobs" in text
        assert "coding" in text
        assert "* a note about the data" in text

    def test_len(self):
        assert len(self._table()) == 3
