"""Tests for repro.data.loaders, in particular the Table 1 reproduction."""

import pytest

from repro.data.loaders import (
    TABLE1_PUBLISHED_SCORES,
    TABLE1_WEIGHTS,
    load_csv,
    table1_schema,
)
from repro.errors import DataError
from repro.scoring.linear import LinearScoringFunction


class TestTable1:
    def test_ten_individuals(self, table1_dataset):
        assert len(table1_dataset) == 10
        assert table1_dataset.uids == tuple(f"w{i}" for i in range(1, 11))

    def test_schema_roles(self):
        schema = table1_schema()
        assert set(schema.protected_names) == {
            "Gender", "Country", "Year of Birth", "Language", "Ethnicity", "Experience",
        }
        assert set(schema.observed_names) == {"Language Test", "Rating"}

    def test_row_w7_matches_paper(self, table1_dataset):
        w7 = table1_dataset.to_records()[6]
        assert w7["uid"] == "w7"
        assert w7["Gender"] == "Female"
        assert w7["Country"] == "America"
        assert w7["Ethnicity"] == "African-American"
        assert w7["Language Test"] == 0.95
        assert w7["Rating"] == 0.98

    def test_published_scores_reproduced_exactly(self, table1_dataset, table1_function):
        scores = dict(zip(table1_dataset.uids, table1_function.score_dataset(table1_dataset)))
        for uid, published in TABLE1_PUBLISHED_SCORES.items():
            assert scores[uid] == pytest.approx(published, abs=1e-9), uid

    def test_weights_are_normalised(self):
        function = LinearScoringFunction(TABLE1_WEIGHTS)
        assert sum(function.weights.values()) == pytest.approx(1.0)

    def test_gender_counts_match_paper(self, table1_dataset):
        counts = table1_dataset.value_counts("Gender")
        assert counts == {"Female": 4, "Male": 6}


class TestLoadCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "workers.csv"
        path.write_text(
            "Gender,City,Rating\nF,NY,0.9\nM,SF,0.4\nF,SF,0.7\n", encoding="utf-8"
        )
        ds = load_csv(path, protected_names=["Gender", "City"], observed_names=["Rating"])
        assert len(ds) == 3
        assert tuple(record["Gender"] for record in ds.to_records()) == ("F", "M", "F")
        assert ds.numeric_column("Rating").tolist() == [0.9, 0.4, 0.7]
        assert ds.name == "workers"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(
                tmp_path / "missing.csv", protected_names=["Gender"], observed_names=["Rating"]
            )

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Gender,Rating\nF,0.9\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(path, protected_names=["Gender", "City"], observed_names=["Rating"])

    def test_non_numeric_observed_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Gender,Rating\nF,not-a-number\n", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, protected_names=["Gender"], observed_names=["Rating"])
        assert "Rating" in str(excinfo.value)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("Gender,Rating\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(path, protected_names=["Gender"], observed_names=["Rating"])

    def test_duplicate_header_column_fails_fast(self, tmp_path):
        # A duplicated column makes the name -> value mapping ambiguous;
        # silently keeping one copy used to surface later as a confusing
        # downstream failure.  It must fail at the header, naming the column.
        path = tmp_path / "dup.csv"
        path.write_text(
            "Gender,Rating,Gender\nF,0.9,M\nM,0.4,F\n", encoding="utf-8"
        )
        with pytest.raises(DataError) as excinfo:
            load_csv(path, protected_names=["Gender"], observed_names=["Rating"])
        message = str(excinfo.value)
        assert "duplicate CSV header column" in message
        assert "'Gender'" in message

    def test_duplicate_header_names_every_offender(self, tmp_path):
        path = tmp_path / "dup2.csv"
        path.write_text(
            "Gender,Gender,Rating,Rating\nF,M,0.9,0.4\n", encoding="utf-8"
        )
        with pytest.raises(DataError) as excinfo:
            load_csv(path, protected_names=["Gender"], observed_names=["Rating"])
        message = str(excinfo.value)
        assert "'Gender'" in message
        assert "'Rating'" in message
