"""Streaming/columnar data-plane tests (repro.data.columns + loaders).

Three invariants the columnar rebuild promises:

* **chunk invariance** — ``load_csv`` produces a byte-identical dataset
  (same values, same content fingerprint, same scores) for every
  ``chunk_rows``, including one row per chunk and a single chunk covering
  the whole file;
* **restart durability** — a :class:`ColumnStore` saved to disk and
  memory-mapped back by a fresh process state yields the same values and
  the same content fingerprint, with the arrays still disk-backed;
* **snapshot round trip** — integer-coded protected columns (ints, bools,
  strings mixed in one column) survive a columnar catalog snapshot
  save/load exactly, types included (hypothesis property test).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, ResourceKind
from repro.data.columns import ColumnStore, ColumnStoreBuilder
from repro.data.dataset import Dataset
from repro.data.loaders import load_csv
from repro.data.schema import Schema, observed, protected
from repro.scoring.linear import LinearScoringFunction
from repro.service import FairnessService
from repro.service.fingerprint import fingerprint_dataset

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _write_csv(path: Path, rows: int = 23) -> Path:
    lines = ["Gender,City,Rating"]
    genders = ("F", "M")
    cities = ("NY", "SF", "LA")
    for i in range(rows):
        lines.append(
            f"{genders[i % 2]},{cities[i % 3]},{round(0.05 + (i % 19) / 20, 2)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestChunkedStreamingEquivalence:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 23, 1_000_000])
    def test_every_chunk_size_is_byte_identical(self, tmp_path, chunk_rows):
        """Chunked ingestion matches the one-shot load exactly: values,
        content fingerprint, and downstream scores."""
        path = _write_csv(tmp_path / "workers.csv")
        kwargs = dict(protected_names=["Gender", "City"], observed_names=["Rating"])
        one_shot = load_csv(path, chunk_rows=1_000_000, **kwargs)
        chunked = load_csv(path, chunk_rows=chunk_rows, **kwargs)

        assert len(chunked) == len(one_shot) == 23
        assert chunked.uids == one_shot.uids
        for name in ("Gender", "City", "Rating"):
            assert chunked.column(name) == one_shot.column(name)
        assert fingerprint_dataset(chunked) == fingerprint_dataset(one_shot)

        function = LinearScoringFunction({"Rating": 1.0}, name="rating")
        assert function.score_map(chunked) == function.score_map(one_shot)

    def test_chunked_matches_row_primary_dataset(self, tmp_path):
        """The streamed store-backed dataset fingerprints identically to a
        row-primary dataset built from the same records."""
        path = _write_csv(tmp_path / "workers.csv", rows=11)
        streamed = load_csv(
            path, protected_names=["Gender", "City"], observed_names=["Rating"]
        )
        records = [dict(ind.values) for ind in streamed]
        rows = Dataset.from_records(streamed.schema, records, name=streamed.name)
        assert fingerprint_dataset(rows) == fingerprint_dataset(streamed)


class TestMemmapReloadAfterRestart:
    def _dataset(self) -> Dataset:
        schema = Schema((
            protected("Gender", domain=("F", "M")),
            protected("City", domain=("NY", "SF", "LA")),
            observed("Rating", domain=(0.0, 1.0)),
        ))
        records = [
            {"Gender": "F", "City": "NY", "Rating": 0.9},
            {"Gender": "M", "City": "SF", "Rating": 0.4},
            {"Gender": "F", "City": "LA", "Rating": 0.7},
            {"Gender": "M", "City": "NY", "Rating": 0.2},
        ]
        return Dataset.from_records(schema, records, name="toy")

    def test_memmap_reload_preserves_values_and_fingerprint(self, tmp_path):
        original = self._dataset()
        directory = tmp_path / "columns"
        original.store.save(directory)

        # A fresh load from disk is exactly what a restarted server does.
        reloaded = Dataset.from_store(
            original.schema, ColumnStore.load(directory, mmap=True), name="toy"
        )
        assert len(reloaded) == len(original)
        assert reloaded.uids == original.uids
        for name in ("Gender", "City", "Rating"):
            assert reloaded.column(name) == original.column(name)
        assert fingerprint_dataset(reloaded) == fingerprint_dataset(original)

    def test_memmap_arrays_stay_disk_backed(self, tmp_path):
        directory = tmp_path / "columns"
        self._dataset().store.save(directory)
        store = ColumnStore.load(directory, mmap=True)
        backed = 0
        for name in store.names:
            column = store.column(name)
            array = column.codes if hasattr(column, "codes") else column.values
            base = array
            while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
                base = base.base
            if isinstance(base, np.memmap):
                backed += 1
        assert backed == len(store.names)

    def test_eager_load_matches_memmap_load(self, tmp_path):
        directory = tmp_path / "columns"
        original = self._dataset()
        original.store.save(directory)
        eager = Dataset.from_store(
            original.schema, ColumnStore.load(directory, mmap=False), name="toy"
        )
        mapped = Dataset.from_store(
            original.schema, ColumnStore.load(directory, mmap=True), name="toy"
        )
        assert fingerprint_dataset(eager) == fingerprint_dataset(mapped)

    def test_builder_chunks_match_single_append(self):
        columns = {
            "Gender": ["F", "M", "F", "M", "F"],
            "Rating": [0.9, 0.4, 0.7, 0.2, 0.6],
        }
        whole = ColumnStoreBuilder(["Gender"], ["Rating"])
        whole.append_chunk(columns)
        split = ColumnStoreBuilder(["Gender"], ["Rating"])
        for start in range(0, 5, 2):
            split.append_chunk(
                {name: values[start:start + 2] for name, values in columns.items()}
            )
        one, two = whole.finish(), split.finish()
        for name in ("Gender", "Rating"):
            assert one.column(name).decode_range(0, 5) == (
                two.column(name).decode_range(0, 5)
            )


#: Values an integer-coded protected column may hold: the encode table must
#: keep 1, 1.0, True and "1" distinct and return each with its exact type.
coded_values = st.one_of(
    st.integers(min_value=-1_000, max_value=1_000),
    st.booleans(),
    st.sampled_from(["alpha", "beta", "gamma", "1", ""]),
)


class TestSnapshotRoundTripProperty:
    @SETTINGS
    @given(
        st.lists(coded_values, min_size=1, max_size=30),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
            min_size=1,
            max_size=30,
        ),
    )
    def test_integer_coded_columns_round_trip_snapshot(self, codes, ratings):
        """Protected columns of mixed ints/bools/strings survive a columnar
        catalog snapshot save/load with exact values and exact types."""
        size = min(len(codes), len(ratings))
        codes, ratings = codes[:size], ratings[:size]
        schema = Schema((
            protected("Code"),
            observed("Rating", domain=(0.0, 1.0)),
        ))
        records = [
            {"Code": code, "Rating": float(rating)}
            for code, rating in zip(codes, ratings)
        ]
        original = Dataset.from_records(schema, records, name="prop")

        service = FairnessService()
        service.register_dataset(original, name="prop")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.json"
            service.catalog.save(path, columnar_datasets=True)
            reloaded = Catalog.load(path).resolve(ResourceKind.DATASET, "prop")

        assert len(reloaded) == size
        round_tripped = reloaded.column("Code")
        assert round_tripped == tuple(codes)
        # Tuple equality treats True == 1 == 1.0; pin the exact types too.
        assert [type(v) for v in round_tripped] == [type(v) for v in codes]
        assert reloaded.numeric_column("Rating").tolist() == [
            float(r) for r in ratings
        ]
        assert fingerprint_dataset(reloaded) == fingerprint_dataset(original)
