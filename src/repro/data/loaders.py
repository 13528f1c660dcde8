"""Dataset loaders: the paper's Table 1 example and CSV files.

``load_example_table1`` reproduces the running example of the paper verbatim
(10 individuals of a crowdsourcing platform, protected attributes Gender /
Country / Year of Birth / Language / Ethnicity / Experience, observed
attributes Language Test / Rating, and the scoring function
``f(w) = 0.6 * LanguageTest + 0.4 * Rating`` whose values match the ``f(w)``
column printed in the paper).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.data.columns import CodedColumn, ColumnStoreBuilder
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, AttributeKind, AttributeType, Schema, observed, protected
from repro.errors import DataError

__all__ = [
    "table1_schema",
    "load_example_table1",
    "TABLE1_WEIGHTS",
    "load_csv",
]

#: Weights of the example scoring function of Table 1.  With these weights the
#: ``f(w)`` column of the paper is reproduced exactly for every row (e.g. w1:
#: 0.3*0.50 + 0.7*0.20 = 0.29, w7: 0.3*0.95 + 0.7*0.98 = 0.971); the per-row
#: check lives in ``tests/test_data_loaders.py``.
TABLE1_WEIGHTS: Dict[str, float] = {"Language Test": 0.3, "Rating": 0.7}

_TABLE1_ROWS: List[Dict[str, object]] = [
    # uid, Gender, Country, YearOfBirth, Language, Ethnicity, Experience, LanguageTest, Rating, f(w)
    {"uid": "w1", "Gender": "Female", "Country": "India", "Year of Birth": 2004,
     "Language": "English", "Ethnicity": "Indian", "Experience": 0,
     "Language Test": 0.50, "Rating": 0.20, "f": 0.29},
    {"uid": "w2", "Gender": "Male", "Country": "America", "Year of Birth": 1976,
     "Language": "English", "Ethnicity": "White", "Experience": 14,
     "Language Test": 0.89, "Rating": 0.92, "f": 0.911},
    {"uid": "w3", "Gender": "Male", "Country": "India", "Year of Birth": 1976,
     "Language": "Indian", "Ethnicity": "White", "Experience": 6,
     "Language Test": 0.65, "Rating": 0.65, "f": 0.65},
    {"uid": "w4", "Gender": "Male", "Country": "Other", "Year of Birth": 1963,
     "Language": "Other", "Ethnicity": "Indian", "Experience": 18,
     "Language Test": 0.64, "Rating": 0.76, "f": 0.724},
    {"uid": "w5", "Gender": "Female", "Country": "India", "Year of Birth": 1963,
     "Language": "Indian", "Ethnicity": "Indian", "Experience": 21,
     "Language Test": 0.85, "Rating": 0.90, "f": 0.885},
    {"uid": "w6", "Gender": "Male", "Country": "America", "Year of Birth": 1995,
     "Language": "English", "Ethnicity": "African-American", "Experience": 2,
     "Language Test": 0.42, "Rating": 0.20, "f": 0.266},
    {"uid": "w7", "Gender": "Female", "Country": "America", "Year of Birth": 1982,
     "Language": "English", "Ethnicity": "African-American", "Experience": 16,
     "Language Test": 0.95, "Rating": 0.98, "f": 0.971},
    {"uid": "w8", "Gender": "Male", "Country": "Other", "Year of Birth": 2008,
     "Language": "English", "Ethnicity": "Other", "Experience": 0,
     "Language Test": 0.30, "Rating": 0.15, "f": 0.195},
    {"uid": "w9", "Gender": "Male", "Country": "Other", "Year of Birth": 1992,
     "Language": "English", "Ethnicity": "White", "Experience": 2,
     "Language Test": 0.32, "Rating": 0.25, "f": 0.271},
    {"uid": "w10", "Gender": "Female", "Country": "America", "Year of Birth": 2000,
     "Language": "English", "Ethnicity": "White", "Experience": 5,
     "Language Test": 0.76, "Rating": 0.56, "f": 0.62},
]

#: The paper's reported f(w) column, keyed by individual id (for tests and
#: the Table 1 benchmark).
TABLE1_PUBLISHED_SCORES: Dict[str, float] = {
    row["uid"]: row["f"] for row in _TABLE1_ROWS  # type: ignore[index, misc]
}


def table1_schema() -> Schema:
    """Schema of the paper's Table 1 example dataset."""
    return Schema((
        protected("Gender", domain=("Female", "Male")),
        protected("Country", domain=("America", "India", "Other")),
        protected("Year of Birth", atype=AttributeType.ORDINAL),
        protected("Language", domain=("English", "Indian", "Other")),
        protected("Ethnicity", domain=("White", "Indian", "African-American", "Other")),
        protected("Experience", atype=AttributeType.ORDINAL),
        observed("Language Test", domain=(0.0, 1.0)),
        observed("Rating", domain=(0.0, 1.0)),
    ))


def load_example_table1(name: str = "table1-example") -> Dataset:
    """Load the 10-individual example dataset of the paper's Table 1."""
    records = []
    for row in _TABLE1_ROWS:
        record = dict(row)
        record.pop("f")
        records.append(record)
    return Dataset.from_records(table1_schema(), records, name=name, uid_field="uid")


def load_csv(
    path: Union[str, Path],
    protected_names: Sequence[str],
    observed_names: Sequence[str],
    name: Optional[str] = None,
    uid_field: Optional[str] = None,
    chunk_rows: int = 50_000,
) -> Dataset:
    """Stream a CSV file with a header row into a column-backed dataset.

    Observed attribute columns are parsed as floats; protected attributes are
    kept as strings (the common format of crawled marketplace data).

    The file is read in chunks of ``chunk_rows`` physical rows, each chunk
    appended to a :class:`~repro.data.columns.ColumnStoreBuilder` — protected
    values become integer codes against a running encode table, observed
    values become ``float64`` arrays — so the file never materialises as
    per-row dicts and a 10M-row table costs one chunk of Python values plus
    its compact column arrays.  The resulting dataset is byte-identical (same
    values, same schema, same content fingerprint) for every ``chunk_rows``,
    including a single chunk covering the whole file.

    A duplicate header column is a hard error (:class:`DataError` naming the
    column): with two same-named columns the mapping from name to value is
    ambiguous, and silently keeping one of them used to surface later as a
    confusing downstream failure.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"CSV file not found: {path}")
    if chunk_rows < 1:
        raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
    protected_list = [str(p) for p in protected_names]
    observed_list = [str(o) for o in observed_names]
    builder = ColumnStoreBuilder(
        protected_list, observed_list, collect_uids=uid_field is not None
    )
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"CSV file {path} contains no data rows")
        duplicated = sorted({column for column in header if header.count(column) > 1})
        if duplicated:
            raise DataError(
                f"{path}: duplicate CSV header column "
                + ", ".join(repr(column) for column in duplicated)
                + "; every column name must be unique"
            )
        positions = {column: index for index, column in enumerate(header)}
        for pname in protected_list:
            if pname not in positions:
                raise DataError(f"{path}:2: missing protected column {pname!r}")
        for oname in observed_list:
            if oname not in positions:
                raise DataError(f"{path}:2: missing observed column {oname!r}")
        if uid_field is not None and uid_field not in positions:
            raise DataError(f"{path}: missing uid column {uid_field!r}")
        protected_positions = [(pname, positions[pname]) for pname in protected_list]
        observed_positions = [(oname, positions[oname]) for oname in observed_list]
        uid_position = None if uid_field is None else positions[uid_field]
        width = len(header)

        def fresh_chunk() -> Dict[str, List[object]]:
            return {column: [] for column in (*protected_list, *observed_list)}

        chunk = fresh_chunk()
        chunk_uids: List[str] = []
        in_chunk = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line (csv.DictReader skipped these too)
            if len(row) < width:
                raise DataError(
                    f"{path}:{line_no}: row has {len(row)} fields, expected {width}"
                )
            for pname, index in protected_positions:
                chunk[pname].append(row[index])
            for oname, index in observed_positions:
                raw = row[index]
                try:
                    chunk[oname].append(float(raw))
                except ValueError:
                    raise DataError(
                        f"{path}:{line_no}: observed column {oname!r} has non-numeric "
                        f"value {raw!r}"
                    ) from None
            if uid_position is not None:
                chunk_uids.append(row[uid_position])
            in_chunk += 1
            if in_chunk >= chunk_rows:
                builder.append_chunk(chunk, uids=chunk_uids if uid_field else None)
                chunk = fresh_chunk()
                chunk_uids = []
                in_chunk = 0
        if in_chunk:
            builder.append_chunk(chunk, uids=chunk_uids if uid_field else None)
    if not len(builder):
        raise DataError(f"CSV file {path} contains no data rows")
    store = builder.finish()
    attributes: List[Attribute] = []
    for pname in protected_list:
        column = store[pname]
        assert isinstance(column, CodedColumn)
        domain = sorted(column.values, key=lambda v: (str(type(v)), str(v)))
        attributes.append(
            Attribute(name=pname, kind=AttributeKind.PROTECTED,
                      atype=AttributeType.CATEGORICAL, domain=tuple(domain))
        )
    for oname in observed_list:
        attributes.append(
            Attribute(name=oname, kind=AttributeKind.OBSERVED, atype=AttributeType.NUMERIC)
        )
    return Dataset(Schema(tuple(attributes)), store, name=name or path.stem)
