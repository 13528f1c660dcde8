"""Contiguous numpy column arrays — the one backing of every :class:`Dataset`.

This module is the storage half of the columnar data plane.  A
:class:`ColumnStore` holds one population as a set of per-attribute arrays:

* **coded columns** (:class:`CodedColumn`) store categorical/ordinal values
  as contiguous ``int64`` codes plus a small decode table — the integer
  coding the score store used to rebuild per request is now the storage
  format itself, so protected attributes never round-trip through per-row
  dicts;
* **numeric columns** (:class:`NumericColumn`) store observed attributes as
  contiguous ``float64`` arrays, which is exactly the shape a linear scoring
  function multiplies by its weights.

Stores are built incrementally by a :class:`ColumnStoreBuilder` — the
streaming CSV loader appends fixed-size chunks and never materialises the
whole file as row dicts — and persist as a *column sidecar*: a
:mod:`repro.bundle` directory of raw ``.bin`` files plus a JSON manifest
(:meth:`ColumnStore.save` / :meth:`ColumnStore.load`).  This module decides
what the manifest says; :mod:`repro.bundle` does every byte of the I/O and
every format, version, file-name and length check.  Loading re-opens every
array as a read-only memory map, so a reloaded million-row population
costs page-cache, not heap: the snapshot layer stores these directories
next to the catalog snapshot, keyed by the dataset's content fingerprint.

Value fidelity contract: coded decode tables round-trip through JSON, so
coded values must be ``str`` / ``int`` / ``float`` / ``bool`` / ``None``.
Values that are equal-but-differently-typed (``1`` vs ``1.0`` vs ``True``)
are kept distinct in the decode table, so a persisted store reproduces the
exact Python values of the dataset it was built from.  The content
fingerprint (:func:`repro.service.fingerprint.fingerprint_dataset`) hashes
these buffers directly: ``float64`` bytes, or the type-tagged decode table
plus the ``int64`` codes after a remap to first-seen row order.  Decode
order, unused and duplicate table entries therefore do not change it, and
a reloaded sidecar keeps the fingerprint of its source.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import bundle
from repro.errors import DataError

__all__ = [
    "CodedColumn",
    "NumericColumn",
    "ColumnStore",
    "ColumnStoreBuilder",
]


#: Python types whose values survive a JSON round trip exactly; only these may
#: appear in a coded column that is persisted to disk.
_JSON_SAFE_TYPES = (str, int, float, bool, type(None))


def _type_key(value: object) -> Tuple[type, object]:
    """Dict key distinguishing equal-but-differently-typed values (1 vs 1.0).

    Floats key by their exact bits, so ``-0.0`` keeps its own entry beside
    ``0.0`` (they compare equal) and every NaN shares one entry.
    """
    if isinstance(value, float):
        return (value.__class__, value.hex())
    return (value.__class__, value)


class CodedColumn:
    """An integer-coded categorical/ordinal column.

    ``codes`` is a read-only ``int64`` array of row codes; ``values`` is the
    decode table (``values[code]`` is the original Python value), in
    first-seen row order when built by a :class:`ColumnStoreBuilder`.
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: Sequence[object]) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise DataError(f"coded column codes must be 1-D, got shape {codes.shape}")
        if codes.flags.writeable:
            codes.setflags(write=False)
        self.codes = codes
        self.values = tuple(values)
        if codes.size and (int(codes.max()) >= len(self.values) or int(codes.min()) < 0):
            raise DataError(
                f"coded column has codes outside its decode table "
                f"(0..{len(self.values) - 1})"
            )

    def __len__(self) -> int:
        return len(self.codes)

    def decode_range(self, start: int, stop: int) -> List[object]:
        """The original Python values of rows ``start..stop`` (decoded)."""
        table = self.values
        return [table[code] for code in self.codes[start:stop].tolist()]

    def coded(self) -> "CodedColumn":
        return self


class NumericColumn:
    """A contiguous ``float64`` column of an observed (numeric) attribute."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError(f"numeric column must be 1-D, got shape {values.shape}")
        if values.flags.writeable:
            values.setflags(write=False)
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def decode_range(self, start: int, stop: int) -> List[float]:
        """The Python float values of rows ``start..stop``."""
        return self.values[start:stop].tolist()

    def coded(self) -> CodedColumn:
        """This column as codes over its distinct ``float64`` bit patterns, so
        per-value work runs once per distinct value (a coded column is itself)."""
        bits, codes = np.unique(self.values.view(np.int64), return_inverse=True)
        return CodedColumn(codes, bits.view(np.float64).tolist())


Column = Union[CodedColumn, NumericColumn]


class ColumnStore:
    """One population as contiguous per-attribute column arrays.

    Parameters
    ----------
    n:
        Number of rows.
    columns:
        Mapping from attribute name to :class:`CodedColumn` /
        :class:`NumericColumn`; every column must have exactly ``n`` rows.
    uids:
        Explicit row ids, or ``None`` for the sequential convention
        ``w1, w2, ...`` (which is then not stored at all — a million
        sequential ids cost nothing).
    """

    __slots__ = ("n", "_columns", "_uids", "_uid_cache")

    def __init__(
        self,
        n: int,
        columns: Mapping[str, Column],
        uids: Optional[Sequence[str]] = None,
    ) -> None:
        self.n = int(n)
        self._columns: Dict[str, Column] = dict(columns)
        for name, column in self._columns.items():
            if len(column) != self.n:
                raise DataError(
                    f"column {name!r} has {len(column)} rows, store has {self.n}"
                )
        if uids is not None:
            uids = tuple(str(uid) for uid in uids)
            if len(uids) != self.n:
                raise DataError(f"got {len(uids)} uids for {self.n} rows")
        self._uids = uids
        self._uid_cache: Optional[Tuple[str, ...]] = None

    # -- access ------------------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """Column names, in insertion order."""
        return tuple(self._columns)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        """The column called ``name`` (raises :class:`DataError` if absent)."""
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(
                f"column store has no column {name!r}; has {sorted(self._columns)}"
            ) from None

    @property
    def explicit_uids(self) -> Optional[Tuple[str, ...]]:
        """The stored row ids, or ``None`` for the sequential convention."""
        return self._uids

    def uids(self) -> Tuple[str, ...]:
        """All row ids (generated on demand for sequential stores, cached)."""
        cached = self._uid_cache
        if cached is None:
            if self._uids is not None:
                cached = self._uids
            else:
                cached = tuple(f"w{i}" for i in range(1, self.n + 1))
            self._uid_cache = cached
        return cached

    def uid_range(self, start: int, stop: int) -> List[str]:
        """Row ids ``start..stop`` without materialising the full tuple."""
        if self._uids is not None:
            return list(self._uids[start:stop])
        return [f"w{i}" for i in range(start + 1, stop + 1)]

    # -- persistence -------------------------------------------------------

    def check_persistable(self) -> None:
        """Raise :class:`~repro.errors.DataError` naming the first coded
        column with a decode value that does not survive JSON."""
        for name, column in self._columns.items():
            if isinstance(column, CodedColumn):
                for value in column.values:
                    if not isinstance(value, _JSON_SAFE_TYPES):
                        raise DataError(
                            f"cannot persist column {name!r}: decode value {value!r} "
                            f"({type(value).__name__}) does not survive JSON"
                        )

    def save(self, directory: Union[str, Path]) -> None:
        """Write this store to ``directory`` as a column sidecar bundle.

        Layout: ``manifest.json`` describes every column (kind, dtype, file,
        decode table); each array is one raw native-order ``.bin``; explicit
        uids go to ``uids.json``.  Coded decode values must be JSON-safe
        (str/int/float/bool/None); :meth:`check_persistable` runs before
        ``directory`` is touched.  Files are replaced atomically, manifest
        last (see :mod:`repro.bundle`).
        """
        self.check_persistable()
        writer = bundle.BundleWriter(directory, bundle.COLUMNS)
        manifest_columns: List[Dict[str, object]] = []
        for index, (name, column) in enumerate(self._columns.items()):
            file_name = f"col_{index}.bin"
            if isinstance(column, CodedColumn):
                writer.array(file_name, column.codes, np.int64)
                manifest_columns.append({
                    "name": name,
                    "kind": "coded",
                    "file": file_name,
                    "dtype": "int64",
                    "values": [
                        # bool before int (bool is an int subtype); the tag
                        # restores the exact Python type on load.
                        {"t": "b", "v": value} if isinstance(value, bool)
                        else value
                        for value in column.values
                    ],
                })
            else:
                writer.array(file_name, column.values, np.float64)
                manifest_columns.append(
                    {"name": name, "kind": "numeric", "file": file_name, "dtype": "float64"}
                )
        if self._uids is not None:
            writer.document("uids.json", list(self._uids))
        writer.commit({
            "rows": self.n,
            "uids": "explicit" if self._uids is not None else "sequential",
            "columns": manifest_columns,
        })

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ColumnStore":
        """Re-open a store saved by :meth:`save`.

        Every column array is a read-only memory map over its ``.bin``
        file: rows are paged in on demand, so reloading a snapshot of a
        million-row population allocates almost no heap.  A malformed,
        foreign or truncated sidecar raises :class:`~repro.errors.BundleError`
        (a :class:`~repro.errors.DataError`).
        """
        directory = Path(directory)
        with bundle.open_manifest(directory, bundle.COLUMNS) as manifest:
            n = int(manifest["rows"])  # type: ignore[arg-type]
            columns: Dict[str, Column] = {}
            for entry in manifest["columns"]:  # type: ignore[union-attr]
                name = str(entry["name"])
                # The kind fixes the dtype; an unknown kind is a KeyError.
                dtype = {"coded": np.int64, "numeric": np.float64}[entry["kind"]]
                array = bundle.read_array(directory, entry["file"], dtype, n)
                if entry["kind"] == "coded":
                    values = [
                        bool(value["v"])
                        if isinstance(value, dict) and value.get("t") == "b"
                        else value
                        for value in entry["values"]
                    ]
                    columns[name] = CodedColumn(array, values)
                else:
                    columns[name] = NumericColumn(array)
            uids: Optional[List[str]] = None
            if manifest["uids"] == "explicit":
                uids = [
                    str(uid)
                    for uid in bundle.read_json(directory / "uids.json")  # type: ignore[union-attr]
                ]
        return cls(n, columns, uids=uids)


class ColumnStoreBuilder:
    """Accumulates row chunks into one :class:`ColumnStore`, never row dicts.

    The builder is the streaming half of ingestion: callers (the chunked CSV
    loader, :meth:`~repro.data.dataset.Dataset.from_records`) push
    per-column value chunks via :meth:`append_chunk`; coded columns
    keep one type-exact encode dict across chunks (codes are first-seen row
    order), numeric columns accumulate ``float64`` chunk arrays, and
    :meth:`finish` concatenates each column once.  Peak memory is one chunk
    of Python values plus the (compact) accumulated code arrays.
    """

    def __init__(
        self,
        coded_names: Sequence[str],
        numeric_names: Sequence[str],
        collect_uids: bool = False,
    ) -> None:
        overlap = set(coded_names) & set(numeric_names)
        if overlap:
            raise DataError(f"columns declared both coded and numeric: {sorted(overlap)}")
        self._coded_names = tuple(coded_names)
        self._numeric_names = tuple(numeric_names)
        #: name -> {type-tagged value -> code}; insertion order is decode order.
        self._encodes: Dict[str, Dict[Tuple[type, object], int]] = {
            name: {} for name in self._coded_names
        }
        self._decodes: Dict[str, List[object]] = {name: [] for name in self._coded_names}
        self._chunks: Dict[str, List[np.ndarray]] = {
            name: [] for name in (*self._coded_names, *self._numeric_names)
        }
        self._uids: Optional[List[str]] = [] if collect_uids else None
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append_chunk(
        self,
        columns: Mapping[str, Sequence[object]],
        uids: Optional[Sequence[str]] = None,
    ) -> None:
        """Append one chunk of rows, given as per-column value sequences."""
        lengths = {len(columns[name]) for name in self._chunks}
        missing = [name for name in self._chunks if name not in columns]
        if missing:
            raise DataError(f"chunk is missing columns: {missing}")
        if len(lengths) > 1:
            raise DataError(f"chunk columns have inconsistent lengths: {sorted(lengths)}")
        chunk_len = lengths.pop() if lengths else 0
        if self._uids is not None:
            if uids is None:
                raise DataError("builder collects uids but the chunk has none")
            if len(uids) != chunk_len:
                raise DataError(f"chunk has {len(uids)} uids for {chunk_len} rows")
            self._uids.extend(str(uid) for uid in uids)
        for name in self._coded_names:
            encode = self._encodes[name]
            decode = self._decodes[name]
            codes = np.empty(chunk_len, dtype=np.int64)
            for position, value in enumerate(columns[name]):
                key = _type_key(value)
                code = encode.get(key)
                if code is None:
                    code = len(encode)
                    encode[key] = code
                    decode.append(value)
                codes[position] = code
            self._chunks[name].append(codes)
        for name in self._numeric_names:
            self._chunks[name].append(np.asarray(columns[name], dtype=np.float64))
        self._n += chunk_len

    def finish(self, uids: Optional[Sequence[str]] = None) -> ColumnStore:
        """Concatenate the accumulated chunks into a :class:`ColumnStore`.

        ``uids`` overrides the collected ids (or supplies them for a builder
        constructed without ``collect_uids``); ``None`` keeps the collected
        ones, falling back to the sequential ``w1..wn`` convention.
        """
        columns: Dict[str, Column] = {}
        for name in self._coded_names:
            chunks = self._chunks[name]
            codes = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
            columns[name] = CodedColumn(codes, self._decodes[name])
        for name in self._numeric_names:
            chunks = self._chunks[name]
            values = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
            )
            columns[name] = NumericColumn(values)
        if uids is None:
            uids = self._uids
        return ColumnStore(self._n, columns, uids=uids)
