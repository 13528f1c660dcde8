"""Tabular store of individuals (workers) for FaiRank — one column backing.

The :class:`Dataset` is the substrate every other subsystem consumes: the
scoring functions read observed attribute columns from it, the partitioning
algorithms group its rows by protected-attribute values, the anonymiser
rewrites its protected columns, and the marketplace generator produces it.

Every dataset is backed by one :class:`~repro.data.columns.ColumnStore` of
contiguous numpy arrays: integer-coded protected attributes and ``float64``
observed attributes, optionally memory-mapped from disk.  FaiRank's pipeline
(select a population, filter or anonymise it, partition it) touches
populations of exactly two origins:

* **ingested** populations own their store.  ``Dataset(schema, store)``
  wraps a store built elsewhere: by the loaders, the generator, snapshot
  sidecars or :meth:`Dataset.from_records`, which converts dict records once
  through :class:`~repro.data.columns.ColumnStoreBuilder` (a numeric
  attribute whose values are all plain floats becomes a ``float64`` array,
  every other attribute an integer-coded column whose decode table keeps the
  exact values, so ``1``, ``1.0``, ``True`` and ``"1"`` stay distinct).
* **derived** populations are :class:`DatasetView` objects: a parent plus an
  ``intp`` index array of the parent's rows.  :meth:`Dataset.filter`,
  :meth:`Dataset.group_by` and the score store's splits all return views.
  A view's length and uids come from the index alone; its columns are
  gathered from the parent only on first column access
  (:meth:`DatasetView._realize`), so a losing candidate split never copies
  a column.  The parent chain is the view's *provenance*:
  :meth:`Dataset.indices_in` composes the index arrays up to an ancestor,
  which is how a score store proves a partition is drawn from its dataset.

There is no row object: plain dicts are the only row shape, taken in by
:meth:`Dataset.from_records` and given out by :meth:`Dataset.to_records`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional
from typing import Sequence, Tuple

import numpy as np

from repro.data.columns import CodedColumn, Column, ColumnStore, ColumnStoreBuilder, NumericColumn
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import DataError, EmptyDatasetError, UnknownAttributeError

if TYPE_CHECKING:  # pragma: no cover - filters import this module
    from repro.data.filters import Filter

__all__ = ["Dataset", "DatasetView", "order_values", "stable_group_order"]

#: Guards per-dataset lazy caches (integer codings, realised view columns) so
#: concurrent readers (the service batch executor) never duplicate work.
#: Re-entrant: realising a view realises its parent.
_lazy_lock = threading.RLock()


def stable_group_order(codes: np.ndarray, distinct: int) -> np.ndarray:
    """Stable ``argsort`` of integer ``codes`` below ``distinct``.

    The keys are narrowed to ``uint8``/``uint16`` where they fit: NumPy's
    stable sort is a radix sort at those widths.
    """
    if distinct <= 1 << 8:
        codes = codes.astype(np.uint8)
    elif distinct <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


def order_values(attr: Attribute, present: Iterable[object]) -> Tuple[object, ...]:
    """Canonical ordering of an attribute's distinct values.

    Uses the declared domain order when available; otherwise a stable sorted
    order (by string representation for mixed types).  This is the single
    ordering contract shared by :meth:`Dataset.distinct_values` and the score
    store's index-based splits, so both produce children in the same order.
    """
    present = set(present)
    if attr.domain is not None and attr.atype is not AttributeType.NUMERIC:
        return tuple(v for v in attr.domain if v in present)
    return tuple(sorted(present, key=lambda v: (str(type(v)), str(v))))


def _build_store(
    schema: Schema, columns: Mapping[str, Sequence[object]], uids: Sequence[str]
) -> ColumnStore:
    """Package per-attribute value lists as a :class:`ColumnStore`.

    A numeric attribute whose values are all plain floats becomes a
    contiguous ``float64`` array; every other attribute becomes an
    integer-coded column whose decode table keeps the exact values (ints
    stay ints, bools stay bools).  Sequential ``w1..wn`` uids are not stored.
    """
    coded: List[str] = []
    numeric: List[str] = []
    for attr in schema:
        if attr.atype is AttributeType.NUMERIC and all(
            type(value) is float for value in columns[attr.name]
        ):
            numeric.append(attr.name)
        else:
            coded.append(attr.name)
    sequential = all(uid == f"w{index + 1}" for index, uid in enumerate(uids))
    builder = ColumnStoreBuilder(coded, numeric, collect_uids=not sequential)
    builder.append_chunk(columns, uids=None if sequential else uids)
    return builder.finish()


class Dataset:
    """A set of individuals conforming to a :class:`Schema`, column-backed.

    :attr:`store` is always a :class:`~repro.data.columns.ColumnStore`;
    :meth:`numeric_column`, :meth:`observed_matrix`, :meth:`codes`,
    :meth:`value_counts` and :meth:`distinct_values` are served from its
    arrays, and validation is vectorised over them.  The filtering and
    group-by operations return :class:`DatasetView` objects over this
    dataset.
    """

    def __init__(
        self,
        schema: Schema,
        store: ColumnStore,
        name: str = "dataset",
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self.name = name
        self._store = store
        if validate:
            self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Iterable[Mapping[str, object]],
        name: str = "dataset",
        uid_field: Optional[str] = None,
    ) -> "Dataset":
        """Build a dataset from dict-like records, one column at a time.

        If ``uid_field`` is given, that key supplies each individual's id
        (it is not an attribute); otherwise ids ``w1, w2, ...`` are assigned
        in order (matching the paper's Table 1 convention).  Keys outside the
        schema are ignored.
        """
        records = list(records)
        uids: List[str] = []
        for index, record in enumerate(records, start=1):
            if uid_field is None:
                uids.append(f"w{index}")
            elif uid_field in record:
                uids.append(str(record[uid_field]))
            else:
                raise DataError(f"record {index} is missing uid field {uid_field!r}")
        columns: Dict[str, List[object]] = {}
        for attr in schema:
            try:
                columns[attr.name] = [record[attr.name] for record in records]
            except KeyError:
                row = next(i for i, record in enumerate(records) if attr.name not in record)
                raise DataError(
                    f"individual {uids[row]!r} is missing attribute {attr.name!r}"
                ) from None
        return cls(schema, _build_store(schema, columns, uids), name=name)

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Mapping[str, Sequence[object]],
        name: str = "dataset",
        uids: Optional[Sequence[str]] = None,
    ) -> "Dataset":
        """Build a dataset from column vectors keyed by name."""
        lengths = {len(values) for values in columns.values()} or {0}
        if len(lengths) != 1:
            raise DataError(f"columns have inconsistent lengths: {sorted(lengths)}")
        n = lengths.pop()
        if uids is None:
            uids = [f"w{i}" for i in range(1, n + 1)]
        elif len(uids) != n:
            raise DataError(f"got {len(uids)} uids for {n} rows")
        uids = [str(uid) for uid in uids]
        for attr in schema:
            if attr.name not in columns and n:
                raise DataError(f"individual {uids[0]!r} is missing attribute {attr.name!r}")
        values = {attr.name: list(columns.get(attr.name, ())) for attr in schema}
        return cls(schema, _build_store(schema, values, uids), name=name)

    def _validate(self) -> None:
        """Vectorised validation: unique uids, every attribute, every value.

        O(distinct values) for coded columns and one vectorised range
        comparison for numeric columns; no row is built.
        """
        store = self.store
        uids = store.explicit_uids
        if uids is not None and len(set(uids)) != len(uids):
            seen = set()
            for uid in uids:
                if uid in seen:
                    raise DataError(f"duplicate individual id {uid!r}")
                seen.add(uid)
        for attr in self.schema:
            try:
                column = store[attr.name]
            except DataError:
                raise DataError(
                    f"dataset {self.name!r} has no column for attribute {attr.name!r}"
                ) from None
            if isinstance(column, CodedColumn):
                for code, value in enumerate(column.values):
                    if not attr.validate_value(value):
                        index = int(np.argmax(column.codes == code))
                        uid = store.uid_range(index, index + 1)[0]
                        raise DataError(
                            f"individual {uid!r} has invalid value {value!r} "
                            f"for attribute {attr.name!r}"
                        )
            else:
                if attr.atype is not AttributeType.NUMERIC:
                    raise DataError(
                        f"attribute {attr.name!r} is {attr.atype.value} but is backed "
                        "by a numeric column"
                    )
                if attr.domain is not None and len(column):
                    low, high = float(attr.domain[0]), float(attr.domain[1])
                    values = column.values
                    with np.errstate(invalid="ignore"):
                        bad = ~((values >= low) & (values <= high))
                    if bad.any():
                        index = int(np.argmax(bad))
                        uid = store.uid_range(index, index + 1)[0]
                        raise DataError(
                            f"individual {uid!r} has invalid value "
                            f"{float(values[index])!r} for attribute {attr.name!r}"
                        )

    # -- backing -----------------------------------------------------------

    @property
    def store(self) -> ColumnStore:
        """The column backing."""
        return self._store

    def indices_in(self, ancestor: "Dataset") -> Optional[np.ndarray]:
        """Positions of this dataset's rows in ``ancestor``, proven by provenance.

        ``None`` when ``ancestor`` is not on this dataset's parent chain —
        content equality is never enough.
        """
        if ancestor is self:
            return self.positions()
        return None

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.store.n

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, n={len(self)}, "
            f"protected={list(self.schema.protected_names)}, "
            f"observed={list(self.schema.observed_names)})"
        )

    @property
    def uids(self) -> Tuple[str, ...]:
        """All row ids, in row order (no rows materialised)."""
        return self.store.uids()

    # -- column access -----------------------------------------------------

    def numeric_column(self, name: str) -> np.ndarray:
        """Return a fresh float array of an observed (numeric) attribute column.

        A ``float64`` column is copied, and a coded column floats each
        decode-table entry once and gathers by its codes: no per-row
        ``float()`` calls.  The result is a fresh array either way, so
        callers may mutate it without corrupting the dataset.  A coded
        value that is no number (possible in a dataset built with
        ``validate=False``) raises :class:`~repro.errors.DataError`.
        """
        attr = self.schema.attribute(name)
        if attr.atype is not AttributeType.NUMERIC:
            raise DataError(f"attribute {name!r} is not numeric")
        column = self.store[name]
        if isinstance(column, NumericColumn):
            return np.array(column.values, dtype=float)
        decoded = np.empty(len(column.values), dtype=float)
        for code, value in enumerate(column.values):
            try:
                decoded[code] = float(value)
            except (TypeError, ValueError):
                raise DataError(
                    f"dataset {self.name!r} has non-numeric value {value!r} "
                    f"for numeric attribute {name!r}"
                ) from None
        return decoded[column.codes]

    def codes(self, name: str) -> Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]:
        """Integer coding of attribute ``name``: ``(codes, decode, encode)``.

        ``codes`` is a read-only ``int64`` array of per-row codes, ``decode``
        maps code -> value and ``encode`` value -> code.  The coding is a
        function of content alone: values equal under ``==`` (``1``, ``1.0``,
        ``True``) share one code, codes are numbered in first-seen row order,
        and each code decodes to the first-seen of its values — whatever
        decode-table order the backing column has.  This is the coding the
        score store's index-based splits consume; it is computed
        vectorised from the column and cached once per attribute.
        """
        cache: Dict[str, Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]]
        cache = self.__dict__.setdefault("_codes_cache", {})
        cached = cache.get(name)
        if cached is not None:
            return cached
        self.schema.attribute(name)
        column = self.store[name]
        if isinstance(column, CodedColumn):
            raw, table = column.codes, column.values
        else:
            uniques, raw = np.unique(column.values, return_inverse=True)
            table = tuple(uniques.tolist())
        # First row of each stored code (len(raw) for codes no row uses).
        first = np.full(len(table), len(raw), dtype=np.int64)
        np.minimum.at(first, raw, np.arange(len(raw)))
        encode: Dict[object, int] = {}
        remap = np.zeros(len(table), dtype=np.int64)
        for code in np.argsort(first, kind="stable").tolist():
            if first[code] == len(raw):
                break
            remap[code] = encode.setdefault(table[code], len(encode))
        if len(encode) == len(table) and bool((remap == np.arange(len(table))).all()):
            codes = np.asarray(raw, dtype=np.int64)
        else:
            codes = remap[raw]
        codes.setflags(write=False)
        result = (codes, tuple(encode), encode)
        with _lazy_lock:
            return cache.setdefault(name, result)

    def grouping(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Rows grouped by the :meth:`codes` of ``name``: ``(order, counts)``.

        ``order`` holds the row positions of code 0, then of code 1, and so
        on, each group in row order (one stable ``argsort`` of the codes);
        ``counts[code]`` is the group's size, so with ``ends =
        cumsum(counts)`` group ``code`` is ``order[ends[code] -
        counts[code]:ends[code]]``.  A function of the dataset alone, so the
        score store's root splits slice it under every scoring function.
        Both arrays are read-only and cached once per attribute.
        """
        cache: Dict[str, Tuple[np.ndarray, np.ndarray]]
        cache = self.__dict__.setdefault("_grouping_cache", {})
        cached = cache.get(name)
        if cached is not None:
            return cached
        codes, decode, _ = self.codes(name)
        counts = np.bincount(codes, minlength=len(decode))
        order = stable_group_order(codes, len(decode))
        counts.setflags(write=False)
        order.setflags(write=False)
        with _lazy_lock:
            return cache.setdefault(name, (order, counts))

    def packed_codes(self, names: Tuple[str, ...]) -> np.ndarray:
        """Mixed-radix coding of several attributes: one code per value combination.

        Row ``r`` holds ``(codes_0[r] * k_1 + codes_1[r]) * k_2 + ...`` over
        the :meth:`codes` of ``names`` in order, ``k_i`` being the number of
        distinct values of ``names[i]``; a ``bincount`` of it reshaped to
        ``(k_0, k_1, ...)`` counts every combination, and summing away the
        other axes gives one attribute's counts.  The caller keeps the
        product of the ``k_i`` within ``int64``.  A single name's packing is
        its codes.  Read-only and cached once per tuple of names.
        """
        cache: Dict[Tuple[str, ...], np.ndarray]
        cache = self.__dict__.setdefault("_packed_cache", {})
        cached = cache.get(names)
        if cached is not None:
            return cached
        packed = self.codes(names[0])[0]
        if len(names) > 1:
            packed = packed.copy()
            for name in names[1:]:
                codes, decode, _ = self.codes(name)
                packed *= len(decode)
                packed += codes
            packed.setflags(write=False)
        with _lazy_lock:
            return cache.setdefault(names, packed)

    def positions(self) -> np.ndarray:
        """Read-only ``arange(n)``: every row's position, cached once per dataset.

        The root partition's indices in every score store over this dataset.
        """
        positions = self.__dict__.get("_positions")
        if positions is None:
            positions = np.arange(len(self), dtype=np.intp)
            positions.setflags(write=False)
            with _lazy_lock:
                positions = self.__dict__.setdefault("_positions", positions)
        return positions

    def value_counts(self, name: str) -> Dict[object, int]:
        """Return a value -> count mapping for attribute ``name``.

        Counted over :meth:`codes`, so values equal under ``==`` are counted
        together and keys come in first-seen row order on every dataset.
        """
        codes, decode, _ = self.codes(name)
        counts = np.bincount(codes, minlength=len(decode)).tolist()
        return dict(zip(decode, counts))

    def distinct_values(self, name: str) -> Tuple[object, ...]:
        """Distinct values of attribute ``name``, cached once per attribute.

        Uses the declared domain order when available; otherwise values are
        returned in a stable sorted order (by string representation for mixed
        types) so downstream algorithms are deterministic.  Any subset's
        ordering is a filter of this one, so the score store's splits never
        re-sort.
        """
        cache: Dict[str, Tuple[object, ...]]
        cache = self.__dict__.setdefault("_distinct_cache", {})
        cached = cache.get(name)
        if cached is not None:
            return cached
        ordered = order_values(self.schema.attribute(name), self.codes(name)[1])
        with _lazy_lock:
            return cache.setdefault(name, ordered)

    # -- relational-ish operations ------------------------------------------

    def filter(self, row_filter: "Filter", name: Optional[str] = None) -> "DatasetView":
        """Return a view of the rows ``row_filter``'s mask selects
        (:mod:`repro.data.filters`), named after the filter by default."""
        index = np.flatnonzero(row_filter.mask(self))
        return DatasetView(self, index, name=name or f"{self.name}[{row_filter.describe()}]")

    def map_column(
        self,
        name: str,
        mapper: Callable[[object], object],
        as_categorical: bool = False,
    ) -> "Dataset":
        """Return a dataset where column ``name`` is rewritten by ``mapper``.

        A decode-table remap: ``mapper`` runs once per distinct value the
        rows hold and the rows keep their codes; other columns are shared.
        The attribute's declared domain is dropped (set to ``None``) because
        the mapping may introduce values outside it — this is exactly what
        anonymisation/generalisation does.  Pass ``as_categorical=True`` when
        the mapper turns a numeric column into interval labels (strings).
        """
        attr = self.schema.attribute(name)
        new_type = AttributeType.CATEGORICAL if as_categorical else attr.atype
        new_attr = Attribute(
            name=attr.name,
            kind=attr.kind,
            atype=new_type,
            domain=None,
            description=attr.description,
        )
        new_schema = self.schema.replace_attribute(new_attr)
        store = self.store
        column = store[name].coded()
        used = np.bincount(column.codes, minlength=len(column.values)).astype(bool).tolist()
        mapped = [mapper(value) if hit else None for value, hit in zip(column.values, used)]
        columns = {other: store[other] for other in store.names}
        columns[name] = CodedColumn(column.codes, mapped)
        store = ColumnStore(store.n, columns, uids=store.explicit_uids)
        return Dataset(new_schema, store, name=self.name, validate=False)

    def _groups(self, names: Sequence[str]) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
        """``(keys, sizes, group)`` of the rows grouped by the values of ``names``.

        Groups are numbered in first-seen row order: ``group`` holds each
        row's group number, ``sizes`` each group's row count and ``keys``
        the values of each group's first row, read from the decode tables.
        """
        combined = np.zeros(len(self), dtype=np.int64)
        for name in names:
            codes, decode, _ = self.codes(name)
            # Re-densify after each attribute so the combined code never
            # overflows, however many attributes are grouped.
            _, combined = np.unique(combined * len(decode) + codes, return_inverse=True)
        _, first, group, sizes = np.unique(
            combined, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first)
        columns = [self.store[name].coded() for name in names]
        values = [[column.values[code] for code in column.codes[first[order]].tolist()]
                  for column in columns]
        keys = list(zip(*values)) if names else [()] * len(order)
        return keys, sizes[order], np.argsort(order)[group]

    def group_by(self, names: Sequence[str]) -> Dict[Tuple[object, ...], "DatasetView"]:
        """Group individuals by the combination of values of ``names``.

        Returns a mapping from the value tuple to a view of the individuals
        having those values, preserving row order inside each group.  Group
        keys are emitted in first-seen order; each key holds the values of
        its group's first row.
        """
        keys, sizes, group = self._groups(names)
        members = np.argsort(group, kind="stable")
        ends = np.cumsum(sizes)
        return {
            key: DatasetView(self, members[start:end], name=f"{self.name}/{key}")
            for key, start, end in zip(keys, (ends - sizes).tolist(), ends.tolist())
        }

    def require_non_empty(self) -> "Dataset":
        """Return self, raising :class:`EmptyDatasetError` if there are no rows."""
        if not len(self):
            raise EmptyDatasetError(f"dataset {self.name!r} is empty")
        return self

    # -- export -------------------------------------------------------------

    def to_records(self, include_uid: bool = True) -> List[Dict[str, object]]:
        """Return the dataset as a list of plain dicts (for CSV/JSON export).

        Each column is decoded once; the records are zipped from the columns.
        """
        names = self.schema.names
        columns = [self.store[name].decode_range(0, len(self)) for name in names]
        if include_uid:
            names = ("uid", *names)
            columns.insert(0, list(self.uids))
        rows = zip(*columns) if columns else [()] * len(self)
        return [dict(zip(names, values)) for values in rows]

    def observed_matrix(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Return a C-contiguous (n, m) float matrix of observed attribute columns.

        ``names`` defaults to every observed attribute in schema order.  This
        is the matrix a linear scoring function multiplies by its weights.
        Every observed numeric column, in schema order, is stacked once per
        dataset into one read-only matrix: a request for exactly those
        columns gets that matrix itself, any other order or subset is one
        column gather from it.  Names outside it (unknown, non-numeric or
        numeric but not observed) are stacked column by column, which raises
        for the first two.
        """
        if names is None:
            names = self.schema.observed_names
        if not names:
            return np.zeros((len(self), 0), dtype=float)
        full, positions = self._observed()
        try:
            index = [positions[name] for name in names]
        except KeyError:
            return np.column_stack([self.numeric_column(name) for name in names])
        if index == list(range(full.shape[1])):
            return full
        return full.take(index, axis=1)

    def _observed(self) -> Tuple[np.ndarray, Dict[str, int]]:
        """Every observed numeric column stacked in schema order, and name -> column.

        Read-only and cached once per dataset, shared by every scoring
        function over it.
        """
        cached = self.__dict__.get("_observed_cache")
        if cached is not None:
            return cached
        names = [
            attr.name for attr in self.schema if attr.is_observed and attr.is_numeric
        ]
        columns = [self.numeric_column(name) for name in names]
        full = np.column_stack(columns) if columns else np.zeros((len(self), 0))
        full.setflags(write=False)
        result = (full, {name: column for column, name in enumerate(names)})
        with _lazy_lock:
            return self.__dict__.setdefault("_observed_cache", result)

    def summary(self) -> Dict[str, object]:
        """Return a summary dict used by the session layer's General box."""
        return {
            "name": self.name,
            "size": len(self),
            "protected_attributes": list(self.schema.protected_names),
            "observed_attributes": list(self.schema.observed_names),
            "protected_cardinalities": {
                name: len(self.distinct_values(name)) for name in self.schema.protected_names
            },
        }


class DatasetView(Dataset):
    """A derived population: the rows of ``parent`` at positions ``index``.

    Holds only its parent and a read-only ``intp`` index array.  Its length
    comes from the index and its uids are sliced from the parent's; its
    column store is gathered from the parent's columns on first column
    access, in :meth:`_realize` (the one place a view copies data).  The
    view's rows are already validated: they are its parent's.
    """

    def __init__(self, parent: Dataset, index: np.ndarray, name: str) -> None:
        index = np.asarray(index, dtype=np.intp)
        index.setflags(write=False)
        self.schema = parent.schema
        self.name = name
        self.parent = parent
        self.index = index

    @property
    def store(self) -> ColumnStore:
        """The view's columns, gathered from the parent on first access."""
        store = self.__dict__.get("_store")
        if store is None:
            with _lazy_lock:
                store = self.__dict__.get("_store")
                if store is None:
                    store = self._realize()
                    self.__dict__["_store"] = store
        return store

    def _realize(self) -> ColumnStore:
        """Gather this view's rows of every parent column into a new store."""
        parent = self.parent.store
        index = self.index
        columns: Dict[str, Column] = {}
        for name in parent.names:
            column = parent[name]
            if isinstance(column, CodedColumn):
                columns[name] = CodedColumn(column.codes[index], column.values)
            else:
                columns[name] = NumericColumn(column.values[index])
        return ColumnStore(len(index), columns, uids=self.uids)

    def indices_in(self, ancestor: Dataset) -> Optional[np.ndarray]:
        if ancestor is self:
            return self.positions()
        if self.parent is ancestor:
            return self.index
        within = self.parent.indices_in(ancestor)
        return None if within is None else within[self.index]

    def __len__(self) -> int:
        return len(self.index)

    @property
    def uids(self) -> Tuple[str, ...]:
        """The parent's uids at this view's positions (cached; no columns realised)."""
        cached = self.__dict__.get("_uids")
        if cached is None:
            parent = self.parent.uids
            cached = tuple(parent[position] for position in self.index.tolist())
            self.__dict__["_uids"] = cached
        return cached
