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

* **ingested** populations own their store.  The row constructor
  ``Dataset(schema, individuals)`` is the ingestion route for row input: it
  converts once through :class:`~repro.data.columns.ColumnStoreBuilder` (a
  numeric attribute whose values are all plain floats becomes a ``float64``
  array, every other attribute an integer-coded column whose decode table
  keeps the exact values, so ``1``, ``1.0``, ``True`` and ``"1"`` stay
  distinct).  :meth:`Dataset.from_store`, the loaders, the generator and
  snapshot sidecars hand over a store directly.
* **derived** populations are :class:`DatasetView` objects: a parent plus an
  ``intp`` index array of the parent's rows.  :meth:`Dataset.filter`,
  :meth:`Dataset.select_uids`, :meth:`Dataset.group_by` and the score
  store's splits all return views.  A view's length and uids come from the
  index alone; its columns are gathered from the parent only on first column
  access (:meth:`DatasetView._realize`), so a losing candidate split never
  copies a column.  The parent chain is the view's *provenance*:
  :meth:`Dataset.indices_in` composes the index arrays up to an ancestor,
  which is how a score store proves a partition is drawn from its dataset.

:class:`Individual` rows are a lazily materialised view of the columns,
built once on first iteration; no scoring or partitioning path needs them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.columns import CodedColumn, Column, ColumnStore, ColumnStoreBuilder, NumericColumn
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import DataError, EmptyDatasetError, UnknownAttributeError

__all__ = ["Individual", "Dataset", "DatasetView", "order_values"]

#: Guards per-dataset lazy caches (integer codings, realised view columns,
#: materialised rows) so concurrent readers (the service batch executor)
#: never duplicate work.  Re-entrant: realising a view realises its parent.
_lazy_lock = threading.RLock()


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


@dataclass(frozen=True)
class Individual:
    """A single individual (worker) with an identifier and attribute values.

    ``values`` maps attribute name to value.  Individuals are immutable; the
    dataset is the unit of mutation (by producing new datasets).  Rows of a
    dataset are a *materialised view* of its columns: built on first
    iteration from the decode tables and numeric arrays, carrying exactly
    the values the columns hold.
    """

    uid: str
    values: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, name: str) -> object:
        try:
            return self.values[name]
        except KeyError:
            raise UnknownAttributeError(name, tuple(self.values)) from None

    def get(self, name: str, default: object = None) -> object:
        return self.values.get(name, default)

    def with_values(self, **updates: object) -> "Individual":
        """Return a copy of this individual with some attribute values replaced."""
        merged = dict(self.values)
        merged.update(updates)
        return Individual(uid=self.uid, values=merged)


class Dataset:
    """A set of individuals conforming to a :class:`Schema`, column-backed.

    :attr:`store` is always a :class:`~repro.data.columns.ColumnStore`;
    :meth:`column`, :meth:`numeric_column`, :meth:`observed_matrix`,
    :meth:`codes`, :meth:`value_counts` and :meth:`distinct_values` are served
    from its arrays, and validation is vectorised over them.  The filtering,
    subset and group-by operations return :class:`DatasetView` objects over
    this dataset.  :class:`Individual` rows materialise once, on first
    iteration.
    """

    def __init__(
        self,
        schema: Schema,
        individuals: Iterable[Individual],
        name: str = "dataset",
        validate: bool = True,
    ) -> None:
        rows = tuple(individuals)
        columns: Dict[str, List[object]] = {}
        for attr in schema:
            try:
                columns[attr.name] = [row.values[attr.name] for row in rows]
            except KeyError:
                missing = next(row for row in rows if attr.name not in row.values)
                raise DataError(
                    f"individual {missing.uid!r} is missing attribute {attr.name!r}"
                ) from None
        self.schema = schema
        self.name = name
        self._store = _build_store(schema, columns, [row.uid for row in rows])
        if validate:
            self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Sequence[Mapping[str, object]],
        name: str = "dataset",
        uid_field: Optional[str] = None,
    ) -> "Dataset":
        """Build a dataset from a sequence of dict-like records.

        If ``uid_field`` is given, that key supplies each individual's id and
        is removed from the attribute values; otherwise ids ``w1, w2, ...``
        are assigned in order (matching the paper's Table 1 convention).
        """
        individuals: List[Individual] = []
        for index, record in enumerate(records, start=1):
            values = dict(record)
            if uid_field is not None:
                if uid_field not in values:
                    raise DataError(f"record {index} is missing uid field {uid_field!r}")
                uid = str(values.pop(uid_field))
            else:
                uid = f"w{index}"
            individuals.append(Individual(uid=uid, values=values))
        return cls(schema=schema, individuals=individuals, name=name)

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Mapping[str, Sequence[object]],
        name: str = "dataset",
        uids: Optional[Sequence[str]] = None,
    ) -> "Dataset":
        """Build a dataset from column vectors keyed by name."""
        if not columns:
            return cls(schema=schema, individuals=(), name=name)
        lengths = {len(values) for values in columns.values()}
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
        return cls.from_store(schema, _build_store(schema, values, uids), name=name)

    @classmethod
    def from_store(
        cls,
        schema: Schema,
        store: ColumnStore,
        name: str = "dataset",
        validate: bool = True,
    ) -> "Dataset":
        """Build a dataset over an existing :class:`ColumnStore`.

        No :class:`Individual` objects are created — rows materialise lazily
        on first iteration.
        """
        dataset = cls.__new__(cls)
        dataset.schema = schema
        dataset.name = name
        dataset._store = store
        if validate:
            dataset._validate()
        return dataset

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
                column = store.column(attr.name)
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
            return np.arange(len(self), dtype=np.intp)
        return None

    @property
    def _individuals(self) -> Tuple[Individual, ...]:
        """The row tuple, materialised from the columns on first use."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            with _lazy_lock:
                rows = self.__dict__.get("_rows")
                if rows is None:
                    rows = self._materialize_rows()
                    self.__dict__["_rows"] = rows
        return rows

    def _materialize_rows(self) -> Tuple[Individual, ...]:
        store = self.store
        names = self.schema.names
        decoded = {name: store.column(name).decode_range(0, store.n) for name in names}
        uids = self.uids
        return tuple(
            Individual(
                uid=uids[index],
                values={name: decoded[name][index] for name in names},
            )
            for index in range(store.n)
        )

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self.store.n

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._individuals)

    def __getitem__(self, index: int) -> Individual:
        return self._individuals[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, n={len(self)}, "
            f"protected={list(self.schema.protected_names)}, "
            f"observed={list(self.schema.observed_names)})"
        )

    @property
    def individuals(self) -> Tuple[Individual, ...]:
        """All rows as :class:`Individual` objects (materialised if needed)."""
        return self._individuals

    @property
    def uids(self) -> Tuple[str, ...]:
        """All row ids, in row order (no rows materialised)."""
        return self.store.uids()

    def by_uid(self, uid: str) -> Individual:
        """Return the individual with the given id."""
        for individual in self._individuals:
            if individual.uid == uid:
                return individual
        raise DataError(f"no individual with id {uid!r} in dataset {self.name!r}")

    def iter_rows(self, chunk_rows: int = 65536) -> Iterator[Tuple[str, List[object]]]:
        """Yield ``(uid, [values in schema order])`` per row.

        Decodes ``chunk_rows`` rows at a time and never materialises
        :class:`Individual` objects — it is the streaming row walk content
        fingerprinting uses, so registering a 10M-row population holds one
        chunk of Python values at a time.
        """
        return self.store.iter_rows(self.schema.names, chunk_rows=chunk_rows)

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> Tuple[object, ...]:
        """Return the values of attribute ``name`` for all individuals, in order."""
        self.schema.attribute(name)
        store = self.store
        return tuple(store.column(name).decode_range(0, store.n))

    def numeric_column(self, name: str) -> np.ndarray:
        """Return a fresh float array of an observed (numeric) attribute column.

        A ``float64`` column is copied (no per-row ``float()`` calls); the
        copy keeps the contract that callers may mutate the result without
        corrupting the dataset.
        """
        attr = self.schema.attribute(name)
        if attr.atype is not AttributeType.NUMERIC:
            raise DataError(f"attribute {name!r} is not numeric")
        column = self.store.column(name)
        if isinstance(column, NumericColumn):
            return np.array(column.values, dtype=float)
        return np.asarray([float(v) for v in column.decode_range(0, len(column))], dtype=float)

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
        column = self.store.column(name)
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

    def value_counts(self, name: str) -> Dict[object, int]:
        """Return a value -> count mapping for attribute ``name``.

        Counted over :meth:`codes`, so values equal under ``==`` are counted
        together and keys come in first-seen row order on every dataset.
        """
        codes, decode, _ = self.codes(name)
        counts = np.bincount(codes, minlength=len(decode)).tolist()
        return dict(zip(decode, counts))

    def distinct_values(self, name: str) -> Tuple[object, ...]:
        """Distinct values of attribute ``name``.

        Uses the declared domain order when available; otherwise values are
        returned in a stable sorted order (by string representation for mixed
        types) so downstream algorithms are deterministic.
        """
        attr = self.schema.attribute(name)
        return order_values(attr, self.codes(name)[1])

    # -- relational-ish operations ------------------------------------------

    def filter(
        self, predicate: Callable[[Individual], bool], name: Optional[str] = None
    ) -> "DatasetView":
        """Return a view of the individuals matching ``predicate``."""
        index = np.fromiter(
            (position for position, row in enumerate(self._individuals) if predicate(row)),
            dtype=np.intp,
        )
        return DatasetView(self, index, name=name or f"{self.name}/filtered")

    def select_uids(self, uids: Iterable[str]) -> "DatasetView":
        """Return a view restricted to the given individual ids."""
        wanted = set(uids)
        own = self.uids
        missing = wanted - set(own)
        if missing:
            raise DataError(f"unknown individual ids: {sorted(missing)}")
        index = np.fromiter(
            (position for position, uid in enumerate(own) if uid in wanted), dtype=np.intp
        )
        return DatasetView(self, index, name=f"{self.name}/subset")

    def project(self, names: Sequence[str]) -> "Dataset":
        """Return a dataset with only the attributes in ``names``."""
        sub_schema = self.schema.project(names)
        individuals = tuple(
            Individual(uid=ind.uid, values={n: ind.values[n] for n in sub_schema.names})
            for ind in self._individuals
        )
        return Dataset(sub_schema, individuals, name=f"{self.name}/projected", validate=False)

    def map_column(
        self,
        name: str,
        mapper: Callable[[object], object],
        as_categorical: bool = False,
    ) -> "Dataset":
        """Return a dataset where column ``name`` is rewritten by ``mapper``.

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
        individuals = tuple(
            ind.with_values(**{name: mapper(ind.values[name])}) for ind in self._individuals
        )
        return Dataset(new_schema, individuals, name=self.name, validate=False)

    def with_schema(self, schema: Schema) -> "Dataset":
        """Return this data re-validated under a (compatible) new schema."""
        return Dataset(schema, self._individuals, name=self.name)

    def group_by(self, names: Sequence[str]) -> Dict[Tuple[object, ...], "DatasetView"]:
        """Group individuals by the combination of values of ``names``.

        Returns a mapping from the value tuple to a view of the individuals
        having those values, preserving row order inside each group.  Group
        keys are emitted in first-seen order; each key holds the values of
        its group's first row.
        """
        combined = np.zeros(len(self), dtype=np.int64)
        for name in names:
            codes, decode, _ = self.codes(name)
            # Re-densify after each attribute so the combined code never
            # overflows, however many attributes are grouped.
            _, combined = np.unique(combined * len(decode) + codes, return_inverse=True)
        _, first, group = np.unique(combined, return_index=True, return_inverse=True)
        members = np.argsort(group, kind="stable")
        ends = np.cumsum(np.bincount(group, minlength=len(first)))
        store = self.store
        columns = [store.column(name) for name in names]
        groups: Dict[Tuple[object, ...], DatasetView] = {}
        for code in np.argsort(first, kind="stable").tolist():
            row = int(first[code])
            key = tuple(column.decode_range(row, row + 1)[0] for column in columns)
            start = int(ends[code - 1]) if code else 0
            index = members[start : int(ends[code])]
            groups[key] = DatasetView(self, index, name=f"{self.name}/{key}")
        return groups

    def concat(self, other: "Dataset", name: Optional[str] = None) -> "Dataset":
        """Concatenate two datasets over the same schema."""
        if set(other.schema.names) != set(self.schema.names):
            raise DataError("cannot concatenate datasets with different schemas")
        return Dataset(
            self.schema,
            self._individuals + tuple(other),
            name=name or f"{self.name}+{other.name}",
        )

    def require_non_empty(self) -> "Dataset":
        """Return self, raising :class:`EmptyDatasetError` if there are no rows."""
        if not len(self):
            raise EmptyDatasetError(f"dataset {self.name!r} is empty")
        return self

    # -- export -------------------------------------------------------------

    def to_records(self, include_uid: bool = True) -> List[Dict[str, object]]:
        """Return the dataset as a list of plain dicts (for CSV/JSON export)."""
        records = []
        for individual in self._individuals:
            record: Dict[str, object] = {}
            if include_uid:
                record["uid"] = individual.uid
            record.update({name: individual.values[name] for name in self.schema.names})
            records.append(record)
        return records

    def observed_matrix(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Return an (n, m) float matrix of observed attribute columns.

        ``names`` defaults to every observed attribute in schema order.  This
        is the matrix a linear scoring function multiplies by its weights,
        stacked straight from the contiguous ``float64`` arrays.
        """
        if names is None:
            names = self.schema.observed_names
        if not names:
            return np.zeros((len(self), 0), dtype=float)
        columns = [self.numeric_column(name) for name in names]
        return np.column_stack(columns) if columns else np.zeros((len(self), 0))

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
            column = parent.column(name)
            if isinstance(column, CodedColumn):
                columns[name] = CodedColumn(column.codes[index], column.values)
            else:
                columns[name] = NumericColumn(column.values[index])
        return ColumnStore(len(index), columns, uids=self.uids)

    def indices_in(self, ancestor: Dataset) -> Optional[np.ndarray]:
        if ancestor is self:
            return np.arange(len(self), dtype=np.intp)
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
