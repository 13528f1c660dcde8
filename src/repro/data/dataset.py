"""Tabular store of individuals (workers) for FaiRank — row- or column-backed.

The :class:`Dataset` is the substrate every other subsystem consumes: the
scoring functions read observed attribute columns from it, the partitioning
algorithms group its rows by protected-attribute values, the anonymiser
rewrites its protected columns, and the marketplace generator produces it.

Two backings share one contract:

* **row-primary** datasets (the classic construction: ``Dataset(schema,
  individuals)``) hold a tuple of :class:`Individual` objects and behave
  exactly as they always have;
* **column-primary** datasets (:meth:`Dataset.from_store`) hold a
  :class:`~repro.data.columns.ColumnStore` of contiguous numpy arrays —
  integer-coded protected attributes, ``float64`` observed attributes,
  optionally memory-mapped from disk — and materialise :class:`Individual`
  rows *lazily*, only if something actually iterates them.  Column access
  (:meth:`column`, :meth:`numeric_column`, :meth:`observed_matrix`,
  :meth:`codes`, :meth:`value_counts`, :meth:`distinct_values`) is served
  straight from the arrays, so the scoring and partitioning hot paths never
  touch per-row dicts.

Both backings produce identical values, identical orderings and identical
content fingerprints, so every downstream result is byte-identical whichever
backing a population arrived on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.columns import CodedColumn, ColumnStore, ColumnStoreBuilder, NumericColumn
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import DataError, EmptyDatasetError, UnknownAttributeError

__all__ = ["Individual", "Dataset", "order_values"]

#: Guards per-dataset lazy caches (integer codings, materialised rows) so
#: concurrent readers (the service batch executor) never duplicate work.
_codes_lock = threading.Lock()


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


@dataclass(frozen=True)
class Individual:
    """A single individual (worker) with an identifier and attribute values.

    ``values`` maps attribute name to value.  Individuals are immutable; the
    dataset is the unit of mutation (by producing new datasets).  For a
    column-backed dataset these objects are a *materialised view*: they are
    built on first iteration from the decode tables and numeric arrays, and
    carry exactly the values the columns hold.
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
    """A set of individuals conforming to a :class:`Schema`.

    The dataset validates every row against the schema at construction time,
    and exposes column access, filtering, projection and group-by operations
    used throughout the library.

    Columnar contract: a dataset built with :meth:`from_store` keeps the
    population as contiguous per-attribute arrays (see
    :mod:`repro.data.columns`) and serves :meth:`column`,
    :meth:`numeric_column`, :meth:`observed_matrix`, :meth:`codes`,
    :meth:`value_counts` and :meth:`distinct_values` directly from them —
    no :class:`Individual` is ever created unless a consumer iterates rows,
    at which point they materialise once and are cached.  Row-primary
    datasets behave exactly as before; :meth:`codes` gives both backings the
    same first-seen integer coding of any attribute column.
    """

    #: Column backing; ``None`` for row-primary datasets.  A class attribute
    #: so subclasses that bypass ``__init__`` (the score store's lazy slices)
    #: still read a well-defined value.
    _store: Optional[ColumnStore] = None

    def __init__(
        self,
        schema: Schema,
        individuals: Iterable[Individual],
        name: str = "dataset",
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self.name = name
        self.__dict__["_rows"] = tuple(individuals)
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
        """Build a (row-primary) dataset from column vectors keyed by name."""
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
        records = [
            {attr: columns[attr][i] for attr in columns} for i in range(n)
        ]
        individuals = [Individual(uid=str(uid), values=rec) for uid, rec in zip(uids, records)]
        return cls(schema=schema, individuals=individuals, name=name)

    @classmethod
    def from_store(
        cls,
        schema: Schema,
        store: ColumnStore,
        name: str = "dataset",
        validate: bool = True,
    ) -> "Dataset":
        """Build a column-primary dataset over a :class:`ColumnStore`.

        No :class:`Individual` objects are created — rows materialise lazily
        on first iteration.  Validation is vectorised: coded columns validate
        each *distinct* value once, numeric columns validate their declared
        range in one array comparison, and uid uniqueness is a set check.
        """
        dataset = cls.__new__(cls)
        dataset.schema = schema
        dataset.name = name
        dataset._store = store
        if validate:
            dataset._validate_store()
        return dataset

    def _validate(self) -> None:
        seen_uids = set()
        for individual in self._individuals:
            if individual.uid in seen_uids:
                raise DataError(f"duplicate individual id {individual.uid!r}")
            seen_uids.add(individual.uid)
            for attr in self.schema:
                if attr.name not in individual.values:
                    raise DataError(
                        f"individual {individual.uid!r} is missing attribute {attr.name!r}"
                    )
                value = individual.values[attr.name]
                if not attr.validate_value(value):
                    raise DataError(
                        f"individual {individual.uid!r} has invalid value {value!r} "
                        f"for attribute {attr.name!r}"
                    )

    def _validate_store(self) -> None:
        """Vectorised validation of a column-backed dataset.

        Checks the same contract as :meth:`_validate` — unique uids, every
        schema attribute present, every value admissible — without building a
        single row: O(distinct values) for coded columns, one vectorised
        range comparison for numeric columns.
        """
        store = self._store
        assert store is not None
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
                for value in column.values:
                    if not attr.validate_value(value):
                        index = int(np.argmax(column.codes == column.values.index(value)))
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
    def store(self) -> Optional[ColumnStore]:
        """The column backing, or ``None`` for a row-primary dataset."""
        return self._store

    def to_store(self) -> ColumnStore:
        """Package this dataset's values as a :class:`ColumnStore`.

        Column-backed datasets return their existing backing.  Row-primary
        datasets are converted: a numeric attribute whose values are all
        plain floats becomes a contiguous ``float64`` array, every other
        attribute becomes an integer-coded column whose decode table keeps
        the *exact* row values (ints stay ints, bools stay bools) — so a
        dataset rebuilt from the store, e.g. after
        :meth:`ColumnStore.save`/:meth:`ColumnStore.load`, has the same
        content fingerprint as the original.
        """
        store = self._store
        if store is not None:
            return store
        names = self.schema.names
        columns = {name: self.column(name) for name in names}
        coded: List[str] = []
        numeric: List[str] = []
        for attr in self.schema:
            if attr.atype is AttributeType.NUMERIC and all(
                type(value) is float for value in columns[attr.name]
            ):
                numeric.append(attr.name)
            else:
                coded.append(attr.name)
        uids = self.uids
        sequential = all(
            uid == f"w{index + 1}" for index, uid in enumerate(uids)
        )
        builder = ColumnStoreBuilder(coded, numeric, collect_uids=not sequential)
        builder.append_chunk(columns, uids=None if sequential else uids)
        return builder.finish()

    @property
    def _individuals(self) -> Tuple[Individual, ...]:
        """The row tuple, materialising it from the column store on demand."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            with _codes_lock:
                rows = self.__dict__.get("_rows")
                if rows is None:
                    rows = self._materialize_rows()
                    self.__dict__["_rows"] = rows
        return rows

    def _materialize_rows(self) -> Tuple[Individual, ...]:
        store = self._store
        assert store is not None
        names = self.schema.names
        decoded = {name: store.column(name).decode_range(0, store.n) for name in names}
        uids = store.uids()
        return tuple(
            Individual(
                uid=uids[index],
                values={name: decoded[name][index] for name in names},
            )
            for index in range(store.n)
        )

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        store = self._store
        if store is not None:
            return store.n
        return len(self._individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._individuals)

    def __getitem__(self, index: int) -> Individual:
        return self._individuals[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, n={len(self)}, "
            f"protected={list(self.schema.protected_names)}, "
            f"observed={list(self.schema.observed_names)})"
        )

    @property
    def individuals(self) -> Tuple[Individual, ...]:
        """All rows as :class:`Individual` objects (materialised if needed)."""
        return self._individuals

    @property
    def uids(self) -> Tuple[str, ...]:
        """All row ids, in row order (column-backed: no rows materialised).

        Cached: the score store's slices index into their base's uids.
        """
        cached = self.__dict__.get("_uids")
        if cached is None:
            store = self._store
            if store is not None:
                cached = store.uids()
            else:
                cached = tuple(ind.uid for ind in self._individuals)
            self.__dict__["_uids"] = cached
        return cached

    def by_uid(self, uid: str) -> Individual:
        """Return the individual with the given id."""
        for individual in self._individuals:
            if individual.uid == uid:
                return individual
        raise DataError(f"no individual with id {uid!r} in dataset {self.name!r}")

    def iter_rows(self, chunk_rows: int = 65536) -> Iterator[Tuple[str, List[object]]]:
        """Yield ``(uid, [values in schema order])`` per row.

        For a column-backed dataset this decodes ``chunk_rows`` rows at a
        time and never materialises :class:`Individual` objects — it is the
        streaming row walk content fingerprinting uses, so registering a
        10M-row population holds one chunk of Python values at a time.
        """
        store = self._store
        names = self.schema.names
        if store is not None and self.__dict__.get("_rows") is None:
            yield from store.iter_rows(names, chunk_rows=chunk_rows)
            return
        for individual in self._individuals:
            values = individual.values
            yield individual.uid, [values[name] for name in names]

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> Tuple[object, ...]:
        """Return the values of attribute ``name`` for all individuals, in order.

        Column-backed datasets decode straight from the arrays; row-primary
        datasets walk their rows.  Identical values either way.
        """
        self.schema.attribute(name)
        store = self._store
        if store is not None:
            return tuple(store.column(name).decode_range(0, store.n))
        return tuple(ind.values[name] for ind in self._individuals)

    def numeric_column(self, name: str) -> np.ndarray:
        """Return a fresh float array of an observed (numeric) attribute column.

        Column-backed datasets copy the contiguous ``float64`` array (no
        per-row ``float()`` calls); the copy keeps the classic contract that
        callers may mutate the result without corrupting the dataset.
        """
        attr = self.schema.attribute(name)
        if attr.atype is not AttributeType.NUMERIC:
            raise DataError(f"attribute {name!r} is not numeric")
        store = self._store
        if store is not None:
            column = store.column(name)
            if isinstance(column, NumericColumn):
                return np.array(column.values, dtype=float)
            return np.asarray(
                [float(v) for v in column.decode_range(0, store.n)], dtype=float
            )
        return np.asarray([float(ind.values[name]) for ind in self._individuals], dtype=float)

    def codes(self, name: str) -> Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]:
        """Integer coding of attribute ``name``: ``(codes, decode, encode)``.

        ``codes`` is a read-only ``int64`` array of per-row codes, ``decode``
        maps code -> value and ``encode`` value -> code, in first-seen row
        order.  This is the coding the score store's index-based splits
        consume; a column-backed dataset serves it straight from its coded
        arrays (zero per-row work), a row-primary dataset computes and caches
        it once per attribute.
        """
        cache: Dict[str, Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]]
        cache = self.__dict__.setdefault("_codes_cache", {})
        cached = cache.get(name)
        if cached is not None:
            return cached
        self.schema.attribute(name)
        store = self._store
        if store is not None:
            result = self._codes_from_store(store, name)
        else:
            rows = self._individuals
            encode: Dict[object, int] = {}
            codes = np.empty(len(rows), dtype=np.int64)
            encode_get = encode.get
            for position, individual in enumerate(rows):
                value = individual.values[name]
                code = encode_get(value)
                if code is None:
                    code = len(encode)
                    encode[value] = code
                codes[position] = code
            codes.setflags(write=False)
            result = (codes, tuple(encode), encode)
        with _codes_lock:
            return cache.setdefault(name, result)

    def _codes_from_store(
        self, store: ColumnStore, name: str
    ) -> Tuple[np.ndarray, Tuple[object, ...], Dict[object, int]]:
        column = store.column(name)
        if isinstance(column, CodedColumn):
            decode = column.values
            encode: Dict[object, int] = {}
            for code, value in enumerate(decode):
                encode.setdefault(value, code)
            if len(encode) == len(decode):
                return (column.codes, decode, encode)
            # The decode table distinguishes equal-under-`==` values (1 vs
            # 1.0); splits must not, to match the row-primary coding exactly.
            collapsed: Dict[object, int] = {}
            for value in decode:
                collapsed.setdefault(value, len(collapsed))
            remap = np.asarray([collapsed[value] for value in decode], dtype=np.int64)
            codes = remap[np.asarray(column.codes)]
            codes.setflags(write=False)
            return (codes, tuple(collapsed), collapsed)
        # Numeric backing: first-seen coding computed vectorised.
        values = np.asarray(column.values)
        uniques, first_pos, inverse = np.unique(
            values, return_index=True, return_inverse=True
        )
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        codes = rank[inverse]
        codes.setflags(write=False)
        decode_list = [float(uniques[index]) for index in order]
        encode = {value: code for code, value in enumerate(decode_list)}
        return (codes, tuple(decode_list), encode)

    def value_counts(self, name: str) -> Dict[object, int]:
        """Return a value -> count mapping for attribute ``name``.

        Keys are emitted in first-seen row order (for a coded column, the
        decode-table order — identical by construction).
        """
        store = self._store
        if store is not None:
            column = store.column(name)
            if isinstance(column, CodedColumn):
                self.schema.attribute(name)
                counts = np.bincount(column.codes, minlength=len(column.values))
                return {
                    value: int(counts[code])
                    for code, value in enumerate(column.values)
                    if counts[code]
                }
        counts_dict: Dict[object, int] = {}
        for value in self.column(name):
            counts_dict[value] = counts_dict.get(value, 0) + 1
        return counts_dict

    def distinct_values(self, name: str) -> Tuple[object, ...]:
        """Distinct values of attribute ``name``.

        Uses the declared domain order when available; otherwise values are
        returned in a stable sorted order (by string representation for mixed
        types) so downstream algorithms are deterministic.  Column-backed
        datasets order the decode table instead of walking rows.
        """
        attr = self.schema.attribute(name)
        store = self._store
        if store is not None:
            column = store.column(name)
            if isinstance(column, CodedColumn):
                present_codes = set(np.unique(column.codes).tolist())
                present = {
                    value
                    for code, value in enumerate(column.values)
                    if code in present_codes
                }
                return order_values(attr, present)
        return order_values(attr, self.column(name))

    # -- relational-ish operations ------------------------------------------

    def filter(
        self, predicate: Callable[[Individual], bool], name: Optional[str] = None
    ) -> "Dataset":
        """Return a new dataset with only the individuals matching ``predicate``."""
        kept = tuple(ind for ind in self._individuals if predicate(ind))
        return Dataset(
            schema=self.schema,
            individuals=kept,
            name=name or f"{self.name}/filtered",
            validate=False,
        )

    def select_uids(self, uids: Iterable[str]) -> "Dataset":
        """Return a new dataset restricted to the given individual ids."""
        wanted = set(uids)
        missing = wanted - set(self.uids)
        if missing:
            raise DataError(f"unknown individual ids: {sorted(missing)}")
        kept = tuple(ind for ind in self._individuals if ind.uid in wanted)
        return Dataset(self.schema, kept, name=f"{self.name}/subset", validate=False)

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

    def group_by(self, names: Sequence[str]) -> Dict[Tuple[object, ...], "Dataset"]:
        """Group individuals by the combination of values of ``names``.

        Returns a mapping from the value tuple to the sub-dataset of
        individuals having those values, preserving input order inside each
        group.  Group keys are emitted in first-seen order.
        """
        for name in names:
            self.schema.attribute(name)
        groups: Dict[Tuple[object, ...], List[Individual]] = {}
        for individual in self._individuals:
            key = tuple(individual.values[name] for name in names)
            groups.setdefault(key, []).append(individual)
        return {
            key: Dataset(self.schema, tuple(members), name=f"{self.name}/{key}", validate=False)
            for key, members in groups.items()
        }

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
        is the matrix a linear scoring function multiplies by its weights;
        for a column-backed dataset it is stacked straight from the
        contiguous ``float64`` arrays.
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
