"""Compute-once score materialization: the one scoring path of FaiRank.

The QUANTIFY search (and everything layered on top of it — statistics boxes,
breakdowns, audits, comparisons) repeatedly asks for the scores of *subsets*
of one population under one scoring function: every candidate split, every
tree node, every sibling histogram re-walks the same individuals.  The
:class:`ScoreStore` is the only code that answers that question:

* the **full score vector** of the store's dataset is computed exactly once
  (one ``function.score_dataset`` pass) and every partition's scores are
  derived from it by uid-index slicing — bit-for-bit identical to scoring the
  partition directly, because each individual's score is a pure function of
  its own row;
* **histograms are memoised** keyed by ``(partition.key, binning)`` — the
  scoring function is fixed per store, and the service layer keys whole
  stores by ``(dataset fingerprint, function fingerprint)``, so the
  composite identity of a cached histogram is
  ``(dataset, function, partition, binning)`` as the paper's interactive
  workload demands.  Counts come from one ``searchsorted`` pass over the
  full vector per binning plus a ``bincount`` per partition, verified
  bin-for-bin identical to :func:`~repro.metrics.histogram.build_histogram`;
* **splits are index operations**: protected columns are integer-coded once,
  so splitting a partition on an attribute is a vectorised comparison over
  its row indices instead of a Python group-by, and the children's member
  datasets are :class:`~repro.data.dataset.DatasetView` index views of the
  store's dataset — a losing candidate split never copies a column;
* the memo is **bounded** (LRU over partitions) so a long-lived service
  store cannot grow without limit, and every counter needed to audit the
  layer (scoring passes, slices, hits/misses/evictions) is exposed as an
  immutable :class:`ScoreStoreStats` snapshot.

Every entry point that takes a scoring function (``quantify``,
``unfairness``, the roles, the session renderers) resolves its store through
:func:`store_for`: the caller's store when given, else a private store over
the call's root dataset.  Mismatches raise instead of re-scoring: a store
that does not :meth:`~ScoreStore.serves` the function raises
:class:`~repro.errors.ScoringError`, and a partition whose members cannot be
mapped onto the store's rows raises :class:`~repro.errors.PartitioningError`.

Thread safety: all mutation happens under one lock; score vectors, codes and
histogram values are immutable once published, so concurrent readers (the
service batch executor) can share one store.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.data.dataset import Dataset, DatasetView, order_values
from repro.data.schema import Attribute
from repro.errors import FaiRankError, PartitioningError, ScoringError, WarmStartError
from repro.metrics.histogram import Binning, Histogram
from repro.obs.trace import span as trace_span
from repro.scoring.base import ScoringFunction, frozen_scores

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.partition import Partition

__all__ = [
    "STORE_BUNDLE_FORMAT",
    "STORE_BUNDLE_VERSION",
    "ScoreStore",
    "ScoreStoreStats",
    "store_for",
]

#: Identifies a persisted score-store bundle (arbitrary JSON is rejected loudly).
STORE_BUNDLE_FORMAT = "fairank-scorestore"

#: The bundle schema version this build writes (and the only one it reads).
STORE_BUNDLE_VERSION = 1

#: Default bound on memoised partitions per store.  A QUANTIFY search over a
#: 10k-row population touches a couple of thousand candidate partitions; the
#: default leaves headroom while keeping a long-lived service store bounded.
DEFAULT_MAX_PARTITIONS = 8192


@dataclass(frozen=True)
class ScoreStoreStats:
    """Immutable snapshot of one store's effectiveness counters.

    ``scoring_passes`` counts invocations of ``function.score_dataset`` —
    ideally exactly 1 (the materialization pass); ``sliced_partitions``
    counts the partitions the store mapped onto its rows.
    """

    scoring_passes: int = 0
    sliced_partitions: int = 0
    histogram_hits: int = 0
    histogram_misses: int = 0
    evictions: int = 0

    @property
    def histogram_requests(self) -> int:
        return self.histogram_hits + self.histogram_misses

    @property
    def histogram_hit_rate(self) -> float:
        """Fraction of histogram requests served from the memo."""
        total = self.histogram_requests
        return self.histogram_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scoring_passes": self.scoring_passes,
            "sliced_partitions": self.sliced_partitions,
            "histogram_hits": self.histogram_hits,
            "histogram_misses": self.histogram_misses,
            "evictions": self.evictions,
            "histogram_hit_rate": round(self.histogram_hit_rate, 4),
        }

    def describe(self) -> str:
        return (
            f"{self.scoring_passes} scoring pass(es), "
            f"{self.sliced_partitions} sliced partitions, "
            f"histograms {self.histogram_hits} hits / {self.histogram_misses} misses "
            f"({self.histogram_hit_rate:.0%}), {self.evictions} evictions"
        )


class _Entry:
    """Per-partition store entry: row indices, lazy scores, histogram memos.

    ``candidates`` memoises the outcome of candidate-split evaluation —
    ``(attribute, binning) -> (ordered values, child sizes, child
    histograms)`` — so re-running a search under a different formulation
    with the same binning reuses the whole per-split histogram batch.
    """

    __slots__ = ("indices", "scores", "histograms", "candidates", "bin_slices")

    def __init__(self, indices: np.ndarray) -> None:
        self.indices = indices
        self.scores: Optional[np.ndarray] = None
        self.histograms: Dict[Binning, Histogram] = {}
        self.candidates: Dict[
            Tuple[str, Binning],
            Tuple[Tuple[object, ...], Tuple[int, ...], Tuple[Histogram, ...]],
        ] = {}
        # binning -> this partition's slice of the per-row bin codes, shared
        # by every candidate attribute evaluated at this node.
        self.bin_slices: Dict[Binning, np.ndarray] = {}


def _binning_to_json(binning: Binning) -> Dict[str, object]:
    """A Binning as its (low, high, bins) triple — exact: JSON round-trips floats."""
    return {"low": binning.low, "high": binning.high, "bins": binning.bins}


def _binning_from_json(payload: Mapping[str, object]) -> Binning:
    return Binning(
        low=float(payload["low"]),  # type: ignore[arg-type]
        high=float(payload["high"]),  # type: ignore[arg-type]
        bins=int(payload["bins"]),  # type: ignore[arg-type]
    )


def _bundle_file(directory: Path, name: object) -> Path:
    """Resolve a manifest-referenced file name, refusing path escapes."""
    file_name = str(name)
    if Path(file_name).name != file_name:
        raise WarmStartError(
            f"score-store bundle references a non-local file {file_name!r}",
            reason="manifest",
        )
    return directory / file_name


def _read_array(
    directory: Path, name: object, dtype: type, rows: Optional[int]
) -> np.ndarray:
    """Read one raw ``.bin`` buffer, validating its exact element count.

    ``np.fromfile`` happily returns a short array for a truncated file, so
    the element count is checked explicitly — a partial ``.bin`` must fail
    the load (reason ``truncated``), never silently serve fewer rows.
    """
    path = _bundle_file(directory, name)
    try:
        data = np.fromfile(path, dtype=dtype)
    except OSError as error:
        raise WarmStartError(
            f"cannot read score-store buffer {path.name}: {error}", reason="truncated"
        ) from None
    if rows is not None and data.size != rows:
        raise WarmStartError(
            f"score-store buffer {path.name} holds {data.size} values, "
            f"expected {rows} (truncated or foreign bundle)",
            reason="truncated",
        )
    return data


class ScoreStore:
    """Materialized score vector + histogram memo for one (dataset, function).

    Parameters
    ----------
    dataset:
        The root population.  Every partition handed to the store should be
        drawn from this dataset (subsets produced by splitting/filtering it).
    function:
        The scoring function whose scores are materialized.
    max_partitions:
        LRU bound on the number of distinct partitions whose indices, scores
        and histograms are memoised; ``None`` disables the bound.
    trust_uids:
        When False (default), a partition is sliced only if its members are
        derived from the store's dataset — a view whose provenance chain
        (:meth:`~repro.data.dataset.Dataset.indices_in`) reaches it; a
        content-equal rebuilt dataset is refused.  The service layer keys
        stores by content fingerprint and sets True, so content-identical
        datasets rebuilt between requests (re-filtered copies, re-parsed
        uploads) still share one scoring pass via uid mapping.
    """

    def __init__(
        self,
        dataset: Dataset,
        function: ScoringFunction,
        max_partitions: Optional[int] = DEFAULT_MAX_PARTITIONS,
        trust_uids: bool = False,
    ) -> None:
        if max_partitions is not None and max_partitions < 1:
            raise ValueError(f"max_partitions must be >= 1, got {max_partitions}")
        self.dataset = dataset
        self.function = function
        self.max_partitions = max_partitions
        self.trust_uids = trust_uids
        self._lock = threading.RLock()
        self._vector: Optional[np.ndarray] = None
        self._row_index: Optional[Dict[str, int]] = None
        self._partitions: "OrderedDict[object, _Entry]" = OrderedDict()
        # attribute name -> (per-row codes, code -> value, value -> code,
        # code -> member-dataset name suffix); see _attribute_codes.
        self._codes: Dict[
            str, Tuple[np.ndarray, Tuple[object, ...], Dict[object, int], Tuple[str, ...]]
        ] = {}
        # attribute name -> canonical full ordering of its values
        self._ordered: Dict[str, Tuple[object, ...]] = {}
        # binning -> per-row bin index (for bincount-based histograms)
        self._bin_codes: Dict[Binning, np.ndarray] = {}
        self._scoring_passes = 0
        self._sliced_partitions = 0
        self._histogram_hits = 0
        self._histogram_misses = 0
        self._evictions = 0
        # Functions (beyond self.function) verified fingerprint-equal, so
        # repeated serves() checks are an identity lookup.
        self._accepted_functions: Dict[ScoringFunction, bool] = {}
        self._own_fingerprint: Optional[str] = None

    def serves(self, function: ScoringFunction) -> bool:
        """Whether this store's materialized scores are valid for ``function``.

        True for the store's own function object, and for distinct objects
        that prove content equality via the ``fingerprint()`` protocol (the
        service pool hands out stores keyed by fingerprint, so a rebuilt but
        identical scorer must still be served).  :func:`store_for` refuses a
        store that does not serve the caller's function — sharing a store
        across *different* functions must never silently serve wrong scores.
        """
        if function is self.function:
            return True
        with self._lock:
            accepted = self._accepted_functions.get(function)
        if accepted is not None:
            return accepted
        try:
            own = self._own_fingerprint
            if own is None:
                own = str(self.function.fingerprint())
            matches = str(function.fingerprint()) == own
        except NotImplementedError:
            return False
        with self._lock:
            self._own_fingerprint = own
            if len(self._accepted_functions) >= 16:
                self._accepted_functions.pop(next(iter(self._accepted_functions)))
            self._accepted_functions[function] = matches
        return matches

    # -- the materialized vector ----------------------------------------------

    def vector(self) -> np.ndarray:
        """The full, read-only score vector of the store's dataset (row order).

        Computed lazily, exactly once; every subsequent partition score is a
        slice of this array.  The fast path is lock-free: the vector is
        immutable once published, so a plain read is safe under the GIL.
        """
        vector = self._vector
        if vector is not None:
            return vector
        with self._lock:
            if self._vector is None:
                # Timed into the active request trace (no-op outside one), so
                # a cold envelope's timings show its materialization cost.
                with trace_span("score"):
                    self._vector = frozen_scores(self.function, self.dataset)
                self._scoring_passes += 1
            return self._vector

    def _row_index_map(self) -> Dict[str, int]:
        """uid -> row position, built lazily (only uid-mapped partitions need it).

        Built from ``dataset.uids``, which every dataset serves without
        materialising rows.
        """
        index = self._row_index
        if index is not None:
            return index
        with self._lock:
            if self._row_index is None:
                self._row_index = {
                    uid: position for position, uid in enumerate(self.dataset.uids)
                }
            return self._row_index

    def _indices_for_members(self, members: Dataset) -> np.ndarray:
        """Row indices of ``members`` in the store's dataset.

        Proven by provenance: a view whose parent chain reaches the store's
        dataset maps by composing its index arrays.  A trusted store also
        maps any other dataset by uid, so content-identical populations
        rebuilt between requests share one scoring pass.  Anything else
        raises :class:`~repro.errors.PartitioningError`.
        """
        indices = members.indices_in(self.dataset)
        if indices is not None:
            return indices
        if not self.trust_uids:
            raise self._foreign(members)
        row_index = self._row_index_map()
        indices = np.empty(len(members), dtype=np.intp)
        for position, uid in enumerate(members.uids):
            index = row_index.get(uid)
            if index is None:
                raise self._foreign(members)
            indices[position] = index
        return indices

    def _foreign(self, members: Dataset) -> PartitioningError:
        return PartitioningError(
            f"{members.name!r} is not drawn from the score store's dataset "
            f"{self.dataset.name!r}; build the store over the partition's population"
        )

    # -- partition-level access -------------------------------------------------

    def scores(self, partition: "Partition") -> np.ndarray:
        """Scores of the partition's members, sliced from the full vector.

        Bit-for-bit identical to ``partition.members`` scored directly.
        Raises :class:`~repro.errors.PartitioningError` for a partition whose
        members cannot be mapped onto the store's rows.
        """
        entry = self._entry(partition)
        vector = self.vector()
        with self._lock:
            values = entry.scores
            if values is None:
                if partition.members is self.dataset:
                    values = vector  # the root partition: the full vector itself
                else:
                    values = vector[entry.indices]
                    values.setflags(write=False)
                entry.scores = values
            return values

    def histogram(self, partition: "Partition", binning: Optional[Binning] = None) -> Histogram:
        """Memoised score histogram of the partition over ``binning``.

        The memo key is ``(partition.key, binning)``; the same partition
        re-requested under the same binning (candidate splits, sibling sets,
        statistics boxes) is a hit.  Counts are produced by ``bincount`` over
        precomputed per-row bin indices — identical to
        :func:`~repro.metrics.histogram.build_histogram` on the same scores.
        """
        if binning is None:
            binning = Binning.unit()
        entry = self._entry(partition)
        with self._lock:
            cached = entry.histograms.get(binning)
            if cached is not None:
                self._histogram_hits += 1
                return cached
            self._histogram_misses += 1
        codes = self._bin_codes_for(binning)
        # minlength covers the NaN sentinel bin; the slice discards it.
        counts = np.bincount(codes[entry.indices], minlength=binning.bins)
        histogram = Histogram(
            binning=binning, counts=tuple(int(c) for c in counts[: binning.bins])
        )
        with self._lock:
            return entry.histograms.setdefault(binning, histogram)

    def statistics(self, partition: "Partition") -> Dict[str, float]:
        """Summary statistics of the partition (the session layer's Node box)."""
        values = self.scores(partition)
        if values.size == 0:
            return {"size": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "std": 0.0}
        return {
            "size": int(values.size),
            "mean": float(values.mean()),
            "min": float(values.min()),
            "max": float(values.max()),
            "std": float(values.std()),
        }

    # -- index-based splitting ---------------------------------------------------

    def candidate_split(
        self, partition: "Partition", attr: Attribute, binning: Binning
    ) -> Tuple[Tuple[object, ...], Tuple[int, ...], Tuple[Histogram, ...]]:
        """Evaluate splitting ``partition`` on ``attr`` without materialising it.

        Returns ``(ordered child values, child sizes, child histograms)`` —
        everything the greedy search needs to *score* a candidate split.  The
        histograms come from one two-dimensional ``bincount`` over the
        partition's rows (value code × bin code), bit-identical to building
        each child and histogramming it, but with no per-child Python work;
        only the winning attribute ever becomes real :class:`Partition`
        objects (via :meth:`split`).  Results are memoised per
        ``(partition, attribute, binning)``.
        """
        entry = self._entry(partition)
        indices = entry.indices
        memo_key = (attr.name, binning)
        with self._lock:
            cached = entry.candidates.get(memo_key)
            if cached is not None:
                self._histogram_hits += len(cached[2])
                return cached
        codes, decode, encode, _ = self._attribute_codes(attr.name)
        ordered_all = self._ordered_values(attr)
        # Stride bins + 1: bin codes include the NaN sentinel ``bins``, which
        # must not spill into the next value's bin 0.
        stride = binning.bins + 1
        sub = codes[indices]
        bin_sub = entry.bin_slices.get(binning)
        if bin_sub is None:
            bin_sub = self._bin_codes_for(binning)[indices]
            entry.bin_slices[binning] = bin_sub
        counts = np.bincount(sub * stride + bin_sub, minlength=len(decode) * stride)
        counts = counts.reshape(len(decode), stride)
        # Sizes count members (including NaN-scored ones); histogram counts
        # drop the sentinel column, matching build_histogram's NaN handling.
        sizes = counts.sum(axis=1).tolist()
        counts_list = counts[:, : binning.bins].tolist()
        # order_values over a subset is a filter of the full ordering.
        ordered = tuple(value for value in ordered_all if sizes[encode[value]])
        child_sizes = []
        histograms = []
        for value in ordered:
            code = encode[value]
            child_sizes.append(sizes[code])
            # Trusted construction: bincount rows are valid histogram counts
            # by construction, so the dataclass validation is skipped.
            histogram = object.__new__(Histogram)
            object.__setattr__(histogram, "binning", binning)
            object.__setattr__(histogram, "counts", tuple(counts_list[code]))
            histograms.append(histogram)
        result = (ordered, tuple(child_sizes), tuple(histograms))
        with self._lock:
            result = entry.candidates.setdefault(memo_key, result)
            self._histogram_misses += len(result[2])
            return result

    def split(self, partition: "Partition", attr: Attribute) -> Tuple["Partition", ...]:
        """Children of ``partition`` split on ``attr``, via index operations.

        Children are produced in the same order as a group-by split
        (declared domain order, else stable sorted), their member datasets
        are index views of the store's dataset, and their store entries are
        pre-registered so the subsequent histogram/score requests skip
        mapping entirely.
        """
        from repro.core.partition import Partition

        entry = self._entry(partition)
        indices = entry.indices
        codes, decode, encode, suffixes = self._attribute_codes(attr.name)
        sub = codes[indices]
        present = {decode[code] for code in np.unique(sub).tolist()}
        ordered = tuple(v for v in self._ordered_values(attr) if v in present)
        children: List[Partition] = []
        entries: List[Tuple[object, np.ndarray]] = []
        base_name = partition.members.name
        constraints = partition.constraints
        attr_name = attr.name
        for value in ordered:
            code = encode[value]
            child_indices = indices[sub == code]
            members = DatasetView(
                self.dataset, child_indices, name=base_name + suffixes[code]
            )
            # Fast construction: the dataclass __init__/__post_init__ only
            # normalises and validates the constraints, which hold here by
            # construction (the parent was valid and attr is new).
            child = object.__new__(Partition)
            object.__setattr__(child, "constraints", constraints + ((attr_name, value),))
            object.__setattr__(child, "members", members)
            children.append(child)
            entries.append((child.key, child_indices))
        with self._lock:
            partitions = self._partitions
            new_entries: List[_Entry] = []
            for (key, child_indices), child in zip(entries, children):
                child_entry = partitions.get(key)
                if child_entry is None or not self._entry_matches(child_entry, child.members):
                    child_entry = _Entry(child_indices)
                    partitions[key] = child_entry
                    self._sliced_partitions += 1
                new_entries.append(child_entry)
            # Seed the children's histogram memos from this partition's
            # candidate-split batches (same attribute, any binning), so the
            # winning split's histograms are never recomputed.
            for (cand_attr, binning), (values, _, batch) in entry.candidates.items():
                if cand_attr == attr.name and values == ordered:
                    for child_entry, histogram in zip(new_entries, batch):
                        child_entry.histograms.setdefault(binning, histogram)
            self._evict_over_bound_locked()
        return tuple(children)

    def _attribute_codes(
        self, name: str
    ) -> Tuple[np.ndarray, Tuple[object, ...], Dict[object, int], Tuple[str, ...]]:
        """Integer-coded column for ``name``, served by the dataset itself.

        Returns ``(per-row codes, code -> value, value -> code, code ->
        member-dataset name suffix)``; entries are immutable once published,
        so the fast path reads without the lock.  The coding lives on
        :meth:`Dataset.codes`, which derives it from the stored integer
        codes once per dataset object and caches it, so every store over
        the same dataset shares it (an audit fanning out over many
        functions codes each column once).
        """
        cached = self._codes.get(name)
        if cached is not None:
            return cached
        codes, decode, encode = self.dataset.codes(name)
        # The same "/(value,)" suffix Dataset.group_by gives a group's name.
        suffixes = tuple(f"/{(value,)}" for value in decode)
        cached = (codes, decode, encode, suffixes)
        with self._lock:
            return self._codes.setdefault(name, cached)

    def _ordered_values(self, attr: Attribute) -> Tuple[object, ...]:
        """Canonical ordering of every value of ``attr`` in the dataset, cached.

        ``order_values`` over any subset of an attribute's values is a filter
        of this full ordering, so splits never re-sort.
        """
        cached = self._ordered.get(attr.name)
        if cached is not None:
            return cached
        _, decode, _, _ = self._attribute_codes(attr.name)
        cached = order_values(attr, decode)
        with self._lock:
            return self._ordered.setdefault(attr.name, cached)

    def _bin_codes_for(self, binning: Binning) -> np.ndarray:
        """Per-row bin index of the full vector under ``binning``, cached.

        Matches ``np.histogram`` over explicit edges exactly: right-open bins
        with the final edge inclusive, values clipped into range first, and
        NaN scores dropped — they are assigned the sentinel code ``bins``,
        which every consumer discards (histogram rows/columns beyond
        ``bins - 1`` are sliced away).
        """
        cached = self._bin_codes.get(binning)
        if cached is not None:
            return cached
        vector = self.vector()
        edges = binning.edges
        clipped = np.clip(vector, edges[0], edges[-1])
        codes = np.searchsorted(edges, clipped, side="right") - 1
        np.clip(codes, 0, binning.bins - 1, out=codes)
        nan_rows = np.isnan(clipped)
        if nan_rows.any():
            codes[nan_rows] = binning.bins
        codes.setflags(write=False)
        with self._lock:
            return self._bin_codes.setdefault(binning, codes)

    # -- entry management --------------------------------------------------------

    def _entry_matches(self, entry: _Entry, members: Dataset) -> bool:
        """Whether a memoised entry really describes this partition's members.

        Partition keys are constraint tuples, so partitions of *different*
        datasets can share a key (e.g. every root partition has key ``()``).
        Reusing another dataset's entry would silently serve wrong scores, so
        every memo hit is validated — O(1) for partitions produced by this
        store's own splits (the common case: their index *is* the entry's),
        O(members) otherwise.
        """
        indices = entry.indices
        if len(members) != indices.size:
            return False
        if members is self.dataset:
            return True
        own = self._indices_for_members(members)
        return own is indices or bool(np.array_equal(own, indices))

    def _entry(self, partition: "Partition") -> _Entry:
        """The store entry for a partition, creating (and bounding) it once.

        An existing entry under the same key that belongs to a *different*
        population (see :meth:`_entry_matches`) is replaced rather than
        reused.  A partition whose members are not the store's own rows
        raises :class:`~repro.errors.PartitioningError` and memoises nothing.
        """
        key = partition.key
        members = partition.members
        with self._lock:
            entry = self._partitions.get(key)
            if entry is not None and self._entry_matches(entry, members):
                self._partitions.move_to_end(key)
                return entry
        indices = self._indices_for_members(members)
        with self._lock:
            entry = self._partitions.get(key)
            if entry is None or not self._entry_matches(entry, members):
                entry = _Entry(indices)
                self._partitions[key] = entry
                self._sliced_partitions += 1
                self._evict_over_bound_locked()
            else:
                self._partitions.move_to_end(key)
            return entry

    def _evict_over_bound_locked(self) -> None:
        if self.max_partitions is not None:
            while len(self._partitions) > self.max_partitions:
                self._partitions.popitem(last=False)
                self._evictions += 1

    # -- persistence (warm-start bundles) ---------------------------------------

    @property
    def materialized(self) -> bool:
        """Whether the score vector has been computed (the store is warm)."""
        return self._vector is not None

    def save(self, directory: Union[str, Path]) -> Dict[str, object]:
        """Persist the store's hot state as raw ``.bin`` buffers + a manifest.

        Written (the raw-buffer-plus-manifest idiom of
        :class:`~repro.data.columns.ColumnStore`): the materialized score
        vector, the precomputed per-binning bin codes, and the histogram
        memo — partition keys, row indices and counts — for every sliced
        partition that has memoised histograms.  The manifest records the
        (dataset, function) content fingerprints, so a later
        :meth:`load` can verify the bundle still describes the live catalog
        content.  The manifest is written *last*: an interrupted save leaves
        no manifest, which a loader treats as "no bundle", never as state.

        Raises :class:`~repro.errors.WarmStartError` when the vector was
        never materialized (there is nothing warm to persist).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        from repro.service.fingerprint import fingerprint_dataset, fingerprint_function

        with self._lock:
            vector = self._vector
            if vector is None:
                raise WarmStartError(
                    "cannot save a score store before its vector is materialized",
                    reason="cold",
                )
            bin_codes = list(self._bin_codes.items())
            partitions = [
                (key, entry.indices, dict(entry.histograms))
                for key, entry in self._partitions.items()
                if entry.histograms
            ]
        # File writes happen outside the lock: the captured arrays are
        # immutable once published, so serving continues while saving.
        np.ascontiguousarray(vector, dtype=np.float64).tofile(directory / "vector.bin")
        codes_manifest: List[Dict[str, object]] = []
        for index, (binning, codes) in enumerate(bin_codes):
            file_name = f"bins_{index}.bin"
            np.ascontiguousarray(codes, dtype=np.int64).tofile(directory / file_name)
            codes_manifest.append(
                {"binning": _binning_to_json(binning), "file": file_name}
            )
        memo_manifest: List[Dict[str, object]] = []
        for index, (key, indices, histograms) in enumerate(partitions):
            entry_json = {
                "key": [[attribute, value] for attribute, value in key],
                "indices": f"part_{index}.bin",
                "histograms": [
                    {"binning": _binning_to_json(binning), "counts": list(h.counts)}
                    for binning, h in histograms.items()
                ],
            }
            try:
                json.dumps(entry_json)
            # A partition constrained on a non-JSON value (exotic dataset
            # domain) is simply not persisted; everything else still is.
            # fairlint: disable=FL007 -- documented skip of one memo entry
            except (TypeError, ValueError):
                continue
            np.ascontiguousarray(indices, dtype=np.int64).tofile(
                directory / str(entry_json["indices"])
            )
            memo_manifest.append(entry_json)
        manifest: Dict[str, object] = {
            "format": STORE_BUNDLE_FORMAT,
            "version": STORE_BUNDLE_VERSION,
            "rows": int(vector.size),
            "dataset": self.dataset.name,
            "function": self.function.name,
            "dataset_fingerprint": fingerprint_dataset(self.dataset),
            "function_fingerprint": fingerprint_function(self.function),
            "vector": "vector.bin",
            "bin_codes": codes_manifest,
            "partitions": memo_manifest,
        }
        (directory / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        return manifest

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        dataset: Dataset,
        function: ScoringFunction,
        *,
        max_partitions: Optional[int] = DEFAULT_MAX_PARTITIONS,
        trust_uids: bool = False,
    ) -> "ScoreStore":
        """Rebuild a warm store from :meth:`save` output, fingerprint-verified.

        The bundle's recorded (dataset, function) fingerprints must match
        the *live* objects, and every buffer must have exactly the recorded
        element count — drift, truncation or foreign content raises
        :class:`~repro.errors.WarmStartError` (with a stable ``reason``) so
        callers fall back to cold compute instead of serving wrong scores.
        The loaded vector does **not** count as a scoring pass:
        ``stats.scoring_passes`` stays 0 until a genuine recompute happens.
        """
        directory = Path(directory)
        from repro.service.fingerprint import fingerprint_dataset, fingerprint_function

        try:
            raw = (directory / "manifest.json").read_text(encoding="utf-8")
        except OSError as error:
            raise WarmStartError(
                f"cannot read score-store manifest in {directory}: {error}",
                reason="manifest",
            ) from None
        try:
            manifest = json.loads(raw)
        except ValueError as error:
            raise WarmStartError(
                f"score-store manifest in {directory} is not valid JSON: {error}",
                reason="manifest",
            ) from None
        if not isinstance(manifest, dict) or manifest.get("format") != STORE_BUNDLE_FORMAT:
            raise WarmStartError(
                f"{directory} does not hold a score-store bundle "
                f"(format {manifest.get('format') if isinstance(manifest, dict) else None!r})",
                reason="manifest",
            )
        if manifest.get("version") != STORE_BUNDLE_VERSION:
            raise WarmStartError(
                f"score-store bundle version {manifest.get('version')!r} is not "
                f"supported (this build reads version {STORE_BUNDLE_VERSION})",
                reason="manifest",
            )
        try:
            return cls._load_verified(
                directory, manifest, dataset, function,
                dataset_fingerprint=fingerprint_dataset(dataset),
                function_fingerprint=fingerprint_function(function),
                max_partitions=max_partitions,
                trust_uids=trust_uids,
            )
        except FaiRankError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            # A structurally mangled manifest (missing fields, wrong types)
            # is a bundle problem, not a caller bug.
            raise WarmStartError(
                f"score-store manifest in {directory} is malformed: {error!r}",
                reason="manifest",
            ) from None

    @classmethod
    def _load_verified(
        cls,
        directory: Path,
        manifest: Dict[str, object],
        dataset: Dataset,
        function: ScoringFunction,
        *,
        dataset_fingerprint: str,
        function_fingerprint: str,
        max_partitions: Optional[int],
        trust_uids: bool,
    ) -> "ScoreStore":
        rows = int(manifest["rows"])  # type: ignore[arg-type]
        if rows != len(dataset):
            raise WarmStartError(
                f"score-store bundle covers {rows} rows but dataset "
                f"{dataset.name!r} has {len(dataset)}",
                reason="fingerprint",
            )
        if manifest.get("dataset_fingerprint") != dataset_fingerprint:
            raise WarmStartError(
                f"score-store bundle was built over different dataset content "
                f"than the live {dataset.name!r} (fingerprint drift)",
                reason="fingerprint",
            )
        if manifest.get("function_fingerprint") != function_fingerprint:
            raise WarmStartError(
                f"score-store bundle was built for different function content "
                f"than the live {function.name!r} (fingerprint drift)",
                reason="fingerprint",
            )
        store = cls(
            dataset, function, max_partitions=max_partitions, trust_uids=trust_uids
        )
        vector = _read_array(directory, manifest["vector"], np.float64, rows)
        vector.setflags(write=False)
        # Assigned directly — a warm load is not a scoring pass, so the
        # store-pool accounting can prove a restarted fleet never re-scored.
        store._vector = vector
        for entry in manifest.get("bin_codes", ()):  # type: ignore[union-attr]
            binning = _binning_from_json(entry["binning"])
            codes = _read_array(directory, entry["file"], np.int64, rows)
            if codes.size and (codes.min() < 0 or codes.max() > binning.bins):
                raise WarmStartError(
                    f"score-store bin codes for {binning} fall outside "
                    f"[0, {binning.bins}] (corrupted bundle)",
                    reason="truncated",
                )
            codes = codes.astype(np.intp, copy=False)
            codes.setflags(write=False)
            store._bin_codes[binning] = codes
        for entry in manifest.get("partitions", ()):  # type: ignore[union-attr]
            key = tuple(
                (str(attribute), value) for attribute, value in entry["key"]
            )
            indices = _read_array(directory, entry["indices"], np.int64, None)
            if indices.size > rows or (
                indices.size and (indices.min() < 0 or indices.max() >= rows)
            ):
                raise WarmStartError(
                    f"score-store partition indices for key {key!r} fall outside "
                    f"the dataset's {rows} rows (corrupted bundle)",
                    reason="truncated",
                )
            indices = indices.astype(np.intp, copy=False)
            indices.setflags(write=False)
            loaded = _Entry(indices)
            for memo in entry.get("histograms", ()):
                binning = _binning_from_json(memo["binning"])
                loaded.histograms[binning] = Histogram(
                    binning=binning,
                    counts=tuple(int(count) for count in memo["counts"]),
                )
            store._partitions[key] = loaded
        store._evict_over_bound_locked()
        return store

    # -- introspection ----------------------------------------------------------

    @property
    def stats(self) -> ScoreStoreStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return ScoreStoreStats(
                scoring_passes=self._scoring_passes,
                sliced_partitions=self._sliced_partitions,
                histogram_hits=self._histogram_hits,
                histogram_misses=self._histogram_misses,
                evictions=self._evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._partitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScoreStore({self.dataset.name!r}, {self.function.name!r}, "
            f"{self.stats.describe()})"
        )

    def __iter__(self) -> Iterator[object]:
        """Iterate over the memoised partition keys (oldest first)."""
        with self._lock:
            return iter(list(self._partitions))


def store_for(
    dataset: Dataset, function: ScoringFunction, store: Optional[ScoreStore] = None
) -> ScoreStore:
    """The store one call scores through: ``store``, else a private one over ``dataset``.

    Every entry point that takes a scoring function resolves its store here,
    so one call makes at most one scoring pass.  A given store must serve
    ``function`` (see :meth:`ScoreStore.serves`); serving another function's
    scores would silently answer the wrong question, so it raises
    :class:`~repro.errors.ScoringError` instead.
    """
    if store is None:
        return ScoreStore(dataset, function)
    if not store.serves(function):
        raise ScoringError(
            f"the score store for function {store.function.name!r} cannot serve "
            f"{function.name!r}: their content differs"
        )
    return store
