"""Compute-once score materialization: the one scoring path of FaiRank.

The QUANTIFY search (and everything layered on top of it — statistics boxes,
breakdowns, audits, comparisons) repeatedly asks for the scores of *subsets*
of one population under one scoring function: every candidate split, every
tree node, every sibling histogram re-walks the same individuals.  The
:class:`ScoreStore` is the only code that answers that question:

* the **full score vector** of the store's dataset is computed exactly once
  (one ``function.score_dataset`` pass) and every partition's scores are
  derived from it by row-index slicing — bit-for-bit identical to scoring
  the partition directly, because each individual's score is a pure function
  of its own row;
* **histograms are memoised** keyed by ``(partition.key, binning)`` — the
  scoring function is fixed per store, and the service layer keys whole
  stores by ``(dataset fingerprint, function fingerprint)``, so the
  composite identity of a cached histogram is
  ``(dataset, function, partition, binning)`` as the paper's interactive
  workload demands.  Counts come from one edge-counting pass over the
  full vector per binning plus a ``bincount`` per partition, verified
  bin-for-bin identical to :func:`~repro.metrics.histogram.build_histogram`.
  Inside the store and the search a histogram is a read-only ``int64``
  count row; :meth:`~ScoreStore.histogram` wraps one as a
  :class:`~repro.metrics.histogram.Histogram` only for callers outside it;
* **splits are index operations**: protected columns are integer-coded once
  per dataset (:meth:`~repro.data.dataset.Dataset.codes`, beside the
  ordered values of :meth:`~repro.data.dataset.Dataset.distinct_values`),
  so a candidate split is one ``bincount`` over (value code × bin code) and
  the winning split is one stable ``argsort`` of the partition's codes, cut
  into one contiguous slice per child, instead of a Python group-by.  The
  root partition's indices are ``arange(n)``, so there the full code arrays
  are read directly, with no gather, and the root's candidates are counted
  in **packs**: protected attributes in ascending cardinality order (the
  name breaks ties) share one mixed-radix code
  (:meth:`~repro.data.dataset.Dataset.packed_codes`, cached per dataset)
  while the product of their cardinalities × ``(bins + 1)`` stays within
  the row count, so one ``bincount`` over (value combination × bin code)
  counts the whole pack, no larger than its input, and each attribute's
  counts are an exact integer marginal of it.  Nodes below the root keep
  one gather and ``bincount`` per attribute: a pack code there must be
  rebuilt from gathered codes per node, which measured slower below ~10k
  rows, and a cold search rarely reaches a larger non-root node.  The
  children's member datasets are :class:`~repro.data.dataset.DatasetView`
  index views of the store's dataset — a losing candidate split never
  copies a column;
* the memo is **bounded** (LRU over :data:`MAX_PARTITIONS` partitions) so
  a long-lived service store cannot grow without limit, and every counter
  needed to audit the layer (scoring passes, slices, hits/misses/evictions)
  is exposed as an immutable :class:`ScoreStoreStats` snapshot.

Every entry point that takes a scoring function (``quantify``,
``unfairness``, the roles, the session renderers) resolves its store through
:func:`store_for`: the caller's store when given, else a private store over
the call's root dataset.  The store proves no content equality: a partition
maps onto its rows by provenance (a view drawn from the store's dataset),
and it serves its own function.  The service pool, which keys stores by
content fingerprint, is the one place that proves two objects equal; it
hands the caller's twins to the store it returns (:meth:`ScoreStore.adopt`).
Mismatches raise instead of re-scoring: a store that does not
:meth:`~ScoreStore.serves` the function raises
:class:`~repro.errors.ScoringError`, and a partition whose members cannot be
mapped onto the store's rows raises :class:`~repro.errors.PartitioningError`.

Thread safety: all mutation happens under one lock; score vectors, codes and
histogram values are immutable once published, so concurrent readers (the
service batch executor) can share one store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple
from weakref import WeakValueDictionary

import numpy as np

from repro.data.dataset import Dataset, DatasetView, stable_group_order
from repro.data.schema import Attribute
from repro.errors import PartitioningError, ScoringError
from repro.metrics.histogram import Binning, Histogram
from repro.obs.trace import span as trace_span
from repro.scoring.base import ScoringFunction, frozen_scores

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.partition import Partition

__all__ = [
    "ScoreStore",
    "ScoreStoreStats",
    "StoreProvider",
    "store_for",
]

#: Bound on memoised partitions per store.  A QUANTIFY search over a 10k-row
#: population touches a couple of thousand candidate partitions; the bound
#: leaves headroom while keeping a long-lived service store bounded.
MAX_PARTITIONS = 8192


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


#: One candidate split: ordered child values, sizes, (children × bins) count rows.
_Candidate = Tuple[Tuple[object, ...], Tuple[int, ...], np.ndarray]


class _Entry:
    """Per-partition store entry: row indices and histogram memos.

    ``counts`` memoises the partition's read-only count row per binning.
    ``candidates`` memoises the outcome of candidate-split evaluation —
    ``(attribute, binning) -> (ordered values, child sizes, child count
    rows)`` — so re-running a search under a different formulation with
    the same binning reuses the whole per-split batch.
    """

    __slots__ = ("indices", "counts", "candidates", "bin_slices")

    def __init__(self, indices: np.ndarray) -> None:
        self.indices = indices
        self.counts: Dict[Binning, np.ndarray] = {}
        self.candidates: Dict[Tuple[str, Binning], _Candidate] = {}
        # binning -> this partition's slice of the per-row bin codes, shared
        # by every candidate attribute evaluated at this node.
        self.bin_slices: Dict[Binning, np.ndarray] = {}


class ScoreStore:
    """Materialized score vector + histogram memo for one (dataset, function).

    Parameters
    ----------
    dataset:
        The root population.  Every partition handed to the store must be
        drawn from this dataset (subsets produced by splitting/filtering it):
        a view whose provenance chain
        (:meth:`~repro.data.dataset.Dataset.indices_in`) reaches it.
    function:
        The scoring function whose scores are materialized.

    The store proves no content equality itself.  The service pool keys
    stores by content fingerprint and hands every caller's dataset and
    function to the store it returns (:meth:`adopt`); the store serves those
    twins as its own objects and nothing else.  The memo is LRU-bounded at
    :data:`MAX_PARTITIONS` partitions.
    """

    def __init__(self, dataset: Dataset, function: ScoringFunction) -> None:
        self.dataset = dataset
        self.function = function
        self._lock = threading.RLock()
        self._vector: Optional[np.ndarray] = None
        # arange(n): the root entry's indices, shared by every store over
        # the dataset.
        self._root = dataset.positions()
        self._partitions: "OrderedDict[object, _Entry]" = OrderedDict()
        # binning -> per-row bin index (for bincount-based histograms)
        self._bin_codes: Dict[Binning, np.ndarray] = {}
        # id -> adopted twin, held weakly: a twin lives as long as its caller.
        self._twin_datasets: "WeakValueDictionary[int, Dataset]" = WeakValueDictionary()
        self._twin_functions: "WeakValueDictionary[int, ScoringFunction]" = (
            WeakValueDictionary()
        )
        self._scoring_passes = 0
        self._sliced_partitions = 0
        self._histogram_hits = 0
        self._histogram_misses = 0
        self._evictions = 0

    def adopt(self, dataset: Dataset, function: ScoringFunction) -> None:
        """Serve ``dataset`` and ``function`` as twins of the store's own.

        The caller vouches for their content: the service pool adopts the
        objects of every request its fingerprint key matched.  The dataset
        fingerprint is row-order sensitive, so an adopted dataset's rows are
        the store's rows one for one: its root is the store's root, and a
        view drawn from it maps through its provenance.
        """
        with self._lock:
            if dataset is not self.dataset:
                self._twin_datasets[id(dataset)] = dataset
            if function is not self.function:
                self._twin_functions[id(function)] = function

    def serves(self, function: ScoringFunction) -> bool:
        """Whether this store's materialized scores are valid for ``function``.

        True for the store's own function object and for adopted twins.
        :func:`store_for` refuses a store that does not serve the caller's
        function — sharing a store across *different* functions must never
        silently serve wrong scores.
        """
        return function is self.function or self._twin_functions.get(id(function)) is function

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

    def _indices_for_members(self, members: Dataset) -> np.ndarray:
        """Row indices of ``members`` in the store's dataset.

        Proven by provenance: a view whose parent chain reaches the store's
        dataset, or an adopted twin of it, maps by composing its index
        arrays, and a twin itself is the root.  Anything else raises
        :class:`~repro.errors.PartitioningError`.
        """
        indices = members.indices_in(self.dataset)
        if indices is not None:
            return indices
        with self._lock:
            twins = list(self._twin_datasets.values())
        for twin in twins:
            if members is twin:
                return self._root
            indices = members.indices_in(twin)
            if indices is not None:
                return indices
        raise self._foreign(members)

    def _foreign(self, members: Dataset) -> PartitioningError:
        return PartitioningError(
            f"{members.name!r} is not drawn from the score store's dataset "
            f"{self.dataset.name!r}; build the store over the partition's population"
        )

    # -- partition-level access -------------------------------------------------

    def scores(self, partition: "Partition") -> np.ndarray:
        """Scores of the partition's members, sliced from the full vector.

        Bit-for-bit identical to ``partition.members`` scored directly.  The
        slice is a fresh read-only array, not memoised: every caller reads a
        partition's scores once, so a memo would only keep them alive.
        Raises :class:`~repro.errors.PartitioningError` for a partition whose
        members cannot be mapped onto the store's rows.
        """
        entry = self._entry(partition)
        vector = self.vector()
        if entry.indices is self._root:
            return vector  # the root partition: the full vector itself
        values = vector[entry.indices]
        values.setflags(write=False)
        return values

    def histogram(self, partition: "Partition", binning: Optional[Binning] = None) -> Histogram:
        """The partition's count row over ``binning`` (:meth:`_counts`) as a histogram."""
        if binning is None:
            binning = Binning.unit()
        return Histogram(binning=binning, counts=tuple(self._counts(partition, binning).tolist()))

    def _counts(self, partition: "Partition", binning: Binning) -> np.ndarray:
        """Memoised read-only ``int64`` count row of the partition over ``binning``.

        The memo key is ``(partition.key, binning)``; the same partition
        re-requested under the same binning (candidate splits, sibling sets,
        statistics boxes) is a hit.  Counts are produced by ``bincount`` over
        precomputed per-row bin indices — identical to
        :func:`~repro.metrics.histogram.build_histogram` on the same scores.
        """
        entry = self._entry(partition)
        with self._lock:
            cached = entry.counts.get(binning)
            if cached is not None:
                self._histogram_hits += 1
                return cached
            self._histogram_misses += 1
        codes = self._bin_codes_for(binning)
        if entry.indices is not self._root:
            codes = codes[entry.indices]
        # minlength covers the NaN sentinel bin; the slice discards it.
        counts = np.bincount(codes, minlength=binning.bins)[: binning.bins]
        counts.setflags(write=False)
        with self._lock:
            return entry.counts.setdefault(binning, counts)

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
    ) -> _Candidate:
        """Evaluate splitting ``partition`` on ``attr`` without materialising it.

        Returns ``(ordered child values, child sizes, child counts)`` —
        everything the greedy search needs to *score* a candidate split.
        ``counts`` is a read-only (children × bins) ``int64`` array, one
        row per child in ``values`` order, taken from one two-dimensional
        ``bincount`` over the partition's rows (value code × bin code):
        bit-identical to building each child and histogramming it, but with
        no per-child Python work; only the winning attribute ever becomes
        real :class:`Partition` objects (via :meth:`split`).  Results are
        memoised per ``(partition, attribute, binning)``.

        At the root the ``bincount`` counts the attribute's whole pack and
        memoises every attribute in it (:meth:`_root_candidates`), so the
        pack's other candidates are memo hits.
        """
        entry = self._entry(partition)
        memo_key = (attr.name, binning)
        with self._lock:
            cached = entry.candidates.get(memo_key)
            if cached is not None:
                self._histogram_hits += len(cached[2])
                return cached
        if entry.indices is self._root:
            # The root's indices are arange(n): read the full arrays directly.
            return self._root_candidates(entry, attr, binning)
        codes, decode, encode = self.dataset.codes(attr.name)
        # Stride bins + 1: bin codes include the NaN sentinel ``bins``, which
        # must not spill into the next value's bin 0.
        stride = binning.bins + 1
        bin_sub = entry.bin_slices.get(binning)
        if bin_sub is None:
            # Widened once per node, so the add at each candidate is same-type.
            bin_sub = self._bin_codes_for(binning)[entry.indices].astype(np.intp)
            entry.bin_slices[binning] = bin_sub
        cells = codes[entry.indices] * stride
        cells += bin_sub
        counts = np.bincount(cells, minlength=len(decode) * stride)
        result = self._candidates(attr.name, binning, counts.reshape(len(decode), stride), encode)
        with self._lock:
            result = entry.candidates.setdefault(memo_key, result)
            self._histogram_misses += len(result[2])
            return result

    def _root_candidates(self, entry: _Entry, attr: Attribute, binning: Binning) -> _Candidate:
        """Candidate splits of the root on ``attr``'s whole pack, all memoised.

        One ``bincount`` over (pack value combination × bin code) of the
        full arrays (see :func:`_root_packs`); each attribute's (value ×
        bin) counts are the exact integer sum over the pack's other axes.
        """
        stride = binning.bins + 1
        pack = next(
            (pack for pack in _root_packs(self.dataset, stride) if attr.name in pack),
            (attr.name,),
        )
        codings = [self.dataset.codes(name) for name in pack]
        shape = tuple(len(coding[1]) for coding in codings) + (stride,)
        cells = self.dataset.packed_codes(pack) * stride
        cells += self._bin_codes_for(binning)
        counts = np.bincount(cells, minlength=int(np.prod(shape))).reshape(shape)
        results = []
        for axis, (name, coding) in enumerate(zip(pack, codings)):
            others = tuple(other for other in range(len(pack)) if other != axis)
            results.append(
                (name, self._candidates(name, binning, counts.sum(axis=others), coding[2]))
            )
        with self._lock:
            for name, result in results:
                entry.candidates.setdefault((name, binning), result)
            result = entry.candidates[(attr.name, binning)]
            self._histogram_misses += len(result[2])
            return result

    def _candidates(
        self, name: str, binning: Binning, counts: np.ndarray, encode: Dict[object, int]
    ) -> _Candidate:
        """One candidate split on ``name`` from its (value code × bin code) count matrix."""
        # Sizes count members (including NaN-scored ones); count rows drop
        # the sentinel column, matching build_histogram's NaN handling.
        sizes = counts.sum(axis=1).tolist()
        # order_values over a subset is a filter of the full ordering.
        ordered = tuple(v for v in self.dataset.distinct_values(name) if sizes[encode[v]])
        codes = [encode[value] for value in ordered]
        rows = counts[codes, : binning.bins]
        rows.setflags(write=False)
        return ordered, tuple(sizes[code] for code in codes), rows

    def split(self, partition: "Partition", attr: Attribute) -> Tuple["Partition", ...]:
        """Children of ``partition`` split on ``attr``, via index operations.

        Children are produced in the same order as a group-by split
        (declared domain order, else stable sorted).  Their row indices are
        contiguous slices of one array: the partition's indices grouped by
        one stable ``argsort`` of its value codes, so each child keeps its
        rows in the parent's order — exactly ``indices[codes == code]``.  The
        root's indices are ``arange(n)``, so there the grouped array is the
        dataset's own cached :meth:`~repro.data.dataset.Dataset.grouping`,
        sorted once per dataset.  The children's member datasets are index views
        of the store's dataset, and their store entries are pre-registered
        so the subsequent histogram/score requests skip mapping entirely.
        """
        from repro.core.partition import Partition

        entry = self._entry(partition)
        codes, decode, encode = self.dataset.codes(attr.name)
        if entry.indices is self._root:
            # The root's grouping depends on the dataset alone: shared by
            # every store over it, whatever the scoring function.
            grouped, counts = self.dataset.grouping(attr.name)
        else:
            sub = codes[entry.indices]
            counts = np.bincount(sub, minlength=len(decode))
            grouped = entry.indices[stable_group_order(sub, len(decode))]
            grouped.setflags(write=False)
        ends = np.cumsum(counts).tolist()
        sizes = counts.tolist()
        ordered = tuple(v for v in self.dataset.distinct_values(attr.name) if sizes[encode[v]])
        children: List[Partition] = []
        entries: List[Tuple[object, np.ndarray]] = []
        base_name = partition.members.name
        constraints = partition.constraints
        attr_name = attr.name
        for value in ordered:
            code = encode[value]
            child_indices = grouped[ends[code] - sizes[code] : ends[code]]
            # The same "/(value,)" suffix Dataset.group_by gives a group's name.
            members = DatasetView(self.dataset, child_indices, name=f"{base_name}/{(value,)}")
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
            # Seed the children's count-row memos from this partition's
            # candidate-split batches (same attribute, any binning), so the
            # winning split's rows are never recounted.
            for (cand_attr, binning), (values, _, rows) in entry.candidates.items():
                if cand_attr == attr.name and values == ordered:
                    for child_entry, row in zip(new_entries, rows):
                        child_entry.counts.setdefault(binning, row)
            self._evict_over_bound_locked()
        return tuple(children)

    def _bin_codes_for(self, binning: Binning) -> np.ndarray:
        """Per-row bin index of the full vector under ``binning``, cached.

        Matches ``np.histogram`` over explicit edges exactly: right-open bins
        with the final edge inclusive, values clipped into range first, and
        NaN scores dropped — they are assigned the sentinel code ``bins``,
        which every consumer discards (histogram rows/columns beyond
        ``bins - 1`` are sliced away).

        A clipped score's bin is the number of interior edges at or below
        it, which equals ``clip(searchsorted(edges, score, "right") - 1, 0,
        bins - 1)`` for sorted edges, repeated ones included.  Counting
        costs one comparison per row and interior edge, far less than a
        binary search on unsorted keys; the count fits ``uint8`` because a
        binning has at most :data:`~repro.metrics.histogram.MAX_BINS` bins.
        The codes stay that narrow in memory: ``uint8``, or ``uint16`` when
        the sentinel needs it (256 bins).
        """
        cached = self._bin_codes.get(binning)
        if cached is not None:
            return cached
        vector = self.vector()
        edges = binning.edges
        clipped = np.clip(vector, edges[0], edges[-1])
        codes = np.zeros(clipped.size, dtype=np.uint8)
        at_or_above = np.empty(clipped.size, dtype=bool)
        for edge in edges[1:-1].tolist():
            np.greater_equal(clipped, edge, out=at_or_above)
            codes += at_or_above.view(np.uint8)
        codes = codes.astype(_bin_code_dtype(binning.bins), copy=False)
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
        datasets can share a key (e.g. every root partition has key ``()``:
        the store's own root and the root of a view filtered from it).
        Reusing another dataset's entry would silently serve wrong scores, so
        every memo hit is validated — O(1) for the root, its adopted twins
        and partitions produced by this store's own splits (the common case:
        their index *is* the entry's), O(members) otherwise.
        """
        indices = entry.indices
        if len(members) != indices.size:
            return False
        own = self._indices_for_members(members)
        if own is indices:
            return True
        return bool(np.array_equal(own, indices))

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
        while len(self._partitions) > MAX_PARTITIONS:
            self._partitions.popitem(last=False)
            self._evictions += 1

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


def _root_packs(dataset: Dataset, stride: int) -> Tuple[Tuple[str, ...], ...]:
    """The dataset's protected attributes grouped for counting at the root.

    Attributes in ascending cardinality order (the name breaks ties) join
    the current pack while the product of its cardinalities × ``stride``
    stays within the row count, so a pack's ``bincount`` output is no
    larger than its input; an attribute that does not fit starts the next
    pack, alone if it alone exceeds the bound.
    """
    rows = len(dataset)
    cardinality = {
        name: len(dataset.codes(name)[1]) for name in dataset.schema.protected_names
    }
    packs: List[List[str]] = []
    cells = 0
    for name in sorted(cardinality, key=lambda name: (cardinality[name], name)):
        if packs and cells * cardinality[name] <= rows:
            packs[-1].append(name)
            cells *= cardinality[name]
        else:
            packs.append([name])
            cells = cardinality[name] * stride
    return tuple(tuple(pack) for pack in packs)


def _bin_code_dtype(bins: int) -> np.dtype:
    """The narrowest unsigned type holding every bin code, the sentinel ``bins`` too."""
    return np.min_scalar_type(bins)


#: Supplies the store a role or panel scores ``(dataset, function)`` through:
#: the :class:`ScoreStore` class itself (a private store per call) or a
#: service's fingerprint-keyed pool (``FairnessService.score_store``).
StoreProvider = Callable[[Dataset, ScoringFunction], ScoreStore]


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
