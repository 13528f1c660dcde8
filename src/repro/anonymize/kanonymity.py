"""k-anonymisation of marketplace datasets (ARX-tool substitute).

FaiRank explores how *data transparency* affects fairness quantification by
k-anonymising the individuals' protected attributes before analysis.  The
paper delegates this to the ARX tool; since ARX is an external Java
application, this module re-implements the two classic k-anonymisation
strategies FaiRank needs:

* :class:`GlobalRecodingAnonymizer` — full-domain global recoding over
  per-attribute generalisation hierarchies, with optional record
  suppression, searching the generalisation lattice for the minimal levels
  that achieve k-anonymity (the ARX default strategy);
* :class:`MondrianAnonymizer` — greedy multidimensional local recoding
  (LeFevre et al.'s Mondrian), which splits the population into boxes of at
  least k individuals and generalises each box to its value span.

Both return a new :class:`~repro.data.dataset.Dataset` whose protected
columns carry the generalised values, plus an :class:`AnonymizationResult`
describing what was done (levels, suppressed records, information loss) —
the inputs FaiRank's transparency experiments need.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.anonymize.hierarchy import GeneralizationHierarchy, IntervalHierarchy, identity_hierarchy
from repro.data.columns import CodedColumn, ColumnStore
from repro.data.dataset import Dataset, DatasetView
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import AnonymizationError

__all__ = [
    "AnonymizationResult",
    "GlobalRecodingAnonymizer",
    "MondrianAnonymizer",
    "is_k_anonymous",
    "equivalence_classes",
    "default_hierarchies",
]

#: Separator of Mondrian's set labels (``a|b``) for a box's categorical
#: values; :func:`repro.anonymize.metrics.information_loss` counts a cell
#: holding it as generalised.
CATEGORICAL_JOINER = "|"


def equivalence_classes(
    dataset: Dataset, quasi_identifiers: Sequence[str]
) -> Dict[Tuple[object, ...], int]:
    """Sizes of the equivalence classes induced by the quasi-identifier columns,
    keyed by the values of each class's first row, in first-seen row order
    (the groups of :meth:`Dataset.group_by`, counted without a view each)."""
    keys, sizes, _ = dataset._groups(quasi_identifiers)
    return dict(zip(keys, sizes.tolist()))


def is_k_anonymous(dataset: Dataset, quasi_identifiers: Sequence[str], k: int) -> bool:
    """True when every quasi-identifier equivalence class has at least ``k`` members."""
    if k <= 1:
        return True
    if not len(dataset):
        return True
    return min(equivalence_classes(dataset, quasi_identifiers).values()) >= k


def default_hierarchies(
    dataset: Dataset, quasi_identifiers: Sequence[str]
) -> Dict[str, GeneralizationHierarchy]:
    """Build sensible default hierarchies for the given protected attributes.

    Numeric/ordinal attributes get interval hierarchies with widths 5/10/25;
    categorical attributes get the degenerate ladder whose only option is
    suppression (matching how ARX treats attributes with no user-supplied
    hierarchy).
    """
    hierarchies: Dict[str, GeneralizationHierarchy] = {}
    for name in quasi_identifiers:
        attr = dataset.schema.attribute(name)
        values = dataset.distinct_values(name)
        numeric = attr.atype in (AttributeType.NUMERIC, AttributeType.ORDINAL) and all(
            _as_float(v) is not None for v in values
        )
        if numeric and values:
            hierarchies[name] = IntervalHierarchy(attribute=name, widths=(5.0, 10.0, 25.0))
        else:
            hierarchies[name] = identity_hierarchy(name)
    return hierarchies


def _as_float(value: object) -> Optional[float]:
    """``float(value)``, or ``None`` when ``float()`` refuses it."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


@dataclass
class AnonymizationResult:
    """Outcome of a k-anonymisation run."""

    dataset: Dataset
    k: int
    quasi_identifiers: Tuple[str, ...]
    #: Generalisation level applied per attribute (global recoding only).
    levels: Dict[str, int] = field(default_factory=dict)
    suppressed_uids: Tuple[str, ...] = ()
    method: str = "global-recoding"

    @property
    def suppression_rate(self) -> float:
        """Fraction of the original population that was suppressed."""
        original = len(self.dataset) + len(self.suppressed_uids)
        if original == 0:
            return 0.0
        return len(self.suppressed_uids) / original

    def summary(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "k": self.k,
            "quasi_identifiers": list(self.quasi_identifiers),
            "levels": dict(self.levels),
            "suppressed": len(self.suppressed_uids),
            "suppression_rate": self.suppression_rate,
            "size": len(self.dataset),
        }


def _generalized_schema(schema: Schema, quasi_identifiers: Sequence[str]) -> Schema:
    """Relax the schema so generalised (string/interval) values validate."""
    attributes: List[Attribute] = []
    for attr in schema:
        if attr.name in quasi_identifiers:
            attributes.append(
                Attribute(
                    name=attr.name,
                    kind=attr.kind,
                    atype=AttributeType.CATEGORICAL,
                    domain=None,
                    description=attr.description,
                )
            )
        else:
            attributes.append(attr)
    return Schema(tuple(attributes))


class GlobalRecodingAnonymizer:
    """Full-domain global recoding with optional suppression.

    Every record has the same generalisation level applied per attribute; the
    search scans the lattice of level combinations in order of increasing
    total generalisation and returns the first combination that achieves
    k-anonymity after suppressing at most ``max_suppression_rate`` of the
    records (records in classes still smaller than k get dropped).
    """

    def __init__(
        self,
        hierarchies: Optional[Mapping[str, GeneralizationHierarchy]] = None,
        max_suppression_rate: float = 0.05,
    ) -> None:
        if not 0.0 <= max_suppression_rate <= 1.0:
            raise AnonymizationError(
                f"max_suppression_rate must be in [0, 1], got {max_suppression_rate}"
            )
        self.hierarchies = dict(hierarchies or {})
        self.max_suppression_rate = max_suppression_rate

    def anonymize(
        self,
        dataset: Dataset,
        k: int,
        quasi_identifiers: Optional[Sequence[str]] = None,
    ) -> AnonymizationResult:
        """Return a k-anonymous version of ``dataset``."""
        if k < 1:
            raise AnonymizationError(f"k must be >= 1, got {k}")
        if quasi_identifiers is None:
            quasi_identifiers = dataset.schema.protected_names
        quasi_identifiers = tuple(quasi_identifiers)
        for name in quasi_identifiers:
            dataset.schema.attribute(name)

        hierarchies = dict(default_hierarchies(dataset, quasi_identifiers))
        hierarchies.update({k_: v for k_, v in self.hierarchies.items() if k_ in quasi_identifiers})

        if k == 1:
            return AnonymizationResult(
                dataset=dataset,
                k=1,
                quasi_identifiers=quasi_identifiers,
                levels={name: 0 for name in quasi_identifiers},
                method="global-recoding",
            )

        level_ranges = [range(hierarchies[name].height + 1) for name in quasi_identifiers]
        combos = sorted(itertools.product(*level_ranges), key=lambda combo: (sum(combo), combo))
        max_suppressed = int(self.max_suppression_rate * len(dataset))
        recoded = {
            (name, level): _recode(dataset, hierarchies[name], name, level)
            for name, levels in zip(quasi_identifiers, level_ranges) for level in levels
        }

        for combo in combos:
            levels = dict(zip(quasi_identifiers, combo))
            codings = [recoded[name, levels[name]] for name in quasi_identifiers]
            classes = _class_ids(codings, len(dataset))
            sizes = np.bincount(classes)
            if int(sizes[sizes < k].sum()) > max_suppressed:
                continue
            generalized = _apply_levels(dataset, hierarchies, levels)
            dropped = (sizes < k)[classes]
            return AnonymizationResult(
                dataset=DatasetView(
                    generalized, np.flatnonzero(~dropped), name=f"{dataset.name}/k={k}"
                ) if dropped.any() else generalized,
                k=k,
                quasi_identifiers=quasi_identifiers,
                levels=levels,
                suppressed_uids=tuple(np.asarray(generalized.uids, dtype=object)[dropped]),
            )
        raise AnonymizationError(
            f"could not achieve {k}-anonymity on {dataset.name!r} even with full "
            f"generalisation and {self.max_suppression_rate:.0%} suppression"
        )


def _apply_levels(
    dataset: Dataset,
    hierarchies: Mapping[str, GeneralizationHierarchy],
    levels: Mapping[str, int],
) -> Dataset:
    """``map_column`` per quasi-identifier, giving :func:`_generalized_schema`."""
    generalized = dataset
    for name, level in levels.items():
        generalize = functools.partial(hierarchies[name].generalize, level=level)
        generalized = generalized.map_column(name, generalize, as_categorical=True)
    return Dataset(
        generalized.schema, generalized.store, f"{dataset.name}/generalized", validate=False
    )


def _recode(
    dataset: Dataset, hierarchy: GeneralizationHierarchy, name: str, level: int
) -> Tuple[np.ndarray, int]:
    """Row codes of ``name`` generalised to ``level``, and how many values they
    number: one generalisation per distinct value, equal results merged."""
    column = dataset.store[name].coded()
    ids: Dict[object, int] = {}
    remap = [ids.setdefault(hierarchy.generalize(v, level), len(ids)) for v in column.values]
    return np.array(remap, dtype=np.int64)[column.codes], len(ids)


def _class_ids(codings: Sequence[Tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """One equivalence-class id per row for the combination of ``codings``:
    mixed-radix packing, renumbered densely whenever the radix product passes
    the row count ``n``, so a ``bincount`` of the ids stays small."""
    packed, bound = np.zeros(n, dtype=np.int64), 1
    for codes, distinct in codings:
        packed, bound = packed * distinct + codes, bound * distinct
        if bound > n:
            uniques, packed = np.unique(packed, return_inverse=True)
            bound = len(uniques)
    return packed


class MondrianAnonymizer:
    """Greedy multidimensional (Mondrian) local recoding.

    Recursively splits the population on the quasi-identifier with the widest
    normalised span, at the median, as long as both halves keep at least k
    records; each final box's quasi-identifier values are replaced by the
    box's value span (an interval for numeric attributes, an ``a|b`` set
    label for categorical ones).  Local recoding loses less information than
    global recoding, which the information-loss benchmark demonstrates.

    Boxes are ``intp`` arrays of row positions over :meth:`Dataset.codes`, so
    values equal under ``==`` (``1``, ``1.0``, ``True``) are one value, shown
    as the dataset's first-seen of them.  A median split orders a box by
    value (as numbers when every value in the box is one, else as strings),
    ties by uid.  Each quasi-identifier's box summaries become one coded
    column; every other column is shared with the input.
    """

    def anonymize(
        self,
        dataset: Dataset,
        k: int,
        quasi_identifiers: Optional[Sequence[str]] = None,
    ) -> AnonymizationResult:
        if k < 1:
            raise AnonymizationError(f"k must be >= 1, got {k}")
        if quasi_identifiers is None:
            quasi_identifiers = dataset.schema.protected_names
        quasi_identifiers = tuple(quasi_identifiers)
        for name in quasi_identifiers:
            dataset.schema.attribute(name)
        if len(dataset) and len(dataset) < k:
            raise AnonymizationError(
                f"dataset has {len(dataset)} records, cannot be {k}-anonymous"
            )

        store = dataset.store
        columns = {name: store[name] for name in store.names}
        if len(dataset):
            identifiers = [_QuasiIdentifier(dataset, name) for name in quasi_identifiers]
            uid_rank = np.argsort(np.argsort(np.array(dataset.uids, dtype=str)))
            boxes = _mondrian_boxes(dataset.positions(), identifiers, uid_rank, k)
            box_of = np.empty(len(dataset), dtype=np.intp)
            for box, members in enumerate(boxes):
                box_of[members] = box
            for identifier in identifiers:
                columns[identifier.name] = identifier.summaries(box_of, len(boxes))
        return AnonymizationResult(
            dataset=Dataset(
                _generalized_schema(dataset.schema, quasi_identifiers),
                ColumnStore(store.n, columns, uids=store.explicit_uids),
                name=f"{dataset.name}/mondrian-k={k}",
                validate=False,
            ),
            k=k,
            quasi_identifiers=quasi_identifiers,
            levels={},
            method="mondrian",
        )


class _QuasiIdentifier:
    """One quasi-identifier's :meth:`Dataset.codes` and per-code tables: the
    value as a number (NaN where ``float()`` refuses it, flagged in
    ``numeric``), and dense ranks of the numbers, the ``str()`` labels and
    the summary order."""

    def __init__(self, dataset: Dataset, name: str) -> None:
        self.name = name
        self.codes, self.decode, _ = dataset.codes(name)
        self.labels = [str(value) for value in self.decode]
        numbers = [_as_float(value) for value in self.decode]
        self.numeric = np.array([number is not None for number in numbers], dtype=bool)
        self.floats = np.array(
            [np.nan if number is None else number for number in numbers], dtype=float
        )
        self.number_rank = np.unique(self.floats, return_inverse=True)[1]
        self.label_rank = np.unique(np.array(self.labels, dtype=object), return_inverse=True)[1]
        order = sorted(
            range(len(self.decode)),
            key=lambda code: (str(type(self.decode[code])), self.labels[code]),
        )
        self.summary_rank = np.argsort(order).tolist()

    def present(self, members: np.ndarray) -> np.ndarray:
        """The codes the rows ``members`` hold, ascending."""
        codes = self.codes[members]
        if len(self.decode) <= len(members):
            return np.flatnonzero(np.bincount(codes, minlength=len(self.decode)))
        return np.unique(codes)

    def span(self, present: np.ndarray) -> Optional[Tuple[float, float]]:
        """``(low, high)`` of the numbers ``present`` holds (NaN if one is
        NaN), or ``None`` when one of them is not a number."""
        if not self.numeric[present].all():
            return None
        floats = self.floats[present]
        return float(floats.min()), float(floats.max())

    def summaries(self, box_of: np.ndarray, boxes: int) -> CodedColumn:
        """This column generalised: each row's value becomes its box's summary
        (its one value, a ``[low-high]`` span of numbers, or a set label)."""
        size = len(self.decode)
        pairs = np.unique(box_of.astype(np.int64) * size + self.codes)
        owners, codes = np.divmod(pairs, size)
        starts = np.flatnonzero(np.diff(owners, prepend=-1)).tolist() + [len(pairs)]
        values: List[object] = []
        table: Dict[Tuple[type, object], int] = {}
        box_codes = np.empty(boxes, dtype=np.int64)
        for box in range(boxes):
            summary = self._summary(codes[starts[box]:starts[box + 1]])
            code = table.setdefault((type(summary), summary), len(values))
            if code == len(values):
                values.append(summary)
            box_codes[box] = code
        return CodedColumn(box_codes[box_of], values)

    def _summary(self, present: np.ndarray) -> object:
        if len(present) == 1:
            return self.decode[int(present[0])]
        span = self.span(present)
        if span is not None:
            low, high = span
            if low.is_integer() and high.is_integer():
                return f"[{int(low)}-{int(high)}]"
            return f"[{low:g}-{high:g}]"
        ordered = sorted(present.tolist(), key=self.summary_rank.__getitem__)
        return CATEGORICAL_JOINER.join(self.labels[code] for code in ordered)


def _mondrian_boxes(
    root: np.ndarray, identifiers: Sequence[_QuasiIdentifier], uid_rank: np.ndarray, k: int
) -> List[np.ndarray]:
    """Mondrian's boxes of the rows ``root``: a box of at least ``2k`` rows
    with a quasi-identifier holding two values splits at the median of the
    widest one (the span of its numbers, or else its count of values; the
    first of equals), ordered by value rank then uid rank."""
    boxes: List[np.ndarray] = []
    pending = [root]
    while pending:
        members = pending.pop()
        widest: Optional[Tuple[_QuasiIdentifier, bool]] = None
        best = -1.0
        if len(members) >= 2 * k:
            for identifier in identifiers:
                present = identifier.present(members)
                if len(present) < 2:
                    continue
                span = identifier.span(present)
                width = float(len(present)) if span is None else span[1] - span[0]
                if width > best:
                    best, widest = width, (identifier, span is not None)
        if widest is None:
            boxes.append(members)
            continue
        identifier, numeric = widest
        rank = identifier.number_rank if numeric else identifier.label_rank
        members = members[np.lexsort((uid_rank[members], rank[identifier.codes[members]]))]
        middle = len(members) // 2
        pending += [members[middle:], members[:middle]]
    return boxes
