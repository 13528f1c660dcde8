"""Partitions and partitionings of individuals over protected attributes.

A *partition* is a group of individuals selected by a conjunction of
protected-attribute constraints (e.g. ``Gender=Male AND Language=English``);
a *partitioning* is a full, disjoint set of such partitions covering the whole
population (Definition 1 of the paper).  Partitionings are what FaiRank
scores: the unfairness of a scoring function for a partitioning is an
aggregation of pairwise distances between the partitions' score histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.dataset import Dataset
from repro.errors import PartitioningError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.scorestore import ScoreStore

__all__ = ["Partition", "Partitioning", "split_partition", "root_partition"]


@dataclass(frozen=True)
class Partition:
    """A group of individuals defined by protected-attribute constraints.

    Parameters
    ----------
    constraints:
        Ordered tuple of ``(attribute, value)`` pairs that every member
        satisfies.  The root partition (everyone) has no constraints.
    members:
        The sub-dataset of individuals in this partition.
    """

    constraints: Tuple[Tuple[str, object], ...]
    members: Dataset

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        names = [name for name, _ in self.constraints]
        if len(set(names)) != len(names):
            raise PartitioningError(
                f"partition constrains the same attribute twice: {names}"
            )

    # -- identity -----------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"Gender=Male, Language=English"``."""
        if not self.constraints:
            return "ALL"
        return ", ".join(f"{name}={value}" for name, value in self.constraints)

    @property
    def key(self) -> Tuple[Tuple[str, object], ...]:
        """Hashable canonical identity (constraints sorted by attribute name).

        Cached: the score store keys its memos by partition identity, so the
        hot paths ask for the same key thousands of times per search.
        """
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            cached = tuple(sorted(self.constraints, key=lambda pair: pair[0]))
            self.__dict__["_key_cache"] = cached
        return cached

    @property
    def size(self) -> int:
        """Number of individuals in the partition."""
        return len(self.members)

    @property
    def uids(self) -> Tuple[str, ...]:
        return self.members.uids

    @property
    def constrained_attributes(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.constraints)

    def constraint_value(self, attribute: str) -> object:
        """Value this partition fixes for ``attribute`` (raises if unconstrained)."""
        for name, value in self.constraints:
            if name == attribute:
                return value
        raise PartitioningError(f"partition {self.label!r} does not constrain {attribute!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({self.label!r}, n={self.size})"


def root_partition(dataset: Dataset) -> Partition:
    """The trivial partition containing every individual of ``dataset``."""
    return Partition(constraints=(), members=dataset)


def split_partition(
    partition: Partition, attribute: str, store: Optional["ScoreStore"] = None
) -> Tuple[Partition, ...]:
    """Split a partition into one child per distinct value of ``attribute``.

    Children are ordered by the attribute's declared domain order when
    available (falling back to a stable sorted order), matching the paper's
    decision-tree-style splits.  Only values present among the members yield
    children, so no child is ever empty.

    With a :class:`~repro.core.scorestore.ScoreStore` the split is performed
    over the store's integer-coded columns and row indices (same children, in
    the same order, with lazily materialised members) instead of a Python
    group-by; a partition the store cannot map raises
    :class:`~repro.errors.PartitioningError`.
    """
    schema = partition.members.schema
    attr = schema.require_protected(attribute)
    if attribute in partition.constrained_attributes:
        raise PartitioningError(
            f"partition {partition.label!r} already constrains {attribute!r}"
        )
    if store is not None:
        return store.split(partition, attr)
    groups = partition.members.group_by([attribute])
    ordered_values: List[object] = list(partition.members.distinct_values(attribute))
    children = []
    for value in ordered_values:
        members = groups[(value,)]
        children.append(
            Partition(
                constraints=partition.constraints + ((attr.name, value),),
                members=members,
            )
        )
    return tuple(children)


class Partitioning:
    """A full, disjoint set of partitions of one dataset.

    The constructor validates the Definition 1 constraints: partitions are
    pairwise disjoint and their union is the whole population.
    """

    def __init__(
        self,
        dataset: Dataset,
        partitions: Iterable[Partition],
        validate: bool = True,
    ) -> None:
        self.dataset = dataset
        self.partitions: Tuple[Partition, ...] = tuple(partitions)
        self._by_label: Optional[Dict[str, Partition]] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if not self.partitions:
            raise PartitioningError("a partitioning must contain at least one partition")
        seen: Dict[str, str] = {}
        for partition in self.partitions:
            if partition.size == 0:
                raise PartitioningError(f"partition {partition.label!r} is empty")
            label = partition.label
            for uid in partition.uids:
                if uid in seen:
                    raise PartitioningError(
                        f"individual {uid!r} appears in both {seen[uid]!r} and "
                        f"{label!r}; partitions must be disjoint"
                    )
                seen[uid] = label
        missing = set(self.dataset.uids) - set(seen)
        if missing:
            raise PartitioningError(
                f"partitioning does not cover the whole population; missing ids: "
                f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}"
            )

    # -- protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __getitem__(self, index: int) -> Partition:
        return self.partitions[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partitioning({[p.label for p in self.partitions]})"

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(partition.label for partition in self.partitions)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(partition.size for partition in self.partitions)

    def key(self) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
        """Canonical hashable identity (sorted partition keys), for deduplication."""
        return tuple(sorted(partition.key for partition in self.partitions))

    def _label_index(self) -> Dict[str, Partition]:
        if self._by_label is None:
            self._by_label = {partition.label: partition for partition in self.partitions}
        return self._by_label

    def find(self, label: str) -> Partition:
        """Return the partition with the given label (O(1) after the first call)."""
        try:
            return self._label_index()[label]
        except KeyError:
            raise PartitioningError(f"no partition labelled {label!r}") from None

    @classmethod
    def single(cls, dataset: Dataset) -> "Partitioning":
        """The trivial partitioning {W} (unfairness is zero by convention)."""
        return cls(dataset, (root_partition(dataset),))

    @classmethod
    def by_attributes(cls, dataset: Dataset, attributes: Sequence[str]) -> "Partitioning":
        """Partition by the full cross product of values of ``attributes``.

        This is the "pre-defined groups" construction of prior work (and the
        finest tree-structured partitioning over those attributes): one
        partition per observed combination of values.
        """
        dataset.require_non_empty()
        for attribute in attributes:
            dataset.schema.require_protected(attribute)
        if not attributes:
            return cls.single(dataset)
        groups = dataset.group_by(list(attributes))
        partitions = []
        for key, members in groups.items():
            constraints = tuple(zip(attributes, key))
            partitions.append(Partition(constraints=constraints, members=members))
        return cls(dataset, partitions)
