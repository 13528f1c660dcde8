"""Score histograms.

FaiRank quantifies the (un)fairness of a scoring function by comparing the
*distribution of scores* it assigns to different groups of individuals.  The
paper builds, for every partition, "a histogram … by creating equal bins over
the range of f and counting the number of individuals whose function scores
fall in each bin" (§3.1).

The :class:`Histogram` here is that object: a fixed binning shared across all
partitions being compared (so the EMD is well defined), plus the counts of a
particular group.  Inside the library a group's histogram is a count row of
a (histograms × bins) matrix; :func:`normalized_matrix` turns such rows into
the mass-1 distributions every distance compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.errors import FormulationError

__all__ = [
    "Binning", "Histogram", "build_histogram", "cdf_matrix", "normalized_matrix",
    "DEFAULT_BINS", "MAX_BINS",
]

#: Default number of equal-width bins over the score range, matching the
#: worked example of the paper (scores in [0, 1] bucketed into 5 bins).
DEFAULT_BINS = 5

#: Upper bound on the bins of a binning.  Per-row bin codes are counted in
#: ``uint8`` (see ``ScoreStore._bin_codes_for``), so every code below the
#: NaN sentinel fits in one byte.
MAX_BINS = 256


@dataclass(frozen=True)
class Binning:
    """A fixed equal-width binning of a score range.

    All histograms compared by an unfairness formulation must share the same
    binning — otherwise bin-to-bin ground distances are meaningless.
    """

    low: float
    high: float
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise FormulationError(f"a binning needs at least 1 bin, got {self.bins}")
        if self.bins > MAX_BINS:
            raise FormulationError(
                f"a binning has at most {MAX_BINS} bins, got {self.bins}"
            )
        if not np.isfinite(self.low) or not np.isfinite(self.high):
            raise FormulationError("binning bounds must be finite")
        if self.high < self.low:
            raise FormulationError(
                f"binning upper bound {self.high} is below lower bound {self.low}"
            )

    @property
    def edges(self) -> np.ndarray:
        """Bin edges (length ``bins + 1``).

        Cached (binnings are immutable): the partitioning search asks for the
        same edges thousands of times per run.
        """
        cached = getattr(self, "_edges_cache", None)
        if cached is not None:
            return cached
        if self.high == self.low:
            # Degenerate range: widen slightly so np.histogram keeps all mass
            # in the single sensible bin rather than erroring out.
            edges = np.linspace(self.low - 0.5, self.low + 0.5, self.bins + 1)
        else:
            edges = np.linspace(self.low, self.high, self.bins + 1)
        edges.setflags(write=False)
        object.__setattr__(self, "_edges_cache", edges)
        return edges

    @property
    def centers(self) -> np.ndarray:
        """Bin centres (length ``bins``); the support points for EMD."""
        edges = self.edges
        return (edges[:-1] + edges[1:]) / 2.0

    @property
    def width(self) -> float:
        """Width of one bin."""
        edges = self.edges
        return float(edges[1] - edges[0])

    def to_json(self) -> Dict[str, object]:
        """``low``/``high``/``bins`` as JSON: exact, as JSON round-trips floats."""
        return {"low": self.low, "high": self.high, "bins": self.bins}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "Binning":
        """Rebuild a binning from :meth:`to_json` output."""
        low, high = float(payload["low"]), float(payload["high"])  # type: ignore[arg-type]
        return cls(low=low, high=high, bins=int(payload["bins"]))  # type: ignore[arg-type]

    @classmethod
    def unit(cls, bins: int = DEFAULT_BINS) -> "Binning":
        """The [0, 1] binning used for normalised scoring functions."""
        return cls(low=0.0, high=1.0, bins=bins)


@dataclass(frozen=True)
class Histogram:
    """Counts of scores per bin, for one group of individuals."""

    binning: Binning
    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.binning.bins:
            raise FormulationError(
                f"histogram has {len(self.counts)} counts for {self.binning.bins} bins"
            )
        if any(count < 0 for count in self.counts):
            raise FormulationError("histogram counts must be non-negative")

    @property
    def total(self) -> int:
        """Total number of individuals in the histogram."""
        return int(sum(self.counts))

    @property
    def is_empty(self) -> bool:
        return self.total == 0

    def describe(self) -> str:
        """One-line rendering used by the session layer, e.g. ``[2|0|1|3|4]``."""
        return "[" + "|".join(str(c) for c in self.counts) + "]"


def normalized_matrix(counts: np.ndarray) -> np.ndarray:
    """The rows of a (histograms × bins) count array as distributions (each sums to 1).

    The division is element-wise, so a row does not depend on the others.
    A zero-total (empty) row normalises to the uniform distribution, so that
    every distance against it is defined.
    """
    totals = counts.sum(axis=1, keepdims=True)
    empty = totals[:, 0] <= 0
    normalized = counts / np.where(empty[:, None], 1, totals)
    normalized[empty] = 1.0 / counts.shape[1]
    return normalized


def cdf_matrix(counts: np.ndarray) -> np.ndarray:
    """The CDFs of the rows of a (histograms × bins) count array, without the final all-ones bin.

    A cumulative sum adds in order along its axis, so each row depends on
    its own counts alone.
    """
    return np.cumsum(normalized_matrix(counts), axis=1)[:, :-1]


def build_histogram(
    scores: Iterable[float],
    binning: Optional[Binning] = None,
    bins: int = DEFAULT_BINS,
) -> Histogram:
    """Build a histogram of ``scores``.

    When ``binning`` is omitted a unit-interval binning with ``bins`` bins is
    used, matching the paper's normalised scoring functions.  Scores outside
    the binning range are clamped into the extreme bins (this only happens
    with user-supplied, non-normalised functions).
    """
    if binning is None:
        binning = Binning.unit(bins)
    values = np.asarray(list(scores), dtype=float)
    counts = np.zeros(binning.bins, dtype=int)
    if values.size:
        clipped = np.clip(values, binning.edges[0], binning.edges[-1])
        raw_counts, _ = np.histogram(clipped, bins=binning.edges)
        counts = raw_counts.astype(int)
    return Histogram(binning=binning, counts=tuple(int(c) for c in counts))
