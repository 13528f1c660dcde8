"""Histogram distances, each one function over count rows.

The paper quantifies group unfairness with the EMD, but explicitly notes that
FaiRank "is generic and provides the ability to quantify different notions of
fairness".  This module supplies the EMD and the common alternatives behind a
single :class:`DistanceMeasure` interface so formulations can swap them in.
Called as ``measure(counts, binning, rows, cols)`` on a (histograms × bins)
count matrix, a measure returns the distances of the pairs ``counts[rows[p]]``
and ``counts[cols[p]]``; each depends on its two rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import FormulationError
from repro.metrics.histogram import Binning, cdf_matrix, normalized_matrix

__all__ = [
    "DistanceMeasure",
    "EMDDistance",
    "NormalizedEMDDistance",
    "TotalVariationDistance",
    "KolmogorovSmirnovDistance",
    "JensenShannonDistance",
    "MeanGapDistance",
    "get_distance",
    "available_distances",
]

@dataclass(frozen=True)
class DistanceMeasure:
    """A named, symmetric distance between score histograms given as count rows."""

    name: str
    func: Callable[[np.ndarray, Binning, np.ndarray, np.ndarray], np.ndarray]
    description: str = ""

    def __call__(
        self, counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        return self.func(counts, binning, rows, cols)


def _emd(counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # The 1-D closed form: the L1 distance between the two CDFs, in bins moved.
    cdfs = cdf_matrix(counts)
    return np.abs(cdfs[rows] - cdfs[cols]).sum(axis=1)


def _normalized_emd(
    counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    # The farthest-apart distributions over k bins are k - 1 bins apart.
    gaps = _emd(counts, binning, rows, cols)
    return gaps * (1.0 / (binning.bins - 1)) if binning.bins > 1 else gaps


def _total_variation(
    counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    normalized = normalized_matrix(counts)
    return 0.5 * np.abs(normalized[rows] - normalized[cols]).sum(axis=1)


def _kolmogorov_smirnov(
    counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    cdfs = np.cumsum(normalized_matrix(counts), axis=1)
    return np.abs(cdfs[rows] - cdfs[cols]).max(axis=1)


def _kl_rows(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row-wise Kullback–Leibler divergence (base 2) of ``first`` from ``second``.

    A row's positive-mass terms are packed to the left and summed over just
    those columns (rows of one length together): the floats and the order a
    sum over that row's terms alone would add.
    """
    mask = first > 0
    lengths = mask.sum(axis=1)
    at, bins = np.nonzero(mask)
    packed = np.zeros(first.shape)
    packed[at, (np.cumsum(mask, axis=1) - 1)[at, bins]] = first[at, bins] * np.log2(
        first[at, bins] / second[at, bins]
    )
    sums = np.empty(len(first))
    for length in np.unique(lengths).tolist():
        chosen = lengths == length
        sums[chosen] = packed[chosen, :length].sum(axis=1)
    return sums


def _jensen_shannon(
    counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    normalized = normalized_matrix(counts)
    first, second = normalized[rows], normalized[cols]
    mixture = 0.5 * (first + second)
    divergence = 0.5 * _kl_rows(first, mixture) + 0.5 * _kl_rows(second, mixture)
    # Numerical noise can push the value a hair above 1 or below 0.
    return np.sqrt(np.clip(divergence, 0.0, 1.0))


def _mean_gap(
    counts: np.ndarray, binning: Binning, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    # One dot product per row: a matrix-vector product may sum in another order.
    centers = binning.centers
    means = np.array([np.dot(row, centers) for row in normalized_matrix(counts)], dtype=float)
    return np.abs(means[rows] - means[cols])


EMDDistance = DistanceMeasure(
    name="emd",
    func=_emd,
    description="Earth Mover's Distance in bin units (paper default, Definition 2)",
)

NormalizedEMDDistance = DistanceMeasure(
    name="normalized_emd",
    func=_normalized_emd,
    description="EMD divided by its maximum (k-1 bins); comparable across binnings",
)

TotalVariationDistance = DistanceMeasure(
    name="total_variation",
    func=_total_variation,
    description="Half the L1 distance between normalised histograms",
)

KolmogorovSmirnovDistance = DistanceMeasure(
    name="kolmogorov_smirnov",
    func=_kolmogorov_smirnov,
    description="Maximum absolute difference between the two CDFs",
)

JensenShannonDistance = DistanceMeasure(
    name="jensen_shannon",
    func=_jensen_shannon,
    description="Square root of the Jensen-Shannon divergence (base 2)",
)

MeanGapDistance = DistanceMeasure(
    name="mean_gap",
    func=_mean_gap,
    description="Absolute difference between group mean scores (demographic-parity style)",
)

_REGISTRY: Dict[str, DistanceMeasure] = {
    measure.name: measure
    for measure in (
        EMDDistance,
        NormalizedEMDDistance,
        TotalVariationDistance,
        KolmogorovSmirnovDistance,
        JensenShannonDistance,
        MeanGapDistance,
    )
}


def available_distances() -> Tuple[str, ...]:
    """Names of all registered distance measures."""
    return tuple(sorted(_REGISTRY))


def get_distance(name: str) -> DistanceMeasure:
    """Look up a distance measure by name.

    Raises
    ------
    FormulationError
        If the name is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FormulationError(
            f"unknown distance {name!r}; available: {', '.join(available_distances())}"
        ) from None
