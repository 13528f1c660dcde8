"""Independent, per-pair reference for the histogram distances.

``repro.metrics.distances`` computes every distance over count rows, many
pairs per call.  This module computes the same distances one pair at a time,
over two normalised 1-D vectors, the way the library did before its kernels
ran on count matrices.  The distance property tests and
``scoring_reference`` (and through it the store-equivalence tests and
``benchmarks/bench_quantify.py``) compare the kernels against it: every
distance must agree bit for bit.

Tests import it as ``distance_reference``; the benchmarks, through
``tests.scoring_reference``, as ``tests.distance_reference``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.formulations import Formulation
from repro.errors import FormulationError
from repro.metrics.histogram import Binning, Histogram

__all__ = ["REFERENCE_DISTANCES", "normalized", "reference_pairwise"]


def normalized(counts: Sequence[int]) -> np.ndarray:
    """Counts as a probability distribution; an empty histogram reads as uniform."""
    weights = np.asarray(counts, dtype=float)
    total = weights.sum()
    if total <= 0:
        return np.full(weights.size, 1.0 / weights.size)
    return weights / total


def emd(p: np.ndarray, q: np.ndarray, binning: Binning) -> float:
    """L1 distance between the CDFs, without their final all-ones bin."""
    return float(np.abs(np.cumsum(p)[:-1] - np.cumsum(q)[:-1]).sum())


def normalized_emd(p: np.ndarray, q: np.ndarray, binning: Binning) -> float:
    gap = emd(p, q, binning)
    return gap * (1.0 / (binning.bins - 1)) if binning.bins > 1 else gap


def total_variation(p: np.ndarray, q: np.ndarray, binning: Binning) -> float:
    return float(0.5 * np.abs(p - q).sum())


def kolmogorov_smirnov(p: np.ndarray, q: np.ndarray, binning: Binning) -> float:
    return float(np.abs(np.cumsum(p) - np.cumsum(q)).max())


def jensen_shannon(p: np.ndarray, q: np.ndarray, binning: Binning) -> float:
    mixture = 0.5 * (p + q)

    def kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    divergence = 0.5 * kl(p, mixture) + 0.5 * kl(q, mixture)
    return math.sqrt(min(max(divergence, 0.0), 1.0))


def mean_gap(p: np.ndarray, q: np.ndarray, binning: Binning) -> float:
    centers = binning.centers
    return abs(float(np.dot(p, centers)) - float(np.dot(q, centers)))


#: Distance name -> ``f(p, q, binning)`` over two normalised vectors.
REFERENCE_DISTANCES: Dict[str, Callable[[np.ndarray, np.ndarray, Binning], float]] = {
    "emd": emd,
    "normalized_emd": normalized_emd,
    "total_variation": total_variation,
    "kolmogorov_smirnov": kolmogorov_smirnov,
    "jensen_shannon": jensen_shannon,
    "mean_gap": mean_gap,
}


def reference_pairwise(histograms: Sequence[Histogram], formulation: Formulation) -> List[float]:
    """Every pairwise distance (i < j order), one pair at a time: ``pairwise_distances``."""
    if len(histograms) < 2:
        return []
    binning = histograms[0].binning
    if any(histogram.binning != binning for histogram in histograms):
        raise FormulationError("histograms must share a binning to be compared")
    distance = REFERENCE_DISTANCES[formulation.distance.name]
    vectors = [normalized(histogram.counts) for histogram in histograms]
    return [
        distance(vectors[i], vectors[j], binning)
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    ]
