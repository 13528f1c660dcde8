"""Metrics substrate: histograms, EMD and alternative distances (S2)."""

from repro.metrics.distances import (
    DistanceMeasure,
    EMDDistance,
    JensenShannonDistance,
    KolmogorovSmirnovDistance,
    MeanGapDistance,
    NormalizedEMDDistance,
    TotalVariationDistance,
    available_distances,
    get_distance,
)
from repro.metrics.emd import emd_1d, emd_matrix
from repro.metrics.histogram import DEFAULT_BINS, Binning, Histogram, build_histogram

__all__ = [
    "Binning",
    "Histogram",
    "build_histogram",
    "DEFAULT_BINS",
    "emd_1d",
    "emd_matrix",
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
