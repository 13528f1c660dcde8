"""Scoring substrate: linear, rank-derived and opaque scoring functions (S3)."""

from repro.scoring.base import Ranking, ScoringFunction, rank_by_score
from repro.scoring.library import weight_sweep
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction, RankDerivedScorer

__all__ = [
    "ScoringFunction",
    "Ranking",
    "rank_by_score",
    "LinearScoringFunction",
    "RankDerivedScorer",
    "OpaqueScoringFunction",
    "weight_sweep",
]
