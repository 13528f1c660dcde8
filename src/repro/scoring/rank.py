"""Rank-derived scores for the function-opaque transparency setting.

"When the function is not available, FaiRank builds histograms using ranks of
individuals rather than actual function scores" (paper §1, Data and Function
Transparencies).  This module implements that substitution: given only a
:class:`~repro.scoring.base.Ranking` (the ordered list a marketplace actually
displays), it assigns each individual a pseudo-score derived from its
position, so that all downstream machinery (histograms, EMD, QUANTIFY) runs
unchanged.

Two position-to-score conventions are provided:

* ``linear`` — the best individual gets 1.0 and the worst gets 0.0, evenly
  spaced (equivalent to using normalised rank positions as scores);
* ``exposure`` — positions are weighted by the standard logarithmic discount
  ``1 / log2(position + 1)`` used in fairness-of-exposure work [9], giving
  more separation near the top of the ranking where attention concentrates.
"""

from __future__ import annotations

from typing import Dict, Literal

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ScoringError
from repro.scoring.base import Ranking, ScoringFunction

__all__ = ["RankDerivedScorer", "OpaqueScoringFunction", "exposure_discount", "observed_function"]

PositionWeighting = Literal["linear", "exposure"]


def exposure_discount(positions: np.ndarray) -> np.ndarray:
    """The attention a 1-based ranking position receives: ``1 / log2(position + 1)``."""
    return 1.0 / np.log2(positions + 1)


class RankDerivedScorer(ScoringFunction):
    """Scores reconstructed from an observed ranking (function not transparent)."""

    def __init__(
        self,
        ranking: Ranking,
        weighting: PositionWeighting = "linear",
        name: str = "rank-derived",
    ) -> None:
        if len(ranking) == 0:
            raise ScoringError("cannot derive scores from an empty ranking")
        if weighting not in ("linear", "exposure"):
            raise ScoringError(
                f"unknown position weighting {weighting!r}; use 'linear' or 'exposure'"
            )
        self.ranking = ranking
        self.weighting = weighting
        self.name = name
        self.transparent = False
        self._scores = self._derive_scores()

    def _derive_scores(self) -> Dict[str, float]:
        """One vector expression over the positions, as a ``{uid: score}`` table."""
        count = len(self.ranking)
        if self.weighting == "linear":
            derived = 1.0 - np.arange(count) / max(count - 1, 1)
        else:  # exposure
            raw = exposure_discount(np.arange(1, count + 1))
            low = raw.min()
            span = raw.max() - low
            derived = (raw - low) / span if span else np.ones(count)
        return dict(zip(self.ranking.uids, derived.tolist()))

    def score_dataset(self, dataset: Dataset) -> np.ndarray:
        """Look every row's score up by uid, in row order (no row objects)."""
        uids = dataset.uids
        try:
            return np.fromiter(map(self._scores.__getitem__, uids), dtype=float, count=len(uids))
        except KeyError as error:
            raise _unranked(error.args[0]) from None

    def describe(self) -> str:
        return f"{self.name}: scores derived from ranking positions ({self.weighting})"

    def fingerprint(self) -> str:
        """Content hash over the observed ranking order and the weighting.

        The display name is excluded (like all function fingerprints): the
        derived scores depend only on positions and the weighting scheme.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(b"rank-derived\x00")
        digest.update(self.weighting.encode("ascii") + b"\x00")
        digest.update("\x00".join(self.ranking.uids).encode("utf-8") + b"\x00")
        return digest.hexdigest()


def _unranked(uid: str) -> ScoringError:
    return ScoringError(f"individual {uid!r} does not appear in the observed ranking")


class OpaqueScoringFunction(ScoringFunction):
    """Wrap a true scoring function but only expose the ranking it induces.

    This models the black-box marketplace: internally the platform computes
    real scores with ``hidden``, but the auditor only ever sees positions.
    ``reveal_ranking`` returns the observable artefact; the auditor then
    analyses it through a :class:`RankDerivedScorer`.  Calling
    :meth:`score_dataset` directly raises, which keeps experiments honest
    about what information each transparency setting uses.
    """

    def __init__(self, hidden: ScoringFunction, name: str = "opaque") -> None:
        self.hidden = hidden
        self.name = name
        self.transparent = False

    def score_dataset(self, dataset: Dataset) -> np.ndarray:
        raise ScoringError(
            f"scoring function {self.name!r} is opaque; use reveal_ranking() and a "
            "RankDerivedScorer instead of reading scores directly"
        )

    def reveal_ranking(self, dataset: Dataset) -> Ranking:
        """Return the ranking the marketplace displays (positions only are meaningful)."""
        return self.hidden.rank(dataset)

    def describe(self) -> str:
        return f"{self.name}: opaque scoring function (only its ranking is observable)"

    def fingerprint(self) -> str:
        """Content hash derived from the hidden function's fingerprint.

        Raises ``NotImplementedError`` when the hidden function has no
        structured fingerprint, letting callers fall back to a pickle hash of
        the whole wrapper.
        """
        import hashlib

        inner = self.hidden.fingerprint()
        digest = hashlib.sha256()
        digest.update(b"opaque\x00")
        digest.update(inner.encode("ascii"))
        return digest.hexdigest()


def observed_function(
    function: ScoringFunction,
    population: Dataset,
    label: str,
    ranks_only: bool = False,
) -> ScoringFunction:
    """The scoring function as observable over ``population``.

    An opaque function exposes only the ranking it induces, and
    ``ranks_only`` asks to analyse a transparent function through its
    ranking too: both become a :class:`RankDerivedScorer` named
    ``"<label>-from-ranks"``.  A transparent function is returned as is.
    """
    if isinstance(function, OpaqueScoringFunction):
        return RankDerivedScorer(
            function.reveal_ranking(population), name=f"{label}-from-ranks"
        )
    if ranks_only:
        return RankDerivedScorer(function.rank(population), name=f"{label}-from-ranks")
    return function
