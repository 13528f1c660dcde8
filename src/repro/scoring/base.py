"""Scoring-function interface.

A scoring function maps every individual to a score in (ideally) [0, 1]; the
marketplace ranks candidates for a job by decreasing score.  A function
scores a whole dataset at once (:meth:`ScoringFunction.score_dataset`: one
score per row, in row order).  FaiRank treats the scoring function as the
object under audit: it asks how differently the function scores groups of
individuals defined by protected attributes.

Two transparency regimes exist (paper §1/§2):

* *function transparent* — the function itself is known (a weighted linear
  combination of observed attributes, :mod:`repro.scoring.linear`);
* *function opaque* — only the produced ranking is visible, and scores must
  be reconstructed from ranks (:mod:`repro.scoring.rank`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.errors import ScoringError

__all__ = ["ScoringFunction", "Ranking", "rank_by_score", "rank_order", "frozen_scores"]


def frozen_scores(function: "ScoringFunction", dataset: "Dataset") -> np.ndarray:
    """Score ``dataset`` and return a private, read-only float vector.

    The copy matters: a scorer may return (a view of) its own reusable
    buffer, which a cache must neither freeze nor alias.  The score store's
    one scoring pass (:meth:`repro.core.scorestore.ScoreStore.vector`) goes
    through this helper so the aliasing rule lives in one place.
    """
    values = np.array(function.score_dataset(dataset), dtype=float)
    values.setflags(write=False)
    return values


class ScoringFunction:
    """Abstract scoring function ``f: W -> [0, 1]``.

    Concrete subclasses implement :meth:`score_dataset`; ranking and the
    other convenience methods are shared.
    """

    #: Human-readable name shown in panels and experiment tables.
    name: str = "scoring-function"

    #: Whether the functional form is visible to the auditor.  Opaque
    #: functions only expose the ranking they induce.
    transparent: bool = True

    def score_dataset(self, dataset: Dataset) -> np.ndarray:
        """Score every individual of ``dataset``, in row order."""
        raise NotImplementedError

    def rank(self, dataset: Dataset) -> "Ranking":
        """Rank the dataset by decreasing score (ties broken by id for determinism)."""
        return rank_by_score(dataset, self)

    def describe(self) -> str:
        """Human-readable description of the function (overridable)."""
        return self.name

    def fingerprint(self) -> str:
        """Stable content hash identifying this function for result caching.

        Subclasses with a structured representation (weights, rankings)
        override this so that semantically identical functions share cache
        entries.  The base implementation raises ``NotImplementedError``; the
        service layer falls back to a pickle hash in that case (see
        :func:`repro.service.fingerprint.fingerprint_function`).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def _refuse_nul(uids: Sequence[str]) -> None:
    # A numpy ``str`` array drops trailing NULs (so "a" and "a\x00" would
    # tie), and the rank fingerprint joins uids with NUL (so two orders of
    # NUL-bearing uids could hash alike).
    if "\x00" in "".join(uids):
        raise ScoringError("a ranked uid may not contain the NUL character")


def rank_order(uids: Sequence[str], scores: np.ndarray) -> np.ndarray:
    """Row positions best first: decreasing score, ties by uid, NaN last.

    The one definition of a ranking's order (ties among NaN scores are
    broken by uid too): one ``np.lexsort``.  A uid containing NUL raises
    :class:`~repro.errors.ScoringError`.
    """
    _refuse_nul(uids)
    return np.lexsort((np.array(uids, dtype=str), -scores))


@dataclass(frozen=True, eq=False)
class Ranking:
    """An ordered ranking of individuals with their (possibly hidden) scores.

    ``uids`` are the individuals' ids, best first, and ``scores`` is a
    read-only float array aligned with them.  When the scoring function is
    opaque the scores carried here are *not* shown to the auditor — only
    positions are (see :class:`repro.scoring.rank.RankDerivedScorer`).
    Duplicate uids and uids containing NUL raise
    :class:`~repro.errors.ScoringError`.
    """

    uids: Tuple[str, ...]
    scores: np.ndarray
    function_name: str = "scoring-function"

    def __post_init__(self) -> None:
        uids = tuple(self.uids)
        scores = np.array(self.scores, dtype=float)
        scores.setflags(write=False)
        if scores.shape != (len(uids),):
            raise ScoringError(
                f"a ranking needs one score per individual: {len(uids)} uids, "
                f"scores of shape {scores.shape}"
            )
        if len(set(uids)) != len(uids):
            raise ScoringError("ranking contains duplicate individuals")
        _refuse_nul(uids)
        object.__setattr__(self, "uids", uids)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.uids)


def rank_by_score(
    dataset: Dataset, function: ScoringFunction, scores: Optional[Sequence[float]] = None
) -> Ranking:
    """Produce a best-first ranking of ``dataset`` under ``function``.

    ``scores`` are the function's scores of ``dataset`` in row order when the
    caller already holds them (a score store's vector); otherwise the
    dataset is scored here.  The order is :func:`rank_order`'s.
    """
    if scores is None:
        scores = function.score_dataset(dataset)
    scores = np.asarray(scores, dtype=float)
    uids = dataset.uids
    order = rank_order(uids, scores)
    ranked = tuple(np.array(uids, dtype=object)[order])
    return Ranking(ranked, scores[order], function.name)
