"""Weighted linear scoring functions over observed attributes.

Definition 1 of the paper: ``f(w) = Σᵢ αᵢ · bᵢ`` where the ``bᵢ`` are observed
(skill) attributes and the ``αᵢ`` are user-chosen weights; a zero weight means
the attribute is irrelevant for this job.  When the observed attributes are in
[0, 1] and the weights are non-negative and sum to 1, scores stay in [0, 1].
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.errors import ScoringError
from repro.scoring.base import ScoringFunction

__all__ = ["LinearScoringFunction"]


class LinearScoringFunction(ScoringFunction):
    """``f(w) = Σ αᵢ · bᵢ`` over named observed attributes.

    Parameters
    ----------
    weights:
        Mapping of observed attribute name to weight αᵢ.  Attributes missing
        from the mapping implicitly have weight zero.
    name:
        Display name (e.g. the job title the function ranks candidates for).
    normalize:
        When True (default) the weights are rescaled to sum to 1 so that
        scores of [0, 1]-valued attributes remain in [0, 1] — the convention
        used throughout the paper.  Set to False to keep raw weights.
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        name: str = "linear",
        normalize: bool = True,
    ) -> None:
        if not weights:
            raise ScoringError("a linear scoring function needs at least one weight")
        cleaned: Dict[str, float] = {}
        for attribute, weight in weights.items():
            value = float(weight)
            if not np.isfinite(value):
                raise ScoringError(f"weight for {attribute!r} is not finite: {weight!r}")
            if value < 0:
                raise ScoringError(
                    f"weight for {attribute!r} is negative ({value}); scoring weights "
                    "must be non-negative"
                )
            cleaned[str(attribute)] = value
        total = sum(cleaned.values())
        if total <= 0:
            raise ScoringError("at least one weight must be positive")
        if not np.isfinite(total):
            # Normalised by an infinite sum, every weight would become 0.
            raise ScoringError(f"the weights' sum is not finite: {weights!r}")
        if normalize:
            cleaned = {attr: weight / total for attr, weight in cleaned.items()}
        self.weights: Dict[str, float] = cleaned
        self.name = name
        self.transparent = True

    # -- scoring -----------------------------------------------------------

    def score_dataset(self, dataset: Dataset) -> np.ndarray:
        """Vectorised scoring of a whole dataset."""
        names = [attr for attr, weight in self.weights.items() if weight != 0.0]
        if not names:
            return np.zeros(len(dataset), dtype=float)
        matrix = dataset.observed_matrix(names)
        weight_vector = np.asarray([self.weights[name] for name in names], dtype=float)
        return matrix @ weight_vector

    # -- introspection / variants ------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes with a non-zero weight, in insertion order."""
        return tuple(attr for attr, weight in self.weights.items() if weight != 0.0)

    def fingerprint(self) -> str:
        """Content hash over the (normalised) weights.

        The display name is deliberately excluded: two jobs scoring with
        identical weights under different names produce identical results,
        so they should share service-cache entries.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(b"linear\x00")
        for attribute in sorted(self.weights):
            digest.update(attribute.encode("utf-8") + b"=")
            digest.update(float(self.weights[attribute]).hex().encode("ascii") + b"\x00")
        return digest.hexdigest()

    def describe(self) -> str:
        terms = " + ".join(
            f"{weight:.3g}*{attribute}" for attribute, weight in self.weights.items() if weight
        )
        return f"{self.name}: f(w) = {terms}"

    def validate_against(self, schema: Schema) -> None:
        """Raise :class:`ScoringError` if a weighted attribute is not observed in ``schema``."""
        for attribute in self.attributes:
            if attribute not in schema:
                raise ScoringError(
                    f"scoring function {self.name!r} uses unknown attribute {attribute!r}"
                )
            if not schema.attribute(attribute).is_observed:
                raise ScoringError(
                    f"scoring function {self.name!r} uses non-observed attribute {attribute!r}; "
                    "scoring functions may only use observed (skill) attributes"
                )

    def with_weights(self, name: Optional[str] = None, **updates: float) -> "LinearScoringFunction":
        """Return a variant of this function with some weights replaced.

        This is the "job owner explores variants of a scoring function"
        operation from the demo scenarios.
        """
        merged = dict(self.weights)
        merged.update({attr: float(weight) for attr, weight in updates.items()})
        return LinearScoringFunction(merged, name=name or f"{self.name}-variant", normalize=True)

    @classmethod
    def uniform(cls, attributes: Iterable[str], name: str = "uniform") -> "LinearScoringFunction":
        """Equal-weight combination of the given observed attributes."""
        attrs = list(attributes)
        if not attrs:
            raise ScoringError("uniform scoring function needs at least one attribute")
        return cls({attr: 1.0 for attr in attrs}, name=name)

    @classmethod
    def single(cls, attribute: str, name: Optional[str] = None) -> "LinearScoringFunction":
        """Score by a single observed attribute."""
        return cls({attribute: 1.0}, name=name or f"only-{attribute}")
