"""Weight grids for the job owner's scoring-function sweeps.

The job-owner scenario of the demo is "define different scoring functions and
examine their impact on individuals": a job has one base scoring function and
a family of re-weighted variants of it.  :func:`weight_sweep` generates the
weight assignments of that family; the service's ``sweep`` kind and
:class:`~repro.roles.JobOwner` turn each one into a
:class:`~repro.scoring.LinearScoringFunction`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ScoringError

__all__ = ["weight_sweep"]


def weight_sweep(
    attribute_names: Sequence[str],
    steps: int = 5,
) -> List[Dict[str, float]]:
    """Generate a grid of weight assignments over two or more attributes.

    For two attributes this is the classic ``α, 1-α`` sweep with ``steps``
    points; for more attributes, each grid point puts weight ``α`` on one
    attribute and splits the remainder evenly across the others.  The job
    owner benchmark uses this to explore how fairness evolves as the job's
    emphasis shifts between skills.
    """
    names = list(attribute_names)
    if len(names) < 2:
        raise ScoringError("a weight sweep needs at least two attributes")
    if steps < 2:
        raise ScoringError(f"a weight sweep needs at least 2 steps, got {steps}")
    grid: List[Dict[str, float]] = []
    for emphasised in names:
        for step in range(steps):
            alpha = step / (steps - 1)
            remainder = (1.0 - alpha) / (len(names) - 1)
            weights = {name: remainder for name in names}
            weights[emphasised] = alpha
            grid.append(weights)
    # Remove duplicate grid points (the all-equal assignment appears once per
    # emphasised attribute).
    unique: List[Dict[str, float]] = []
    seen = set()
    for weights in grid:
        key = tuple(sorted((name, round(weight, 9)) for name, weight in weights.items()))
        if key not in seen:
            seen.add(key)
            unique.append(weights)
    return unique
