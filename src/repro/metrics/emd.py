"""Earth Mover's Distance (EMD) between score histograms.

The paper (Definition 2, citing Pele & Werman [8]) uses EMD to measure how
differently a scoring function treats two groups: the larger the cost of
transforming one group's score distribution into the other's, the more
unequal the treatment.

For one-dimensional histograms over a shared equal-width binning the EMD with
ground distance |i - j| has a closed form: the L1 distance between the two
cumulative distributions (times the bin width if distances are expressed in
score units).  The library computes it over count rows
(:data:`~repro.metrics.distances.EMDDistance`); the per-pair closed form
(:func:`emd_1d`) and a transport solver over an explicit cost matrix
(:func:`emd_matrix`) share no code with that kernel, and the tests check
it against both.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import FormulationError

__all__ = ["emd_1d", "emd_matrix"]

ArrayLike = Union[Sequence[float], np.ndarray]


def _as_distribution(weights: ArrayLike) -> np.ndarray:
    """Validate and normalise a weight vector to a probability distribution."""
    array = np.asarray(weights, dtype=float)
    if array.ndim != 1:
        raise FormulationError(f"expected a 1-D weight vector, got shape {array.shape}")
    if array.size == 0:
        raise FormulationError("cannot compute EMD of an empty distribution")
    if (array < -1e-12).any():
        raise FormulationError("distribution weights must be non-negative")
    array = np.clip(array, 0.0, None)
    total = array.sum()
    if total <= 0:
        # Mass-less histogram: treat as uniform, as normalized_matrix does.
        return np.full(array.size, 1.0 / array.size)
    return array / total


def emd_1d(
    first: ArrayLike,
    second: ArrayLike,
    positions: Optional[ArrayLike] = None,
) -> float:
    """EMD between two 1-D distributions on a shared ordered support.

    ``positions`` gives the coordinates of the support points (bin centres);
    when omitted, unit-spaced positions ``0, 1, ..., k-1`` are used so the
    result is expressed in "bins moved".  The closed form is
    ``sum_i |CDF1(i) - CDF2(i)| * gap_i``.
    """
    p = _as_distribution(first)
    q = _as_distribution(second)
    if p.size != q.size:
        raise FormulationError(
            f"distributions must share a support: sizes {p.size} != {q.size}"
        )
    if positions is None:
        gaps = np.ones(p.size - 1) if p.size > 1 else np.zeros(0)
    else:
        pos = np.asarray(positions, dtype=float)
        if pos.size != p.size:
            raise FormulationError(
                f"positions size {pos.size} does not match distribution size {p.size}"
            )
        if np.any(np.diff(pos) < 0):
            raise FormulationError("positions must be non-decreasing")
        gaps = np.diff(pos)
    if p.size == 1:
        return 0.0
    cdf_gap = np.cumsum(p - q)[:-1]
    return float(np.sum(np.abs(cdf_gap) * gaps))


def emd_matrix(
    first: ArrayLike,
    second: ArrayLike,
    cost: ArrayLike,
) -> float:
    """EMD between two distributions under an explicit cost matrix.

    Ships mass along the cheapest remaining (supply, demand) cell first,
    then applies improving 2x2 swaps until none is left (or an iteration
    cap is reached).  That is exact for Monge costs such as ``|i - j|`` on
    a line, the ground distance of every EMD FaiRank computes; for a
    general cost matrix it is a local optimum, an upper bound on the true
    EMD.

    It stays because it shares no code with :func:`emd_1d`: it builds a
    transport plan instead of summing CDF gaps, so the tests use it as an
    independent reference for the closed form.
    """
    p = _as_distribution(first)
    q = _as_distribution(second)
    cost_matrix = np.asarray(cost, dtype=float)
    if cost_matrix.shape != (p.size, q.size):
        raise FormulationError(
            f"cost matrix shape {cost_matrix.shape} does not match "
            f"distribution sizes ({p.size}, {q.size})"
        )
    if (cost_matrix < 0).any():
        raise FormulationError("cost matrix entries must be non-negative")

    supply = p.copy()
    demand = q.copy()
    total_cost = 0.0
    # Greedy minimum-cost matching: repeatedly ship along the cheapest
    # remaining (supply, demand) cell.  For a Monge cost matrix (which
    # |i - j| on a line is), this greedy is exact; for general costs it is
    # a strong upper bound refined below by pairwise swaps.
    flows = np.zeros_like(cost_matrix)
    order = np.dstack(np.unravel_index(np.argsort(cost_matrix, axis=None), cost_matrix.shape))[0]
    for i, j in order:
        if supply[i] <= 1e-15 or demand[j] <= 1e-15:
            continue
        moved = min(supply[i], demand[j])
        supply[i] -= moved
        demand[j] -= moved
        flows[i, j] += moved
        total_cost += moved * cost_matrix[i, j]
        if supply.sum() <= 1e-15:
            break
    # Local improvement: 2x2 swaps until no improving move exists.  This
    # converts the greedy solution into an optimal basic solution for the
    # small instances we target.
    improved = True
    iterations = 0
    max_iterations = 10 * cost_matrix.size
    while improved and iterations < max_iterations:
        improved = False
        iterations += 1
        nonzero = np.argwhere(flows > 1e-15)
        for a_index in range(len(nonzero)):
            i, j = nonzero[a_index]
            for b_index in range(a_index + 1, len(nonzero)):
                k, m = nonzero[b_index]
                if i == k or j == m:
                    continue
                delta = (cost_matrix[i, m] + cost_matrix[k, j]) - (
                    cost_matrix[i, j] + cost_matrix[k, m]
                )
                if delta < -1e-12:
                    moved = min(flows[i, j], flows[k, m])
                    flows[i, j] -= moved
                    flows[k, m] -= moved
                    flows[i, m] += moved
                    flows[k, j] += moved
                    total_cost += moved * delta
                    improved = True
    return float(max(total_cost, 0.0))
