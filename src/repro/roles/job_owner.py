"""The JOB OWNER scenario (paper §4).

"This scenario emphasizes the ability to define different scoring functions,
and examine their impact on individuals.  This exploration will help owners
understand the behavior of their scoring functions and will guide them to
choose the best function for their job, i.e., the one that satisfies some
desired fairness."

:class:`JobOwner` takes a base job and a family of scoring-function variants
(explicit weight overrides or an automatic weight sweep), quantifies the
unfairness each variant induces over the candidate pool, and recommends the
variant that best satisfies the owner's fairness objective (by default the
*least* unfair variant, since the owner wants the fairest function).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.quantify import QuantifyResult, quantify
from repro.core.scorestore import ScoreStore, StoreProvider
from repro.core.unfairness import favored_groups
from repro.data.dataset import Dataset
from repro.errors import MarketplaceError, ScoringError
from repro.marketplace.entities import Marketplace
from repro.roles.report import ReportTable
from repro.scoring.library import weight_sweep
from repro.scoring.linear import LinearScoringFunction

__all__ = ["VariantEvaluation", "JobOwnerReport", "JobOwner"]


@dataclass
class VariantEvaluation:
    """Fairness outcome of one scoring-function variant."""

    function: LinearScoringFunction
    unfairness: float
    partitions: Tuple[str, ...]
    most_favored: Optional[str]
    least_favored: Optional[str]
    result: QuantifyResult

    @property
    def name(self) -> str:
        return self.function.name

    def as_row(self) -> List[object]:
        weights = ", ".join(
            f"{attribute}={weight:.2f}" for attribute, weight in self.function.weights.items()
        )
        return [
            self.name,
            weights,
            self.unfairness,
            len(self.partitions),
            self.most_favored or "-",
            self.least_favored or "-",
        ]


@dataclass
class JobOwnerReport:
    """Comparison of scoring-function variants for one job."""

    job_title: str
    formulation_name: str
    evaluations: List[VariantEvaluation] = field(default_factory=list)

    @property
    def fairest(self) -> Optional[VariantEvaluation]:
        """The variant with the lowest measured unfairness."""
        if not self.evaluations:
            return None
        return min(self.evaluations, key=lambda evaluation: evaluation.unfairness)

    @property
    def most_unfair(self) -> Optional[VariantEvaluation]:
        if not self.evaluations:
            return None
        return max(self.evaluations, key=lambda evaluation: evaluation.unfairness)

    def to_table(self) -> ReportTable:
        table = ReportTable(
            title=f"Scoring-function variants — {self.job_title} ({self.formulation_name})",
            headers=["variant", "weights", "unfairness", "#groups",
                     "most favored", "least favored"],
        )
        for evaluation in sorted(self.evaluations, key=lambda e: e.unfairness):
            table.add_row(*evaluation.as_row())
        if self.fairest is not None:
            table.add_note(
                f"recommended (fairest) variant: {self.fairest.name} "
                f"(unfairness {self.fairest.unfairness:.4f})"
            )
        return table

    def render(self) -> str:
        return self.to_table().render()


class JobOwner:
    """Explores scoring-function variants for a job and picks the fairest one.

    ``store_provider`` supplies the score store each variant is evaluated
    against (default: a private :class:`~repro.core.scorestore.ScoreStore`);
    the service layer passes its fingerprint-keyed pool, so a variant that
    equals a function another request scored reuses that scoring pass.
    """

    def __init__(
        self,
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        attributes: Optional[Sequence[str]] = None,
        min_partition_size: int = 1,
        store_provider: StoreProvider = ScoreStore,
    ) -> None:
        self.formulation = formulation
        self.attributes = tuple(attributes) if attributes is not None else None
        self.min_partition_size = min_partition_size
        self.store_provider = store_provider

    # -- evaluation ----------------------------------------------------------

    def evaluate_function(
        self, candidates: Dataset, function: LinearScoringFunction
    ) -> VariantEvaluation:
        """Quantify the unfairness a single variant induces over the candidates.

        The search and its favoured groups share one score store, so each variant
        costs at most one scoring pass over the candidates.
        """
        store = self.store_provider(candidates, function)
        result = quantify(
            candidates,
            function,
            formulation=self.formulation,
            attributes=self.attributes,
            min_partition_size=self.min_partition_size,
            store=store,
        )
        most, least = favored_groups(result.partitioning, function, store=store)
        return VariantEvaluation(
            function=function,
            unfairness=result.unfairness,
            partitions=result.partition_labels,
            most_favored=most,
            least_favored=least,
            result=result,
        )

    def compare_variants(
        self,
        candidates: Dataset,
        base: LinearScoringFunction,
        overrides: Sequence[Mapping[str, float]],
        job_title: Optional[str] = None,
    ) -> JobOwnerReport:
        """Evaluate the base function plus one variant per weight override."""
        if not isinstance(base, LinearScoringFunction):
            raise ScoringError("the job owner workflow requires a transparent linear function")
        report = JobOwnerReport(
            job_title=job_title or base.name,
            formulation_name=self.formulation.name,
        )
        report.evaluations.append(self.evaluate_function(candidates, base))
        for index, override in enumerate(overrides, start=1):
            variant = base.with_weights(name=f"{base.name}#{index}", **override)
            report.evaluations.append(self.evaluate_function(candidates, variant))
        return report

    def explore_job(
        self,
        marketplace: Marketplace,
        job_title: str,
        sweep_steps: int = 5,
    ) -> JobOwnerReport:
        """Sweep the weights of a marketplace job's scoring function.

        Builds an automatic weight sweep over the attributes the job's base
        function uses and compares every point of the sweep.
        """
        job = marketplace.job(job_title)
        if not isinstance(job.function, LinearScoringFunction):
            raise MarketplaceError(
                f"job {job_title!r} does not expose a transparent linear scoring function; "
                "the owner cannot explore variants of an opaque function"
            )
        candidates = job.candidates(marketplace.workers)
        overrides = weight_sweep(job.function.attributes, steps=sweep_steps)
        return self.compare_variants(candidates, job.function, overrides, job_title=job_title)
