"""The END-USER scenario (paper §4).

"This scenario offers end-users the ability to immerse themselves and
simulate different cases in which they are to be ranked.  Given a group to
which the end-user belongs (e.g., Young professionals in Grenoble) and a job
of interest (e.g., installing wood panels), the end-user can see how well the
marketplace is treating that group and make an informed decision of whether
to target that job or not."

:class:`EndUser` describes the group the user belongs to as a set of
protected-attribute values, then — for one or several marketplaces/jobs —
reports how that group fares: its mean score and rank, its exposure share,
how far its score distribution sits from the rest of the population (EMD),
and whether the most-unfair partitioning found by QUANTIFY singles the group
out as disadvantaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.partition import Partition, root_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore, StoreProvider
from repro.core.unfairness import upper_pairs
from repro.data.dataset import Dataset
from repro.data.filters import And, Equals, Filter
from repro.errors import MarketplaceError
from repro.marketplace.entities import Marketplace
from repro.roles.report import ReportTable
from repro.scoring.base import ScoringFunction, rank_order
from repro.scoring.rank import exposure_discount, observed_function

__all__ = ["GroupOutcome", "EndUser"]


@dataclass(frozen=True)
class GroupOutcome:
    """How one job treats the end-user's group."""

    marketplace: str
    job_title: str
    group_size: int
    population_size: int
    mean_score: float
    population_mean_score: float
    mean_rank: float
    exposure_share: float
    emd_vs_rest: float
    flagged_unfair: bool

    @property
    def score_gap(self) -> float:
        """Group mean score minus population mean score (negative = disadvantaged)."""
        return self.mean_score - self.population_mean_score

    def as_row(self) -> List[object]:
        return [
            self.marketplace,
            self.job_title,
            self.group_size,
            self.mean_score,
            self.population_mean_score,
            self.score_gap,
            self.mean_rank,
            self.emd_vs_rest,
            "yes" if self.flagged_unfair else "no",
        ]


class EndUser:
    """Simulates how a marketplace treats the group an end-user belongs to.

    ``store_provider`` supplies the score store each assessment runs against
    (default: a private :class:`~repro.core.scorestore.ScoreStore`); the
    service layer passes its fingerprint-keyed pool.
    """

    def __init__(
        self,
        group: Mapping[str, object],
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        store_provider: StoreProvider = ScoreStore,
    ) -> None:
        if not group:
            raise MarketplaceError("an end-user group needs at least one protected-attribute value")
        self.group: Dict[str, object] = dict(group)
        self.formulation = formulation
        self.store_provider = store_provider

    # -- group membership -----------------------------------------------------

    @property
    def group_filter(self) -> Filter:
        """Declarative filter selecting the end-user's group."""
        return And(tuple(Equals(attribute, value) for attribute, value in self.group.items()))

    def group_label(self) -> str:
        return ", ".join(f"{attribute}={value}" for attribute, value in self.group.items())

    def _split_population(self, candidates: Dataset) -> Tuple[Dataset, Dataset]:
        """(group members, everyone else) among the job's candidates."""
        for attribute in self.group:
            candidates.schema.require_protected(attribute)
        group_filter = self.group_filter
        members = candidates.filter(group_filter, name="group")
        rest = candidates.filter(~group_filter, name="rest")
        if not len(members):
            raise MarketplaceError(
                f"no candidate matches the end-user group ({self.group_label()})"
            )
        return members, rest

    # -- single-job assessment ---------------------------------------------------

    def assess_job(self, marketplace: Marketplace, job_title: str) -> GroupOutcome:
        """Report how one job treats the end-user's group.

        Every number — the group's and the population's scores, the ranking,
        both histograms and the QUANTIFY check — comes from one score store
        over the job's candidates, so the assessment makes at most one
        scoring pass.
        """
        job = marketplace.job(job_title)
        candidates = job.candidates(marketplace.workers)
        function = observed_function(job.function, candidates, job_title)

        members, rest = self._split_population(candidates)
        store = self.store_provider(candidates, function)
        all_scores = store.vector()
        group = Partition(constraints=tuple(self.group.items()), members=members)
        member_scores = store.scores(group)

        # 1-based rank of every candidate (the inverse of the rank order),
        # gathered at the members' rows.  Both exposure sums run left to
        # right, one rounding per term (``np.sum`` would sum pairwise).
        order = rank_order(candidates.uids, all_scores)
        positions = np.empty(len(order), dtype=np.intp)
        positions[order] = np.arange(1, len(order) + 1)
        member_positions = positions[members.indices_in(candidates)]
        exposure = np.cumsum(exposure_discount(member_positions))[-1]
        total_exposure = np.cumsum(exposure_discount(np.arange(1, len(order) + 1)))[-1]

        binning = self.formulation.effective_binning
        member_counts = store._counts(group, binning)
        if len(rest):
            # Everyone outside the group: per-bin counts of the whole
            # population minus the group's (each individual lands in one bin).
            everyone = store._counts(root_partition(candidates), binning)
            counts = np.stack((member_counts, everyone - member_counts))
            emd_vs_rest = self.formulation.distance(counts, binning, *upper_pairs(2))[0]
        else:
            emd_vs_rest = 0.0

        flagged = self._group_flagged_as_disadvantaged(candidates, function, store)

        return GroupOutcome(
            marketplace=marketplace.name,
            job_title=job_title,
            group_size=len(members),
            population_size=len(candidates),
            mean_score=float(member_scores.mean()),
            population_mean_score=float(all_scores.mean()),
            mean_rank=float(np.mean(member_positions)),
            exposure_share=float(exposure / total_exposure) if total_exposure else 0.0,
            emd_vs_rest=float(emd_vs_rest),
            flagged_unfair=flagged,
        )

    def _group_flagged_as_disadvantaged(
        self, candidates: Dataset, function: ScoringFunction, store: ScoreStore
    ) -> bool:
        """True when QUANTIFY's most-unfair partitioning puts the group's members
        in a below-population-mean partition constrained by the group's attributes."""
        result = quantify(
            candidates,
            function,
            formulation=self.formulation,
            attributes=None,
            store=store,
        )
        population_mean = float(store.vector().mean())
        group_attributes = set(self.group)
        for partition in result.partitioning:
            constrained = set(partition.constrained_attributes)
            if not constrained & group_attributes:
                continue
            matches_group = all(
                partition.constraint_value(attribute) == self.group[attribute]
                for attribute in constrained & group_attributes
            )
            if not matches_group:
                continue
            scores = store.scores(partition)
            if scores.size and float(scores.mean()) < population_mean:
                return True
        return False

    # -- multi-job / multi-marketplace comparison ---------------------------------

    def compare_jobs(
        self, marketplace: Marketplace, job_titles: Optional[Sequence[str]] = None
    ) -> ReportTable:
        """Assess every (or the given) jobs of one marketplace for this group."""
        titles = tuple(job_titles) if job_titles is not None else marketplace.job_titles
        return self._tabulate(
            [self.assess_job(marketplace, title) for title in titles]
        )

    def compare_marketplaces(
        self, marketplaces: Sequence[Marketplace], job_title: str
    ) -> ReportTable:
        """Assess the same job across several marketplaces (where offered)."""
        outcomes = []
        for marketplace in marketplaces:
            if job_title in marketplace:
                outcomes.append(self.assess_job(marketplace, job_title))
        if not outcomes:
            raise MarketplaceError(
                f"none of the given marketplaces offers a job titled {job_title!r}"
            )
        return self._tabulate(outcomes)

    def _tabulate(self, outcomes: Sequence[GroupOutcome]) -> ReportTable:
        table = ReportTable(
            title=f"End-user view — group [{self.group_label()}]",
            headers=["marketplace", "job", "group size", "group mean", "pop mean",
                     "gap", "mean rank", "EMD vs rest", "flagged unfair"],
        )
        for outcome in sorted(outcomes, key=lambda o: -o.score_gap):
            table.add_row(*outcome.as_row())
        best = max(outcomes, key=lambda o: o.score_gap)
        worst = min(outcomes, key=lambda o: o.score_gap)
        table.add_note(
            f"best option for this group: {best.marketplace}/{best.job_title} "
            f"(gap {best.score_gap:+.4f})"
        )
        table.add_note(
            f"worst option for this group: {worst.marketplace}/{worst.job_title} "
            f"(gap {worst.score_gap:+.4f})"
        )
        return table
