"""The AUDITOR scenario (paper §4).

"This scenario provides auditors with the ability to monitor a marketplace
that offers multiple jobs, each with its own scoring function. … The auditor
would want to quantify the fairness for each job offered on the platform, and
identify demographics groups that are least/most favored on the platform by
each job.  Additionally, the auditor might consider cases where the
marketplace does not provide full transparency…"

:class:`Auditor` walks every job of a :class:`~repro.marketplace.entities.Marketplace`,
runs the QUANTIFY search for each, and assembles a fairness report: per-job
unfairness, the most/least favoured groups, and (optionally) the same
quantities recomputed under reduced data transparency (k-anonymised
attributes) and reduced function transparency (rank-only histograms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.anonymize.kanonymity import GlobalRecodingAnonymizer
from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.quantify import QuantifyResult, quantify
from repro.core.scorestore import ScoreStore, StoreProvider
from repro.core.unfairness import favored_groups
from repro.errors import MarketplaceError
from repro.marketplace.entities import Job, Marketplace
from repro.roles.report import ReportTable
from repro.scoring.rank import observed_function

__all__ = ["JobAudit", "AuditReport", "Auditor"]


@dataclass
class JobAudit:
    """Fairness findings for one job of the marketplace."""

    job_title: str
    transparent_function: bool
    unfairness: float
    partitions: Tuple[str, ...]
    most_favored: Optional[str]
    least_favored: Optional[str]
    result: QuantifyResult

    def as_row(self) -> List[object]:
        return [
            self.job_title,
            "yes" if self.transparent_function else "no",
            self.unfairness,
            len(self.partitions),
            self.most_favored or "-",
            self.least_favored or "-",
        ]


@dataclass
class AuditReport:
    """A full marketplace fairness report."""

    marketplace_name: str
    formulation_name: str
    audits: List[JobAudit] = field(default_factory=list)

    @property
    def most_unfair_job(self) -> Optional[JobAudit]:
        if not self.audits:
            return None
        return max(self.audits, key=lambda audit: audit.unfairness)

    @property
    def least_unfair_job(self) -> Optional[JobAudit]:
        if not self.audits:
            return None
        return min(self.audits, key=lambda audit: audit.unfairness)

    def to_table(self) -> ReportTable:
        table = ReportTable(
            title=f"Fairness report — {self.marketplace_name} ({self.formulation_name})",
            headers=["job", "transparent f", "unfairness", "#groups",
                     "most favored", "least favored"],
        )
        for audit in sorted(self.audits, key=lambda a: -a.unfairness):
            table.add_row(*audit.as_row())
        if self.most_unfair_job is not None:
            table.add_note(
                f"most unfair job: {self.most_unfair_job.job_title} "
                f"(unfairness {self.most_unfair_job.unfairness:.4f})"
            )
        if self.least_unfair_job is not None:
            table.add_note(
                f"least unfair job: {self.least_unfair_job.job_title} "
                f"(unfairness {self.least_unfair_job.unfairness:.4f})"
            )
        return table

    def render(self) -> str:
        return self.to_table().render()


class Auditor:
    """Runs marketplace-wide fairness audits.

    Parameters
    ----------
    formulation:
        The unfairness formulation audits optimise (paper default: most
        unfair / average pairwise EMD).
    attributes:
        Protected attributes the partitioning may use (default: all of the
        marketplace's protected attributes).
    min_partition_size:
        Minimum partition size passed to QUANTIFY (avoids singleton groups
        when auditing large crawls).
    store_provider:
        Supplies the score store each audit runs against (default: a private
        :class:`~repro.core.scorestore.ScoreStore` per audited population).
        The service layer passes its fingerprint-keyed pool here, so a
        marketplace-wide audit fan-out shares materialized scoring passes
        across requests.  Either way one audit makes at most one scoring
        pass, shared by its search and its favoured groups.
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

    # -- single-job audit --------------------------------------------------

    def audit_job(self, marketplace: Marketplace, job: Job) -> JobAudit:
        """Audit one job, honouring its function-transparency setting."""
        candidates = job.candidates(marketplace.workers)
        function = observed_function(job.function, candidates, job.title)
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
        return JobAudit(
            job_title=job.title,
            transparent_function=job.is_transparent,
            unfairness=result.unfairness,
            partitions=result.partition_labels,
            most_favored=most,
            least_favored=least,
            result=result,
        )

    # -- full-marketplace audit ---------------------------------------------

    def audit_marketplace(self, marketplace: Marketplace) -> AuditReport:
        """Audit every job offered on the marketplace."""
        if not len(marketplace):
            raise MarketplaceError(
                f"marketplace {marketplace.name!r} offers no jobs to audit"
            )
        report = AuditReport(
            marketplace_name=marketplace.name,
            formulation_name=self.formulation.name,
        )
        for job in marketplace:
            report.audits.append(self.audit_job(marketplace, job))
        return report

    def audit_with_anonymization(
        self,
        marketplace: Marketplace,
        job_title: str,
        k_values: Sequence[int] = (1, 2, 5, 10),
    ) -> ReportTable:
        """Audit one job under several data-transparency (k-anonymity) levels.

        k = 1 is the raw data; larger k coarsens the protected attributes
        before the audit, mirroring the demo's ARX integration.
        """
        job = marketplace.job(job_title)
        candidates = job.candidates(marketplace.workers)
        anonymizer = GlobalRecodingAnonymizer()
        table = ReportTable(
            title=f"Data transparency — {marketplace.name} / {job_title}",
            headers=["k", "unfairness", "#groups", "most favored", "least favored"],
        )
        for k in k_values:
            if k <= 1:
                population = candidates
            else:
                population = anonymizer.anonymize(candidates, k=k).dataset
            function = observed_function(job.function, population, job.title)
            store = self.store_provider(population, function)
            result = quantify(
                population,
                function,
                formulation=self.formulation,
                attributes=None,
                min_partition_size=self.min_partition_size,
                store=store,
            )
            most, least = favored_groups(result.partitioning, function, store=store)
            table.add_row(
                k,
                result.unfairness,
                len(result.partitioning),
                most or "-",
                least or "-",
            )
        return table
