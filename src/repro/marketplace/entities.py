"""Marketplace entities: jobs and marketplaces.

A *marketplace* (Qapa, MisterTemp', TaskRabbit, Fiverr in the paper's intro)
hosts a population of workers (a :class:`~repro.data.dataset.Dataset`) and a
set of *jobs*; every job ranks candidate workers with its own scoring
function, optionally restricted to workers matching a filter (e.g. "speaks
Arabic", "located in New York").  The auditor scenario iterates over a
marketplace's jobs; the end-user scenario compares how different marketplaces
treat a given group for a given job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.data.dataset import Dataset
from repro.data.filters import Filter, TrueFilter
from repro.errors import MarketplaceError
from repro.scoring.base import Ranking, ScoringFunction
from repro.scoring.rank import OpaqueScoringFunction

__all__ = ["Job", "Marketplace"]


@dataclass
class Job:
    """A job posting with its own scoring function.

    Attributes
    ----------
    title:
        Job title (unique within a marketplace).
    function:
        The scoring function used to rank candidates for this job.
    candidate_filter:
        Restriction on which workers are candidates (default: everyone).
    description:
        Free-text description shown in reports.
    """

    title: str
    function: ScoringFunction
    candidate_filter: Filter = field(default_factory=TrueFilter)
    description: str = ""

    def candidates(self, workers: Dataset) -> Dataset:
        """The sub-population of workers eligible for this job."""
        if isinstance(self.candidate_filter, TrueFilter):
            return workers
        candidates = workers.filter(self.candidate_filter)
        if not len(candidates):
            raise MarketplaceError(
                f"job {self.title!r} has no eligible candidates "
                f"(filter: {self.candidate_filter.describe()})"
            )
        return candidates

    def ranking(self, workers: Dataset) -> Ranking:
        """Rank the eligible candidates for this job."""
        candidates = self.candidates(workers)
        if isinstance(self.function, OpaqueScoringFunction):
            return self.function.reveal_ranking(candidates)
        return self.function.rank(candidates)

    @property
    def is_transparent(self) -> bool:
        """Whether the job's scoring function is visible to auditors."""
        return getattr(self.function, "transparent", True)

    def describe(self) -> str:
        lines = [f"Job: {self.title}", f"  scoring: {self.function.describe()}"]
        if not isinstance(self.candidate_filter, TrueFilter):
            lines.append(f"  candidates: {self.candidate_filter.describe()}")
        if self.description:
            lines.append(f"  about: {self.description}")
        return "\n".join(lines)


class Marketplace:
    """An online job marketplace: a worker population plus a catalogue of jobs."""

    def __init__(self, name: str, workers: Dataset, jobs: Optional[Iterable[Job]] = None) -> None:
        if not isinstance(workers, Dataset):
            raise MarketplaceError("a marketplace needs a Dataset of workers")
        self.name = name
        self.workers = workers
        self._jobs: Dict[str, Job] = {}
        for job in jobs or ():
            self.add_job(job)

    # -- job catalogue ---------------------------------------------------------

    def add_job(self, job: Job, replace: bool = False) -> Job:
        """Register a job offering on this marketplace."""
        if job.title in self._jobs and not replace:
            raise MarketplaceError(
                f"marketplace {self.name!r} already offers a job titled {job.title!r}"
            )
        if hasattr(job.function, "validate_against"):
            job.function.validate_against(self.workers.schema)  # type: ignore[attr-defined]
        self._jobs[job.title] = job
        return job

    def job(self, title: str) -> Job:
        """Look up a job by title."""
        try:
            return self._jobs[title]
        except KeyError:
            raise MarketplaceError(
                f"marketplace {self.name!r} offers no job titled {title!r}; "
                f"available: {', '.join(sorted(self._jobs))}"
            ) from None

    @property
    def jobs(self) -> Tuple[Job, ...]:
        return tuple(self._jobs.values())

    @property
    def job_titles(self) -> Tuple[str, ...]:
        return tuple(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, title: object) -> bool:
        return title in self._jobs

    # -- views -------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Summary used by reports and the session layer."""
        return {
            "marketplace": self.name,
            "workers": len(self.workers),
            "jobs": len(self._jobs),
            "job_titles": list(self._jobs),
            "protected_attributes": list(self.workers.schema.protected_names),
            "observed_attributes": list(self.workers.schema.observed_names),
        }

    def describe(self) -> str:
        lines = [
            f"Marketplace: {self.name} ({len(self.workers)} workers, {len(self._jobs)} jobs)"
        ]
        lines.extend(f"  - {job.title}: {job.function.describe()}" for job in self._jobs.values())
        return "\n".join(lines)
