"""Simulated crawl of online freelancing marketplaces.

The paper's demonstration also uses "real-data crawled from online freelancing
marketplaces" (Qapa, MisterTemp', TaskRabbit, Fiverr).  Those crawls were
never published, so this module builds the closest synthetic equivalent: a
:class:`MarketplaceCrawler` that "crawls" a named platform profile and
returns a fully-populated :class:`~repro.marketplace.entities.Marketplace`
— workers with platform-specific demographics, reputation and skill signals
(with group-conditional gaps consistent with what published audits of those
platforms report, e.g. Hannák et al. CSCW 2017 found lower review scores for
women and Black workers on TaskRabbit/Fiverr), plus a catalogue of jobs with
their scoring functions.

The substitution preserves the behaviour FaiRank exercises: heterogeneous
attribute schemas across platforms, per-job scoring functions, and realistic
(planted, hence verifiable) group score gaps.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema, observed, protected
from repro.errors import MarketplaceError
from repro.marketplace.bias import BiasSpec, apply_bias
from repro.marketplace.entities import Job, Marketplace
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction

__all__ = ["PlatformProfile", "MarketplaceCrawler", "PLATFORM_PROFILES", "available_platforms"]


@dataclass(frozen=True)
class PlatformProfile:
    """Static description of one freelancing platform to simulate.

    ``demographics`` maps protected attribute -> value distribution;
    ``skills`` maps observed attribute -> Beta(alpha, beta) parameters;
    ``group_gaps`` lists planted group-conditional shifts mirroring published
    audit findings for that platform; ``job_templates`` lists
    ``(title, weights, opaque)`` triples used to build the job catalogue.
    """

    name: str
    demographics: Mapping[str, Mapping[str, float]]
    skills: Mapping[str, Tuple[float, float]]
    group_gaps: Tuple[BiasSpec, ...]
    job_templates: Tuple[Tuple[str, Mapping[str, float], bool], ...]
    cities: Tuple[str, ...] = ()

    def schema(self) -> Schema:
        attributes = [
            protected(name, domain=tuple(distribution))
            for name, distribution in self.demographics.items()
        ]
        attributes.append(protected("Age Band", domain=("18-29", "30-44", "45-59", "60+")))
        attributes.extend(observed(skill, domain=(0.0, 1.0)) for skill in self.skills)
        return Schema(tuple(attributes))


def _taskrabbit_profile() -> PlatformProfile:
    return PlatformProfile(
        name="taskrabbit-sim",
        demographics={
            "Gender": {"Female": 0.42, "Male": 0.58},
            "Ethnicity": {"White": 0.55, "Black": 0.2, "Asian": 0.15, "Hispanic": 0.1},
            "City": {"New York": 0.35, "Chicago": 0.25, "San Francisco": 0.25, "Other": 0.15},
        },
        skills={
            "Rating": (8.0, 1.5),
            "Completed Tasks": (2.0, 3.0),
            "Handyman Skill": (2.5, 2.0),
            "Moving Skill": (2.2, 2.2),
        },
        group_gaps=(
            BiasSpec({"Gender": "Female"}, {"Rating": -0.04}, name="tr-gender-review-gap"),
            BiasSpec({"Ethnicity": "Black"}, {"Rating": -0.08, "Completed Tasks": -0.05},
                     name="tr-ethnicity-review-gap"),
        ),
        job_templates=(
            ("Furniture assembly", {"Handyman Skill": 0.6, "Rating": 0.4}, False),
            ("Apartment moving",
             {"Moving Skill": 0.5, "Rating": 0.3, "Completed Tasks": 0.2}, False),
            ("Home repairs", {"Handyman Skill": 0.5, "Completed Tasks": 0.3, "Rating": 0.2}, True),
            ("Installing wood panels", {"Handyman Skill": 0.7, "Rating": 0.3}, False),
        ),
    )


def _fiverr_profile() -> PlatformProfile:
    return PlatformProfile(
        name="fiverr-sim",
        demographics={
            "Gender": {"Female": 0.47, "Male": 0.53},
            "Country": {"USA": 0.3, "India": 0.25, "Pakistan": 0.15, "Europe": 0.2, "Other": 0.1},
            "Ethnicity": {"White": 0.45, "Black": 0.15, "Asian": 0.3, "Other": 0.1},
        },
        skills={
            "Rating": (9.0, 1.2),
            "Response Rate": (5.0, 1.5),
            "Design Skill": (2.4, 2.0),
            "Writing Skill": (2.6, 1.9),
            "Coding Skill": (2.2, 2.3),
        },
        group_gaps=(
            BiasSpec({"Ethnicity": "Black"}, {"Rating": -0.06}, name="fv-ethnicity-review-gap"),
            BiasSpec({"Gender": "Female", "Country": "India"},
                     {"Rating": -0.05, "Response Rate": -0.04},
                     name="fv-intersectional-gap"),
        ),
        job_templates=(
            ("Logo design", {"Design Skill": 0.6, "Rating": 0.4}, False),
            ("Blog writing", {"Writing Skill": 0.5, "Rating": 0.3, "Response Rate": 0.2}, False),
            ("Web scraping script",
             {"Coding Skill": 0.6, "Rating": 0.2, "Response Rate": 0.2}, False),
            ("Write code for a web app", {"Coding Skill": 0.7, "Rating": 0.3}, True),
            ("Translate a document", {"Writing Skill": 0.6, "Response Rate": 0.4}, False),
        ),
    )


def _qapa_profile() -> PlatformProfile:
    return PlatformProfile(
        name="qapa-sim",
        demographics={
            "Gender": {"Female": 0.48, "Male": 0.52},
            "Region": {"Ile-de-France": 0.3, "Auvergne-Rhone-Alpes": 0.25,
                       "Occitanie": 0.2, "Other": 0.25},
            "Origin": {"French": 0.6, "EU": 0.2, "Non-EU": 0.2},
        },
        skills={
            "Experience Score": (2.0, 2.5),
            "Diploma Level": (2.5, 2.5),
            "French Test": (4.0, 1.5),
            "Manual Skill": (2.3, 2.1),
        },
        group_gaps=(
            BiasSpec({"Origin": "Non-EU"}, {"Experience Score": -0.07, "French Test": -0.1},
                     name="qapa-origin-gap"),
            BiasSpec({"Gender": "Female", "Region": "Other"}, {"Manual Skill": -0.06},
                     name="qapa-intersectional-gap"),
        ),
        job_templates=(
            ("Installing wood panels", {"Manual Skill": 0.7, "Experience Score": 0.3}, False),
            ("Warehouse operator", {"Manual Skill": 0.5, "Experience Score": 0.5}, False),
            ("Customer support",
             {"French Test": 0.6, "Diploma Level": 0.2, "Experience Score": 0.2}, True),
            ("Delivery driver", {"Experience Score": 0.6, "Manual Skill": 0.4}, False),
        ),
    )


def _mistertemp_profile() -> PlatformProfile:
    return PlatformProfile(
        name="mistertemp-sim",
        demographics={
            "Gender": {"Female": 0.46, "Male": 0.54},
            "Region": {"Ile-de-France": 0.4, "PACA": 0.2, "Grand-Est": 0.15, "Other": 0.25},
            "Origin": {"French": 0.65, "EU": 0.15, "Non-EU": 0.2},
        },
        skills={
            "Experience Score": (2.2, 2.3),
            "Reliability": (5.0, 1.6),
            "Technical Skill": (2.4, 2.2),
        },
        group_gaps=(
            BiasSpec({"Origin": "Non-EU"}, {"Reliability": -0.05}, name="mt-origin-gap"),
        ),
        job_templates=(
            ("Electrician assistant", {"Technical Skill": 0.6, "Reliability": 0.4}, False),
            ("Forklift operator", {"Experience Score": 0.5, "Reliability": 0.5}, False),
            ("Night-shift stocker", {"Reliability": 0.7, "Experience Score": 0.3}, True),
        ),
    )


PLATFORM_PROFILES: Dict[str, PlatformProfile] = {
    profile.name: profile
    for profile in (
        _taskrabbit_profile(),
        _fiverr_profile(),
        _qapa_profile(),
        _mistertemp_profile(),
    )
}


def available_platforms() -> Tuple[str, ...]:
    """Names of the platform profiles the crawler can simulate."""
    return tuple(sorted(PLATFORM_PROFILES))


class MarketplaceCrawler:
    """Simulates crawling a freelancing platform into a :class:`Marketplace`."""

    def __init__(self, seed: int = 11) -> None:
        self.seed = seed

    def crawl(self, platform: str, workers: int = 500) -> Marketplace:
        """"Crawl" the named platform profile into a marketplace object.

        Parameters
        ----------
        platform:
            One of :func:`available_platforms` (e.g. ``"taskrabbit-sim"``).
        workers:
            Number of worker profiles to crawl.
        """
        try:
            profile = PLATFORM_PROFILES[platform]
        except KeyError:
            raise MarketplaceError(
                f"unknown platform {platform!r}; available: {', '.join(available_platforms())}"
            ) from None
        if workers < 1:
            raise MarketplaceError(f"workers must be >= 1, got {workers}")

        dataset = self._generate_workers(profile, workers)
        dataset = apply_bias(dataset, profile.group_gaps)
        marketplace = Marketplace(name=profile.name, workers=dataset)
        for title, weights, opaque in profile.job_templates:
            function = LinearScoringFunction(weights, name=title)
            if opaque:
                marketplace.add_job(
                    Job(title=title, function=OpaqueScoringFunction(function, name=title),
                        description="scoring function not disclosed by the platform")
                )
            else:
                marketplace.add_job(Job(title=title, function=function))
        return marketplace

    def crawl_all(self, workers: int = 500) -> List[Marketplace]:
        """Crawl every known platform profile."""
        return [self.crawl(platform, workers=workers) for platform in available_platforms()]

    def _generate_workers(self, profile: PlatformProfile, size: int) -> Dataset:
        # A stable digest of the platform name: hash() of a str changes with
        # every interpreter (PYTHONHASHSEED), which made crawls irreproducible.
        rng = np.random.default_rng(self.seed + zlib.crc32(profile.name.encode()) % 10_000)
        schema = profile.schema()

        columns: Dict[str, np.ndarray] = {}
        for attribute, distribution in profile.demographics.items():
            values = list(distribution)
            probabilities = np.asarray([distribution[v] for v in values], dtype=float)
            probabilities = probabilities / probabilities.sum()
            columns[attribute] = rng.choice(values, size=size, p=probabilities)
        columns["Age Band"] = rng.choice(
            ["18-29", "30-44", "45-59", "60+"], size=size, p=[0.35, 0.35, 0.22, 0.08]
        )
        for skill, (alpha, beta) in profile.skills.items():
            columns[skill] = np.round(rng.beta(alpha, beta, size=size), 4)

        values = {
            attribute: [
                float(raw) if schema.attribute(attribute).is_observed else str(raw)
                for raw in columns[attribute].tolist()
            ]
            for attribute in schema.names
        }
        uids = [f"{profile.name}-w{index + 1}" for index in range(size)]
        return Dataset.from_columns(schema, values, name=f"{profile.name}-crawl", uids=uids)
