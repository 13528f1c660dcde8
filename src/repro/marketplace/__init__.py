"""Marketplace substrate: entities, synthetic generator and simulated crawler (S10)."""

from repro.marketplace.bias import BiasSpec, apply_bias
from repro.marketplace.crawler import (
    PLATFORM_PROFILES,
    MarketplaceCrawler,
    PlatformProfile,
    available_platforms,
)
from repro.marketplace.entities import Job, Marketplace
from repro.marketplace.generator import (
    CrowdsourcingGenerator,
    PopulationSpec,
    default_population_spec,
)

__all__ = [
    "Job",
    "Marketplace",
    "BiasSpec",
    "apply_bias",
    "CrowdsourcingGenerator",
    "PopulationSpec",
    "default_population_spec",
    "MarketplaceCrawler",
    "PlatformProfile",
    "PLATFORM_PROFILES",
    "available_platforms",
]
