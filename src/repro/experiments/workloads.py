"""Workload builders shared by the experiments and benchmarks.

Every experiment in DESIGN.md's index names a workload; the builders here
construct those workloads deterministically (fixed seeds) so that the
benchmark harness, the tests and EXPERIMENTS.md all talk about the same data.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.data.dataset import Dataset
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import ExperimentError
from repro.marketplace.bias import BiasSpec
from repro.marketplace.crawler import MarketplaceCrawler
from repro.marketplace.entities import Job, Marketplace
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.scoring.linear import LinearScoringFunction

__all__ = [
    "table1_workload",
    "synthetic_population",
    "biased_population",
    "crowdsourcing_marketplace",
    "crawled_marketplaces",
    "scaling_populations",
]


def table1_workload() -> Tuple[Dataset, LinearScoringFunction]:
    """The paper's running example: Table 1 dataset plus its scoring function."""
    dataset = load_example_table1()
    function = LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
    return dataset, function


def synthetic_population(size: int = 400, seed: int = 7, columnar: bool = False) -> Dataset:
    """An unbiased synthetic crowdsourcing population.

    ``columnar`` is accepted and ignored: every dataset is column-backed.
    The keyword stays because the serving benchmark (``perfbench/``) still
    passes ``columnar=True``.
    """
    return CrowdsourcingGenerator(seed=seed).generate(size, name=f"synthetic-{size}")


def biased_population(
    size: int = 400,
    seed: int = 7,
    subgroup: Optional[Mapping[str, object]] = None,
    penalty: float = -0.25,
) -> Tuple[Dataset, BiasSpec]:
    """A synthetic population with a planted intersectional bias.

    The default planted subgroup is ``Gender=Female AND Ethnicity=African-
    American`` (an intersection no single protected attribute captures),
    penalised on every skill by ``penalty``.
    """
    generator = CrowdsourcingGenerator(seed=seed)
    target = dict(subgroup) if subgroup is not None else {
        "Gender": "Female",
        "Ethnicity": "African-American",
    }
    return generator.generate_with_intersectional_bias(
        size, subgroup=target, penalty=penalty, name=f"biased-{size}"
    )


def crowdsourcing_marketplace(size: int = 400, seed: int = 7) -> Marketplace:
    """A synthetic crowdsourcing marketplace with a small catalogue of jobs.

    Jobs exercise different mixes of the two default skills, including one
    job whose candidates are filtered (English speakers only), mirroring the
    filtering feature of the demo.
    """
    from repro.data.filters import Equals

    dataset, _ = biased_population(size=size, seed=seed)
    marketplace = Marketplace(name="crowdsourcing-sim", workers=dataset)
    marketplace.add_job(
        Job(
            title="Content writing",
            function=LinearScoringFunction(
                {"Language Test": 0.7, "Rating": 0.3}, name="Content writing"
            ),
        )
    )
    marketplace.add_job(
        Job(
            title="Data labelling",
            function=LinearScoringFunction(
                {"Language Test": 0.2, "Rating": 0.8}, name="Data labelling"
            ),
        )
    )
    marketplace.add_job(
        Job(
            title="Balanced microtasks",
            function=LinearScoringFunction(
                {"Language Test": 0.5, "Rating": 0.5}, name="Balanced microtasks"
            ),
        )
    )
    marketplace.add_job(
        Job(
            title="English transcription",
            function=LinearScoringFunction(
                {"Language Test": 0.8, "Rating": 0.2}, name="English transcription"
            ),
            candidate_filter=Equals("Language", "English"),
        )
    )
    return marketplace


def crawled_marketplaces(workers: int = 300, seed: int = 11) -> List[Marketplace]:
    """Simulated crawls of every supported freelancing platform."""
    return MarketplaceCrawler(seed=seed).crawl_all(workers=workers)


def scaling_populations(
    sizes: Sequence[int] = (100, 300, 1_000, 3_000, 10_000),
    seed: int = 7,
) -> Dict[int, Dataset]:
    """Populations of increasing size for the scalability experiment (E11)."""
    if not sizes:
        raise ExperimentError("scaling_populations needs at least one size")
    generator = CrowdsourcingGenerator(seed=seed)
    return {size: generator.generate(size, name=f"scale-{size}") for size in sizes}
