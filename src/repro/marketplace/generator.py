"""Synthetic crowdsourcing-platform generator.

The demonstration relies on "simulated datasets mimicking crowdsourcing
platforms" (paper §4).  This generator produces such datasets: workers with
the same protected attributes as the paper's running example (gender,
country, year of birth, language, ethnicity, experience) and a configurable
set of observed skill attributes, with optional planted group-conditional
bias (see :mod:`repro.marketplace.bias`).

Everything is driven by an explicit seed so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.columns import CodedColumn, Column, ColumnStore, NumericColumn
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, AttributeType, Schema, observed, protected
from repro.errors import MarketplaceError
from repro.marketplace.bias import BiasSpec, apply_bias

__all__ = ["PopulationSpec", "CrowdsourcingGenerator", "default_population_spec"]


@dataclass(frozen=True)
class PopulationSpec:
    """Distributional specification of a synthetic worker population.

    ``protected_distributions`` maps protected attribute name to a mapping of
    value -> probability (probabilities are normalised).  ``skills`` lists the
    observed attribute names; each skill is drawn from a Beta distribution
    whose (alpha, beta) parameters may be customised per skill.
    """

    protected_distributions: Mapping[str, Mapping[object, float]] = field(
        default_factory=dict
    )
    skills: Tuple[str, ...] = ("Language Test", "Rating")
    skill_parameters: Mapping[str, Tuple[float, float]] = field(default_factory=dict)
    experience_range: Tuple[int, int] = (0, 25)
    birth_year_range: Tuple[int, int] = (1960, 2006)

    def __post_init__(self) -> None:
        if not self.protected_distributions:
            raise MarketplaceError("a population spec needs protected attribute distributions")
        if not self.skills:
            raise MarketplaceError("a population spec needs at least one skill attribute")
        for name, distribution in self.protected_distributions.items():
            if not distribution:
                raise MarketplaceError(f"distribution for {name!r} is empty")
            if any(p < 0 for p in distribution.values()):
                raise MarketplaceError(f"distribution for {name!r} has negative probabilities")
            if sum(distribution.values()) <= 0:
                raise MarketplaceError(f"distribution for {name!r} sums to zero")

    def schema(self) -> Schema:
        """Schema implied by the specification."""
        attributes: List[Attribute] = []
        for name, distribution in self.protected_distributions.items():
            attributes.append(protected(name, domain=tuple(distribution)))
        attributes.append(protected("Year of Birth", atype=AttributeType.ORDINAL))
        attributes.append(protected("Experience", atype=AttributeType.ORDINAL))
        for skill in self.skills:
            attributes.append(observed(skill, domain=(0.0, 1.0)))
        return Schema(tuple(attributes))


def default_population_spec() -> PopulationSpec:
    """A population mimicking the paper's crowdsourcing example (Table 1 attributes)."""
    return PopulationSpec(
        protected_distributions={
            "Gender": {"Female": 0.45, "Male": 0.55},
            "Country": {"America": 0.4, "India": 0.35, "Other": 0.25},
            "Language": {"English": 0.6, "Indian": 0.25, "Other": 0.15},
            "Ethnicity": {
                "White": 0.4,
                "Indian": 0.3,
                "African-American": 0.2,
                "Other": 0.1,
            },
        },
        skills=("Language Test", "Rating"),
        skill_parameters={"Language Test": (2.5, 1.8), "Rating": (3.0, 1.5)},
    )


class CrowdsourcingGenerator:
    """Generates synthetic crowdsourcing worker populations.

    Parameters
    ----------
    spec:
        Population specification (default: :func:`default_population_spec`).
    seed:
        Seed of the underlying pseudo-random generator; identical seeds yield
        identical datasets.
    """

    def __init__(self, spec: Optional[PopulationSpec] = None, seed: int = 7) -> None:
        self.spec = spec or default_population_spec()
        self.seed = seed

    def generate(
        self,
        size: int,
        biases: Sequence[BiasSpec] = (),
        name: str = "synthetic-crowdsourcing",
    ) -> Dataset:
        """Generate ``size`` workers, optionally with planted biases applied.

        The population is packaged straight into column arrays (no per-row
        dicts); planted biases then rewrite the matching rows.
        """
        if size < 1:
            raise MarketplaceError(f"population size must be >= 1, got {size}")
        rng = np.random.default_rng(self.seed)
        schema = self.spec.schema()

        columns: Dict[str, Column] = {}
        for attribute, distribution in self.spec.protected_distributions.items():
            values = list(distribution)
            probabilities = np.asarray([distribution[v] for v in values], dtype=float)
            probabilities = probabilities / probabilities.sum()
            drawn = rng.choice(len(values), size=size, p=probabilities)
            columns[attribute] = CodedColumn(drawn, values)

        low_year, high_year = self.spec.birth_year_range
        birth_years = rng.integers(low_year, high_year + 1, size=size)
        low_exp, high_exp = self.spec.experience_range
        experience = rng.integers(low_exp, high_exp + 1, size=size)
        for attribute, ints in (("Year of Birth", birth_years), ("Experience", experience)):
            uniques, inverse = np.unique(ints, return_inverse=True)
            columns[attribute] = CodedColumn(inverse, [int(v) for v in uniques])

        for skill in self.spec.skills:
            alpha, beta = self.spec.skill_parameters.get(skill, (2.0, 2.0))
            base = rng.beta(alpha, beta, size=size)
            # Mild experience effect: more experienced workers tend to score a
            # little higher, mimicking reputation accumulation on platforms.
            experience_effect = 0.1 * (experience - low_exp) / max(high_exp - low_exp, 1)
            skill_column = np.clip(base + experience_effect, 0.0, 1.0)
            # Python round() is decimal-correct where np.round is not.
            columns[skill] = NumericColumn(
                np.asarray([round(value, 4) for value in skill_column.tolist()])
            )

        store = ColumnStore(size, columns)  # sequential w1..wn uids
        dataset = Dataset(schema, store, name=name, validate=False)
        if biases:
            dataset = apply_bias(dataset, biases)
        return dataset

    def generate_with_intersectional_bias(
        self,
        size: int,
        subgroup: Mapping[str, object],
        penalty: float = -0.25,
        skills: Optional[Sequence[str]] = None,
        name: str = "synthetic-biased",
    ) -> Tuple[Dataset, BiasSpec]:
        """Generate a population where one intersectional subgroup is penalised.

        Returns the dataset and the planted :class:`BiasSpec` so experiments
        can check whether the most-unfair partitioning recovered it.
        """
        shift_targets = tuple(skills or self.spec.skills)
        spec = BiasSpec(
            conditions=dict(subgroup),
            shifts={skill: penalty for skill in shift_targets},
            name="planted-intersectional-bias",
        )
        return self.generate(size, biases=(spec,), name=name), spec
