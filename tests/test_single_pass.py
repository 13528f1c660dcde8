"""One scoring pass per (population, function): the roles, the panels, the store.

Every entry point that takes a scoring function scores through one
:class:`~repro.core.scorestore.ScoreStore`, so each role makes exactly one
``score_dataset`` call over exactly the population's rows, and panels render
from the store their search ran on without scoring again.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.core.partition import root_partition, split_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import pairwise_distances
from repro.data.filters import Equals
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.marketplace.entities import Marketplace
from repro.metrics.emd import emd_1d
from repro.metrics.histogram import build_histogram
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.scoring.linear import LinearScoringFunction
from repro.session.config import SessionConfig
from repro.session.engine import FaiRankEngine
from repro.session.render import render_tree
from repro.session.stats import node_stats, tree_stats


class CountingFunction(LinearScoringFunction):
    """A linear scorer recording the row count of every ``score_dataset`` call."""

    def __init__(self, base: LinearScoringFunction) -> None:
        self.__dict__.update(base.__dict__)
        self.rows: List[int] = []

    def score_dataset(self, dataset):
        self.rows.append(len(dataset))
        return LinearScoringFunction.score_dataset(self, dataset)


@pytest.fixture(scope="module")
def marketplace() -> Marketplace:
    return crowdsourcing_marketplace(size=200, seed=7)


def counted_job(marketplace: Marketplace, title: str):
    """A copy of the marketplace whose job ``title`` scores through a counter."""
    job = marketplace.job(title)
    counting = CountingFunction(job.function)
    jobs = [
        dataclasses.replace(other, function=counting) if other.title == title else other
        for other in marketplace
    ]
    market = Marketplace(marketplace.name, marketplace.workers, jobs)
    return market, market.job(title), counting


def transparent_titles(marketplace: Marketplace) -> List[str]:
    return [job.title for job in marketplace if isinstance(job.function, LinearScoringFunction)]


class TestRolesScoreOnce:
    def test_audit_job_without_store_provider(self, marketplace):
        for title in transparent_titles(marketplace):
            market, job, counting = counted_job(marketplace, title)
            Auditor(min_partition_size=5).audit_job(market, job)
            assert counting.rows == [len(job.candidates(market.workers))], title

    def test_audit_job_with_store_provider(self, marketplace):
        for title in transparent_titles(marketplace):
            market, job, counting = counted_job(marketplace, title)
            stores: List[ScoreStore] = []

            def provider(dataset, function):
                stores.append(ScoreStore(dataset, function))
                return stores[-1]

            Auditor(min_partition_size=5, store_provider=provider).audit_job(market, job)
            assert counting.rows == [len(job.candidates(market.workers))], title
            assert len(stores) == 1

    def test_audit_with_anonymization_scores_once_per_k(self, marketplace):
        title = transparent_titles(marketplace)[0]
        market, job, counting = counted_job(marketplace, title)
        k_values = (1, 2, 5)
        Auditor(min_partition_size=5).audit_with_anonymization(market, title, k_values)
        # One pass per k, each over that k's whole (anonymised) population.
        assert len(counting.rows) == len(k_values)
        assert counting.rows[0] == len(job.candidates(market.workers))

    def test_job_owner_evaluate_function(self, marketplace):
        title = transparent_titles(marketplace)[0]
        candidates = marketplace.job(title).candidates(marketplace.workers)
        counting = CountingFunction(marketplace.job(title).function)
        JobOwner(min_partition_size=5).evaluate_function(candidates, counting)
        assert counting.rows == [len(candidates)]

    def test_end_user_assess_job(self, marketplace):
        title = transparent_titles(marketplace)[0]
        market, job, counting = counted_job(marketplace, title)
        outcome = EndUser({"Gender": "Female"}).assess_job(market, title)
        assert counting.rows == [len(job.candidates(market.workers))]
        assert outcome.population_size == len(job.candidates(market.workers))

    def test_job_owner_evaluate_function_with_store_provider(self, marketplace):
        title = transparent_titles(marketplace)[0]
        candidates = marketplace.job(title).candidates(marketplace.workers)
        counting = CountingFunction(marketplace.job(title).function)
        stores: List[ScoreStore] = []

        def provider(dataset, function):
            stores.append(ScoreStore(dataset, function))
            return stores[-1]

        owner = JobOwner(min_partition_size=5, store_provider=provider)
        owner.evaluate_function(candidates, counting)
        assert counting.rows == [len(candidates)]
        assert len(stores) == 1 and stores[0].stats.scoring_passes == 1

    def test_end_user_assess_job_with_store_provider(self, marketplace):
        title = transparent_titles(marketplace)[0]
        market, job, counting = counted_job(marketplace, title)
        stores: List[ScoreStore] = []

        def provider(dataset, function):
            stores.append(ScoreStore(dataset, function))
            return stores[-1]

        EndUser({"Gender": "Female"}, store_provider=provider).assess_job(market, title)
        assert counting.rows == [len(job.candidates(market.workers))]
        assert len(stores) == 1 and stores[0].stats.scoring_passes == 1


class TestEndUserMatchesDirectScoring:
    def test_outcome_numbers_equal_the_direct_computation(self, marketplace):
        title = transparent_titles(marketplace)[0]
        job = marketplace.job(title)
        function = job.function
        candidates = job.candidates(marketplace.workers)
        user = EndUser({"Gender": "Female"})
        outcome = user.assess_job(marketplace, title)
        members = candidates.filter(Equals("Gender", "Female"))
        rest = candidates.filter(~Equals("Gender", "Female"))
        binning = user.formulation.effective_binning
        ranking = function.rank(candidates)
        assert outcome.mean_score == float(function.score_dataset(members).mean())
        assert outcome.population_mean_score == float(function.score_dataset(candidates).mean())
        position = {uid: rank for rank, uid in enumerate(ranking.uids, start=1)}
        assert outcome.mean_rank == float(np.mean([position[u] for u in members.uids]))
        direct = [
            build_histogram(function.score_dataset(members), binning=binning),
            build_histogram(function.score_dataset(rest), binning=binning),
        ]
        # The one EMD kernel over the directly scored histograms, exactly...
        assert outcome.emd_vs_rest == pairwise_distances(direct, user.formulation)[0]
        # ...and the per-pair closed form as an independent check.
        assert outcome.emd_vs_rest == pytest.approx(
            emd_1d(direct[0].counts, direct[1].counts), abs=1e-12
        )


class TestPanelsRenderFromTheSearchStore:
    def test_boxes_and_rendering_add_no_scoring_pass(self):
        engine = FaiRankEngine()
        engine.register_dataset(synthetic_population(size=400, seed=5), name="pop")
        counting = CountingFunction(
            LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="f")
        )
        engine.register_function(counting)
        assert engine.function("f") is counting
        config = SessionConfig(
            dataset_name="pop",
            function_name="f",
            row_filter=Equals("Gender", "Female"),
            min_partition_size=5,
        )
        first = engine.open_panel(config)
        # The same filter applied twice: a content-identical twin population
        # served from the first panel's cached result.
        second = engine.open_panel(config)
        assert second.population is not first.population
        assert engine.service.store_stats.scoring_passes == 1
        assert counting.rows == [len(first.population)]
        for panel in (first, second):
            panel.render()
            panel.general_box()
            for label in panel.partition_labels():
                panel.node_box(label)
            panel.node_box(panel.result.tree.root.label)
        assert engine.service.store_stats.scoring_passes == 1
        assert counting.rows == [len(first.population)]

    def test_rendering_matches_private_store_rendering(self):
        engine = FaiRankEngine()
        engine.register_dataset(synthetic_population(size=300, seed=3), name="pop")
        function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="f")
        engine.register_function(function)
        panel = engine.open_panel(
            SessionConfig(dataset_name="pop", function_name="f", min_partition_size=5)
        )
        tree, formulation = panel.result.tree, panel.config.formulation
        # The defaults build a private store over the tree's own population.
        assert panel.render().endswith(render_tree(tree, function, formulation))
        general = panel.general_box()
        assert {key: general[key] for key in tree_stats(tree, function)} == tree_stats(
            tree, function, formulation
        )
        node = tree.find(panel.partition_labels()[0])
        assert panel.node_box(node.label) == node_stats(node.partition, function, formulation)


class TestSlicedUids:
    def test_uids_of_a_store_split_come_from_the_base_uids(self):
        function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="f")
        columnar = synthetic_population(size=500, seed=9, columnar=True)
        leaf = quantify(columnar, function, min_partition_size=20).partitioning[0]
        uids = leaf.uids
        # The same leaf reached by group-by splits.
        parent = root_partition(synthetic_population(size=500, seed=9, columnar=True))
        for name, value in leaf.constraints:
            parent = next(
                child
                for child in split_partition(parent, name)
                if child.constraint_value(name) == value
            )
        assert uids == parent.uids

