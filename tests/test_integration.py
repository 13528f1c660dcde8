"""End-to-end integration tests across the whole pipeline (Figure 1)."""

import pytest

from repro.anonymize.kanonymity import GlobalRecodingAnonymizer, is_k_anonymous
from repro.core.formulations import Formulation, Objective
from repro.core.quantify import quantify
from repro.data.filters import Equals
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.marketplace.crawler import MarketplaceCrawler
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import RankDerivedScorer
from repro.session.config import SessionConfig
from repro.session.engine import FaiRankEngine


class TestPaperRunningExample:
    """The full Table 1 -> Figure 2 story as an end-to-end flow."""

    def test_table1_quantify_isolates_low_scoring_group(self):
        dataset = load_example_table1()
        function = LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        result = quantify(
            dataset, function, attributes=["Gender", "Language", "Country", "Ethnicity"]
        )
        # The partitioning must separate groups with clearly different means.
        means = sorted(
            function.score_dataset(partition.members).mean()
            for partition in result.partitioning
        )
        assert means[-1] - means[0] > 0.2
        assert result.unfairness > 0.5

    def test_most_vs_least_unfair_on_table1(self):
        dataset = load_example_table1()
        function = LinearScoringFunction(TABLE1_WEIGHTS)
        most = quantify(dataset, function, attributes=["Gender", "Language"])
        least = quantify(
            dataset, function, attributes=["Gender", "Language"],
            formulation=Formulation(objective=Objective.LEAST_UNFAIR),
        )
        assert least.unfairness <= most.unfairness


class TestFullPipeline:
    """Dataset -> filter -> anonymise -> score -> optimise -> panels."""

    def test_engine_pipeline_with_all_stages(self, medium_population):
        engine = FaiRankEngine()
        engine.register_dataset(medium_population, name="workers")
        engine.register_function(
            LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="writing")
        )
        config = SessionConfig(
            "workers",
            "writing",
            attributes=("Gender", "Country", "Language", "Ethnicity"),
            row_filter=Equals("Language", "English"),
            anonymity_k=3,
            min_partition_size=2,
        )
        panel = engine.open_panel(config)
        assert len(panel.population) < len(medium_population)
        assert is_k_anonymous(
            panel.population, ("Gender", "Country", "Language", "Ethnicity"), 3
        )
        assert panel.unfairness >= 0.0
        assert panel.render()

    def test_transparency_settings_change_measurement_not_crash(self, medium_population):
        engine = FaiRankEngine()
        engine.register_dataset(medium_population, name="workers")
        engine.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        kwargs = {"attributes": ("Gender", "Country", "Language", "Ethnicity"),
                  "min_partition_size": 2}
        panels = [
            engine.open_panel(SessionConfig("workers", "balanced", **kwargs)),
            engine.open_panel(SessionConfig("workers", "balanced", anonymity_k=10, **kwargs)),
            engine.open_panel(SessionConfig("workers", "balanced", use_ranks_only=True, **kwargs)),
        ]
        table = engine.compare([p.panel_id for p in panels])
        values = table.column("unfairness")
        assert len(values) == 3
        assert all(v >= 0 for v in values)
        # Anonymisation coarsens groups, so it cannot reveal more unfairness.
        assert values[1] <= values[0] + 1e-9


class TestThreeScenarios:
    """The three demonstration scenarios run against a simulated crawl."""

    @pytest.fixture(scope="class")
    def marketplaces(self):
        crawler = MarketplaceCrawler(seed=19)
        return {
            name: crawler.crawl(name, workers=150)
            for name in ("qapa-sim", "mistertemp-sim")
        }

    def test_auditor_scenario(self, marketplaces):
        report = Auditor(min_partition_size=3).audit_marketplace(marketplaces["qapa-sim"])
        assert report.most_unfair_job is not None
        assert report.most_unfair_job.unfairness >= report.least_unfair_job.unfairness
        rendered = report.render()
        assert "Fairness report" in rendered

    def test_job_owner_scenario(self, marketplaces):
        owner = JobOwner(min_partition_size=3)
        report = owner.explore_job(marketplaces["qapa-sim"], "Warehouse operator", sweep_steps=3)
        assert report.fairest is not None
        assert report.fairest.unfairness <= report.most_unfair.unfairness

    def test_end_user_scenario(self, marketplaces):
        user = EndUser({"Gender": "Female", "Age Band": "18-29"})
        table = user.compare_marketplaces(list(marketplaces.values()), "Installing wood panels")
        assert 1 <= len(table) <= 2
        assert any("best option" in note for note in table.notes)

    def test_opaque_function_audited_through_ranking(self, marketplaces):
        marketplace = marketplaces["qapa-sim"]
        opaque_jobs = [job for job in marketplace if not job.is_transparent]
        assert opaque_jobs
        job = opaque_jobs[0]
        candidates = job.candidates(marketplace.workers)
        scorer = RankDerivedScorer(job.function.reveal_ranking(candidates))
        result = quantify(candidates, scorer, min_partition_size=3)
        assert result.unfairness >= 0.0


class TestAnonymizationIntegration:
    def test_anonymised_audit_blurs_planted_subgroup(self, medium_population):
        """k-anonymisation reduces the measured unfairness of a planted bias."""
        from repro.marketplace.bias import BiasSpec, apply_bias

        spec = BiasSpec(
            {"Gender": "Female", "Ethnicity": "African-American"},
            {"Language Test": -0.35, "Rating": -0.35},
        )
        biased = apply_bias(medium_population, [spec])
        function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5})
        attributes = ["Gender", "Country", "Language", "Ethnicity"]

        raw = quantify(biased, function, attributes=attributes, min_partition_size=2)
        anonymized = GlobalRecodingAnonymizer().anonymize(
            biased, k=25, quasi_identifiers=attributes
        )
        blurred = quantify(anonymized.dataset, function, attributes=attributes,
                           min_partition_size=2)
        assert blurred.unfairness <= raw.unfairness + 1e-9
