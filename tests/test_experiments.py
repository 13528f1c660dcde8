"""Tests for the experiment harness and (small instances of) the suite."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentRegistry, registry, run_experiment
from repro.experiments.workloads import (
    biased_population,
    crowdsourcing_marketplace,
    scaling_populations,
    synthetic_population,
    table1_workload,
)
from repro.roles.report import ReportTable


class TestWorkloads:
    def test_table1_workload(self):
        dataset, function = table1_workload()
        assert len(dataset) == 10
        assert function.name == "table1-f"

    def test_synthetic_population_deterministic(self):
        assert synthetic_population(50, seed=3).to_records() == \
            synthetic_population(50, seed=3).to_records()

    def test_biased_population_returns_spec(self):
        dataset, spec = biased_population(size=100, seed=3)
        assert len(dataset) == 100
        assert spec.condition_attributes
        penalised = dataset.filter(spec.subgroup)
        assert len(penalised) > 0

    def test_crowdsourcing_marketplace_has_jobs(self):
        marketplace = crowdsourcing_marketplace(size=60, seed=3)
        assert len(marketplace) >= 3
        assert "English transcription" in marketplace

    def test_scaling_populations(self):
        populations = scaling_populations(sizes=(10, 20), seed=3)
        assert set(populations) == {10, 20}
        assert len(populations[20]) == 20
        with pytest.raises(ExperimentError):
            scaling_populations(sizes=())


class TestRegistry:
    def test_all_twelve_experiments_registered(self):
        import repro.experiments.suite  # noqa: F401

        assert registry.experiment_ids == [f"E{i}" for i in range(1, 13)]
        for experiment_id in registry.experiment_ids:
            assert registry.description(experiment_id)

    def test_duplicate_registration_rejected(self):
        local = ExperimentRegistry()

        @local.register("X1", "first")
        def _first():
            return []

        with pytest.raises(ExperimentError):
            @local.register("X1", "again")
            def _second():
                return []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            registry.run("E999")

    def test_run_wraps_single_table(self):
        local = ExperimentRegistry()

        @local.register("X1", "single table")
        def _runner():
            return ReportTable(title="t", headers=["a"])

        outcome = local.run("X1")
        assert len(outcome.tables) == 1
        assert outcome.elapsed_seconds >= 0.0
        assert "X1" in outcome.render()


class TestSuiteSmallRuns:
    """Run each experiment on a reduced workload to keep tests fast."""

    def test_e1_reproduces_all_published_scores(self):
        outcome = run_experiment("E1")
        table = outcome.tables[0]
        assert len(table) == 10
        assert all(row[-1] == "yes" for row in table.rows)

    def test_e2_figure2_partitioning(self):
        outcome = run_experiment("E2")
        figure2 = outcome.tables[0]
        labels = figure2.column("partition")
        assert "Gender=Female" in labels
        assert "Gender=Male, Language=English" in labels
        assert len(labels) == 4
        sizes = figure2.column("size")
        assert sum(sizes) == 10
        comparison = outcome.tables[1]
        values = dict(zip(comparison.column("partitioning"), comparison.column("unfairness")))
        greedy = values["QUANTIFY (greedy search)"]
        assert greedy >= values["Figure 2 (paper's illustration)"] - 1e-9

    def test_e4_greedy_vs_exhaustive_small(self):
        outcome = run_experiment("E4", sizes=(40,), attribute_counts=(2,))
        table = outcome.tables[0]
        assert len(table) == 1
        record = table.to_records()[0]
        assert record["ratio"] <= 1.0 + 1e-9
        assert record["greedy unfairness"] <= record["exact unfairness"] + 1e-9

    def test_e5_formulations_small(self):
        outcome = run_experiment("E5", size=80)
        table = outcome.tables[0]
        objectives = set(table.column("objective"))
        assert objectives == {"most_unfair", "least_unfair"}

    def test_e6_anonymization_small(self):
        outcome = run_experiment("E6", size=80, k_values=(1, 5))
        table = outcome.tables[0]
        records = {r["k"]: r for r in table.to_records()}
        assert records[5]["unfairness"] <= records[1]["unfairness"] + 1e-9

    def test_e7_transparency_small(self):
        outcome = run_experiment("E7", size=80)
        for record in outcome.tables[0].to_records():
            assert record["true-score unfairness"] >= 0.0
            assert record["rank-linear unfairness"] >= 0.0

    def test_e11_scalability_small(self):
        outcome = run_experiment("E11", sizes=(50, 100))
        table = outcome.tables[0]
        assert len(table) == 6  # 2 sizes x 3 attribute counts
        assert all(r["runtime (s)"] < 30 for r in table.to_records())

    def test_e12_subgroup_vs_predefined_small(self):
        outcome = run_experiment("E12", size=150, penalties=(-0.3,))
        record = outcome.tables[0].to_records()[0]
        assert record["QUANTIFY unfairness"] >= record["single-attr unfairness"] - 1e-9
