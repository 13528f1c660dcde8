"""The experiment suite: one runner per table/figure of the paper (E1-E12).

See DESIGN.md section 2 for the experiment index.  Each runner returns one or
more :class:`~repro.roles.report.ReportTable` objects; benchmarks wrap the
same runners with pytest-benchmark, and ``examples/`` call a subset of them.
Default parameters are sized to finish within seconds on a laptop; pass
larger values through :func:`repro.experiments.harness.run_experiment` for
bigger runs.
"""

from __future__ import annotations

import time
from typing import List, Sequence


from repro.anonymize.kanonymity import GlobalRecodingAnonymizer, MondrianAnonymizer
from repro.anonymize.metrics import information_loss
from repro.baselines.predefined import single_attribute_baseline
from repro.core.exhaustive import count_partitionings, exhaustive_search
from repro.core.formulations import Formulation
from repro.core.partition import Partitioning
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness, unfairness_breakdown
from repro.data.loaders import TABLE1_PUBLISHED_SCORES
from repro.experiments.harness import registry
from repro.experiments.workloads import (
    biased_population,
    crawled_marketplaces,
    crowdsourcing_marketplace,
    scaling_populations,
    synthetic_population,
    table1_workload,
)
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.roles.report import ReportTable
from repro.scoring.rank import RankDerivedScorer
from repro.session.config import SessionConfig
from repro.session.engine import FaiRankEngine

__all__ = ["registry"]


# ---------------------------------------------------------------------------
# E1 — Table 1: the example dataset and its scoring function
# ---------------------------------------------------------------------------


@registry.register("E1", "Table 1: example dataset, scoring function and published f(w)")
def run_table1_example() -> List[ReportTable]:
    dataset, function = table1_workload()
    scores = function.score_dataset(dataset).tolist()
    table = ReportTable(
        title="Table 1 — example dataset (reproduced)",
        headers=["individual", "Gender", "Country", "Year of Birth", "Language",
                 "Ethnicity", "Experience", "Language Test", "Rating",
                 "f(w) computed", "f(w) paper", "match"],
    )
    for record, computed in zip(dataset.to_records(), scores):
        published = TABLE1_PUBLISHED_SCORES[record["uid"]]
        table.add_row(
            record["uid"],
            record["Gender"],
            record["Country"],
            record["Year of Birth"],
            record["Language"],
            record["Ethnicity"],
            record["Experience"],
            record["Language Test"],
            record["Rating"],
            computed,
            published,
            "yes" if abs(computed - published) < 1e-9 else "no",
        )
    matches = sum(1 for row in table.rows if row[-1] == "yes")
    table.add_note(f"{matches}/{len(table.rows)} published scores reproduced exactly "
                   f"with weights 0.3*Language Test + 0.7*Rating")
    return [table]


# ---------------------------------------------------------------------------
# E2 — Figure 2: the worked-example partitioning
# ---------------------------------------------------------------------------


@registry.register(
    "E2", "Figure 2: partitioning of the example dataset with per-partition histograms"
)
def run_figure2_partitioning(bins: int = 5) -> List[ReportTable]:
    dataset, function = table1_workload()
    formulation = Formulation(bins=bins)

    # The partitioning shown in Figure 2: split on Gender, then split only the
    # Male partition on Language.
    from repro.core.partition import root_partition, split_partition

    root = root_partition(dataset)
    by_gender = {p.constraint_value("Gender"): p for p in split_partition(root, "Gender")}
    male_by_language = split_partition(by_gender["Male"], "Language")
    figure2 = Partitioning(dataset, tuple(male_by_language) + (by_gender["Female"],))

    table = ReportTable(
        title="Figure 2 — partitioning {Male-English, Male-Indian, Male-Other, Female}",
        headers=["partition", "members", "size", "score histogram", "mean score"],
    )
    binning = formulation.effective_binning
    store = ScoreStore(dataset, function)
    for partition in figure2:
        histogram = store.histogram(partition, binning)
        scores = store.scores(partition)
        table.add_row(
            partition.label,
            ", ".join(partition.uids),
            partition.size,
            histogram.describe(),
            float(scores.mean()),
        )
    value = unfairness(figure2, function, formulation, store=store)
    table.add_note(f"unfairness (average pairwise EMD, {bins} bins): {value:.4f}")

    greedy = quantify(dataset, function, formulation=formulation,
                      attributes=["Gender", "Language", "Country", "Ethnicity"])
    comparison = ReportTable(
        title="Figure 2 vs QUANTIFY output on the same dataset",
        headers=["partitioning", "#groups", "unfairness"],
    )
    comparison.add_row("Figure 2 (paper's illustration)", len(figure2), value)
    comparison.add_row("QUANTIFY (greedy search)", len(greedy.partitioning), greedy.unfairness)
    comparison.add_note("QUANTIFY is free to pick different attributes, so its unfairness "
                        "should be >= the illustrative partitioning's value")
    return [table, comparison]


# ---------------------------------------------------------------------------
# E3 — Figure 1: the end-to-end pipeline through the engine
# ---------------------------------------------------------------------------


@registry.register(
    "E3",
    "Figure 1: end-to-end pipeline (dataset -> filter -> scoring -> optimisation -> panels)",
)
def run_pipeline(size: int = 300, seed: int = 7) -> List[ReportTable]:
    from repro.data.filters import Equals

    dataset, _ = biased_population(size=size, seed=seed)
    engine = FaiRankEngine()
    engine.register_dataset(dataset, name="crowdsourcing")
    from repro.scoring.linear import LinearScoringFunction

    engine.register_function(
        LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="writing-job")
    )
    engine.register_function(
        LinearScoringFunction({"Language Test": 0.2, "Rating": 0.8}, name="rating-heavy-job")
    )

    demographics = ("Gender", "Country", "Language", "Ethnicity")
    panels = [
        engine.open_panel(SessionConfig("crowdsourcing", "writing-job",
                                        attributes=demographics, min_partition_size=5)),
        engine.open_panel(SessionConfig("crowdsourcing", "rating-heavy-job",
                                        attributes=demographics, min_partition_size=5)),
        engine.open_panel(
            SessionConfig("crowdsourcing", "writing-job", attributes=demographics,
                          min_partition_size=5, row_filter=Equals("Language", "English"))
        ),
        engine.open_panel(SessionConfig("crowdsourcing", "writing-job",
                                        attributes=demographics, min_partition_size=5,
                                        anonymity_k=5)),
        engine.open_panel(SessionConfig("crowdsourcing", "writing-job",
                                        attributes=demographics, min_partition_size=5,
                                        use_ranks_only=True)),
    ]
    table = engine.compare([panel.panel_id for panel in panels])
    table.title = "Figure 1 — one engine run per pipeline stage variation"
    return [table]


# ---------------------------------------------------------------------------
# E4 — greedy QUANTIFY vs exhaustive optimum
# ---------------------------------------------------------------------------


@registry.register("E4", "Greedy QUANTIFY vs exhaustive optimum: quality and runtime")
def run_greedy_vs_exhaustive(
    sizes: Sequence[int] = (60, 120, 200),
    attribute_counts: Sequence[int] = (2, 3),
    seed: int = 7,
) -> List[ReportTable]:
    table = ReportTable(
        title="Greedy vs exhaustive (most-unfair / average EMD)",
        headers=["n", "#attributes", "search space", "greedy unfairness",
                 "exact unfairness", "ratio", "greedy time (s)", "exact time (s)", "speed-up"],
    )
    for size in sizes:
        population = synthetic_population(size=size, seed=seed)
        for count in attribute_counts:
            attributes = list(population.schema.protected_names[:count])
            # Keep cardinalities manageable for the exhaustive baseline.
            attributes = [a for a in attributes if a not in ("Year of Birth", "Experience")][:count]
            if len(attributes) < 2:
                continue
            from repro.scoring.linear import LinearScoringFunction

            function = LinearScoringFunction(
                {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
            )
            space = count_partitionings(population, attributes=attributes, limit=500_000)

            start = time.perf_counter()
            greedy = quantify(population, function, attributes=attributes)
            greedy_time = time.perf_counter() - start

            start = time.perf_counter()
            exact = exhaustive_search(population, function, attributes=attributes, limit=500_000)
            exact_time = time.perf_counter() - start

            ratio = greedy.unfairness / exact.unfairness if exact.unfairness else 1.0
            table.add_row(
                size, len(attributes), space, greedy.unfairness, exact.unfairness,
                ratio, greedy_time, exact_time,
                exact_time / greedy_time if greedy_time > 0 else float("inf"),
            )
    table.add_note(
        "ratio = greedy unfairness / exact optimum (1.0 means the heuristic found the optimum)"
    )
    return [table]


# ---------------------------------------------------------------------------
# E5 — fairness formulations
# ---------------------------------------------------------------------------


@registry.register("E5", "Fairness formulations: objective x aggregation x distance")
def run_formulations(size: int = 300, seed: int = 7) -> List[ReportTable]:
    population, bias = biased_population(size=size, seed=seed)
    from repro.scoring.linear import LinearScoringFunction

    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    attributes = ["Gender", "Country", "Language", "Ethnicity"]

    table = ReportTable(
        title="Unfairness under different formulations (same population and function)",
        headers=["objective", "aggregation", "distance", "unfairness", "#groups", "least favored"],
    )
    # Formulations are resolved from plain name strings through the single
    # Formulation.from_names path shared with the CLI and the wire protocol.
    for objective in ("most_unfair", "least_unfair"):
        for aggregation in ("average", "maximum", "variance"):
            for distance_name in ("emd", "total_variation", "mean_gap"):
                formulation = Formulation.from_names(
                    objective=objective,
                    aggregation=aggregation,
                    distance=distance_name,
                )
                result = quantify(population, function, formulation=formulation,
                                  attributes=attributes)
                breakdown = unfairness_breakdown(result.partitioning, function, formulation)
                table.add_row(
                    objective,
                    aggregation,
                    distance_name,
                    result.unfairness,
                    len(result.partitioning),
                    breakdown.least_favored or "-",
                )
    table.add_note(f"planted bias: {bias.describe()}")
    return [table]


# ---------------------------------------------------------------------------
# E6 — data transparency (k-anonymisation)
# ---------------------------------------------------------------------------


@registry.register("E6", "Data transparency: k-anonymisation vs measured unfairness")
def run_anonymization(
    size: int = 300,
    seed: int = 7,
    k_values: Sequence[int] = (1, 2, 5, 10, 20),
) -> List[ReportTable]:
    population, bias = biased_population(size=size, seed=seed)
    from repro.scoring.linear import LinearScoringFunction

    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    quasi_identifiers = ["Gender", "Country", "Language", "Ethnicity"]

    global_table = ReportTable(
        title="Global-recoding k-anonymisation (ARX-style) vs unfairness",
        headers=["k", "unfairness", "#groups", "generalisation intensity",
                 "suppressed", "least favored"],
    )
    mondrian_table = ReportTable(
        title="Mondrian (local recoding) k-anonymisation vs unfairness",
        headers=["k", "unfairness", "#groups", "generalisation intensity", "least favored"],
    )
    anonymizer = GlobalRecodingAnonymizer()
    mondrian = MondrianAnonymizer()
    for k in k_values:
        if k <= 1:
            anonymized = population
            loss_intensity = 0.0
            suppressed = 0
            mond_dataset = population
            mond_intensity = 0.0
        else:
            result = anonymizer.anonymize(population, k=k, quasi_identifiers=quasi_identifiers)
            anonymized = result.dataset
            loss = information_loss(result)
            loss_intensity = loss.generalization_intensity
            suppressed = len(result.suppressed_uids)
            mond_result = mondrian.anonymize(population, k=k, quasi_identifiers=quasi_identifiers)
            mond_dataset = mond_result.dataset
            mond_intensity = information_loss(mond_result).generalization_intensity

        greedy = quantify(anonymized, function, attributes=quasi_identifiers)
        breakdown = unfairness_breakdown(greedy.partitioning, function, greedy.formulation)
        global_table.add_row(k, greedy.unfairness, len(greedy.partitioning),
                             loss_intensity, suppressed, breakdown.least_favored or "-")

        mond_greedy = quantify(mond_dataset, function, attributes=quasi_identifiers)
        mond_breakdown = unfairness_breakdown(
            mond_greedy.partitioning, function, mond_greedy.formulation
        )
        mondrian_table.add_row(k, mond_greedy.unfairness, len(mond_greedy.partitioning),
                               mond_intensity, mond_breakdown.least_favored or "-")
    global_table.add_note(f"planted bias: {bias.describe()}")
    global_table.add_note("expected shape: unfairness and group resolution decrease as k grows")
    return [global_table, mondrian_table]


# ---------------------------------------------------------------------------
# E7 — function transparency (true scores vs rank-derived scores)
# ---------------------------------------------------------------------------


@registry.register("E7", "Function transparency: true scores vs rank-only histograms")
def run_transparency(size: int = 300, seed: int = 7) -> List[ReportTable]:
    population, bias = biased_population(size=size, seed=seed)
    from repro.scoring.linear import LinearScoringFunction

    attributes = ["Gender", "Country", "Language", "Ethnicity"]
    table = ReportTable(
        title="Unfairness with the true function vs rank-derived scores",
        headers=["job (weights)", "true-score unfairness", "rank-linear unfairness",
                 "rank-exposure unfairness", "same least-favored group"],
    )
    weight_settings = [
        {"Language Test": 0.7, "Rating": 0.3},
        {"Language Test": 0.5, "Rating": 0.5},
        {"Language Test": 0.2, "Rating": 0.8},
    ]
    def _least_favored_constraints(result, function) -> frozenset:
        """Canonical (attribute, value) constraints of the least-favoured partition."""
        breakdown = unfairness_breakdown(result.partitioning, function, result.formulation)
        if breakdown.least_favored is None:
            return frozenset()
        partition = result.partitioning.find(breakdown.least_favored)
        return frozenset(partition.constraints)

    for weights in weight_settings:
        function = LinearScoringFunction(weights, name="hidden")
        true_result = quantify(population, function, attributes=attributes)

        ranking = function.rank(population)
        linear_scorer = RankDerivedScorer(ranking, weighting="linear", name="ranks-linear")
        exposure_scorer = RankDerivedScorer(ranking, weighting="exposure", name="ranks-exposure")
        linear_result = quantify(population, linear_scorer, attributes=attributes)
        exposure_result = quantify(population, exposure_scorer, attributes=attributes)

        true_constraints = _least_favored_constraints(true_result, function)
        rank_constraints = _least_favored_constraints(linear_result, linear_scorer)
        # "Same" means one identified subgroup refines or equals the other
        # (e.g. Gender=Female vs Gender=Female & Ethnicity=X): the rank-only
        # view may lose resolution but should not point somewhere disjoint.
        same_group = bool(true_constraints & rank_constraints) or (
            true_constraints == rank_constraints
        )

        label = ", ".join(f"{k}={v}" for k, v in weights.items())
        table.add_row(
            label,
            true_result.unfairness,
            linear_result.unfairness,
            exposure_result.unfairness,
            "yes" if same_group else "no",
        )
    table.add_note(f"planted bias: {bias.describe()}")
    table.add_note("expected shape: rank-only analysis preserves the ordering of jobs by "
                   "unfairness but changes the absolute values")
    return [table]


# ---------------------------------------------------------------------------
# E8 — AUDITOR scenario
# ---------------------------------------------------------------------------


@registry.register("E8", "AUDITOR scenario: marketplace-wide fairness report")
def run_auditor(size: int = 300, seed: int = 7) -> List[ReportTable]:
    marketplace = crowdsourcing_marketplace(size=size, seed=seed)
    # Audit over the demographic (categorical) protected attributes; the
    # near-continuous ones (year of birth, experience) would shatter the
    # population into readably meaningless micro-groups.
    auditor = Auditor(
        attributes=["Gender", "Country", "Language", "Ethnicity"], min_partition_size=5
    )
    report = auditor.audit_marketplace(marketplace)
    tables = [report.to_table()]
    tables.append(
        auditor.audit_with_anonymization(marketplace, marketplace.job_titles[0],
                                         k_values=(1, 2, 5, 10))
    )
    return tables


# ---------------------------------------------------------------------------
# E9 — JOB OWNER scenario
# ---------------------------------------------------------------------------


@registry.register("E9", "JOB OWNER scenario: scoring-function variants for one job")
def run_job_owner(size: int = 300, seed: int = 7, sweep_steps: int = 5) -> List[ReportTable]:
    marketplace = crowdsourcing_marketplace(size=size, seed=seed)
    owner = JobOwner(
        attributes=["Gender", "Country", "Language", "Ethnicity"], min_partition_size=5
    )
    report = owner.explore_job(marketplace, "Content writing", sweep_steps=sweep_steps)
    return [report.to_table()]


# ---------------------------------------------------------------------------
# E10 — END-USER scenario
# ---------------------------------------------------------------------------


@registry.register("E10", "END-USER scenario: how a group fares across jobs and marketplaces")
def run_end_user(workers: int = 250, seed: int = 11) -> List[ReportTable]:
    marketplaces = crawled_marketplaces(workers=workers, seed=seed)
    by_name = {marketplace.name: marketplace for marketplace in marketplaces}

    # A young female worker comparing manual-labour jobs on the two French
    # platforms (the paper's example: "Young professionals in Grenoble"
    # looking at "installing wood panels").
    end_user = EndUser({"Gender": "Female", "Age Band": "18-29"})
    tables = [end_user.compare_jobs(by_name["qapa-sim"])]
    french_platforms = [by_name["qapa-sim"], by_name["mistertemp-sim"]]
    wood_panel_table = None
    try:
        wood_panel_table = end_user.compare_marketplaces(french_platforms, "Installing wood panels")
    except Exception:  # pragma: no cover - depends on catalogue
        wood_panel_table = None
    if wood_panel_table is not None:
        tables.append(wood_panel_table)

    # A Black male worker on the US platforms.
    us_user = EndUser({"Gender": "Male", "Ethnicity": "Black"})
    tables.append(us_user.compare_jobs(by_name["taskrabbit-sim"]))
    return tables


# ---------------------------------------------------------------------------
# E11 — scalability / interactive response time
# ---------------------------------------------------------------------------


@registry.register("E11", "Scalability: QUANTIFY runtime vs population size and #attributes")
def run_scalability(
    sizes: Sequence[int] = (100, 300, 1_000, 3_000),
    seed: int = 7,
) -> List[ReportTable]:
    populations = scaling_populations(sizes=sizes, seed=seed)
    from repro.scoring.linear import LinearScoringFunction

    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    table = ReportTable(
        title="QUANTIFY runtime (seconds) vs population size and number of protected attributes",
        headers=["n", "#attributes", "runtime (s)", "#groups", "splits evaluated", "unfairness"],
    )
    for size, population in populations.items():
        for count in (2, 4, 6):
            attributes = list(population.schema.protected_names[:count])
            start = time.perf_counter()
            result = quantify(population, function, attributes=attributes, min_partition_size=2)
            elapsed = time.perf_counter() - start
            table.add_row(size, len(attributes), elapsed, len(result.partitioning),
                          result.splits_evaluated, result.unfairness)
    table.add_note(
        "the paper's claim under test: the greedy heuristic keeps response time interactive"
    )
    return [table]


# ---------------------------------------------------------------------------
# E12 — subgroup fairness vs single-attribute baseline
# ---------------------------------------------------------------------------


@registry.register(
    "E12", "Subgroup search vs single-attribute baseline on planted intersectional bias"
)
def run_subgroup_vs_predefined(
    size: int = 400,
    seed: int = 7,
    penalties: Sequence[float] = (-0.1, -0.2, -0.3),
) -> List[ReportTable]:
    from repro.scoring.linear import LinearScoringFunction

    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    attributes = ["Gender", "Country", "Language", "Ethnicity"]
    table = ReportTable(
        title="Planted intersectional bias: what each method measures",
        headers=["penalty", "best single attribute", "single-attr unfairness",
                 "QUANTIFY unfairness", "gain", "bias attrs in QUANTIFY splits"],
    )
    for penalty in penalties:
        population, bias = biased_population(size=size, seed=seed, penalty=penalty)
        singles = single_attribute_baseline(population, function, attributes=attributes)
        best_single = singles[0]
        greedy = quantify(population, function, attributes=attributes, min_partition_size=2)
        used = set(greedy.tree.split_attributes_used())
        planted = set(bias.condition_attributes)
        table.add_row(
            penalty,
            best_single.attribute,
            best_single.unfairness,
            greedy.unfairness,
            greedy.unfairness / best_single.unfairness if best_single.unfairness else float("inf"),
            "yes" if planted & used else "no",
        )
    table.add_note("expected shape: the subgroup search measures strictly more unfairness than "
                   "any single-attribute view, and the gap grows with the planted penalty")
    return [table]
