"""Quickstart: reproduce the paper's running example end to end.

Loads the Table 1 dataset, scores it with the paper's scoring function,
rebuilds the Figure 2 partitioning, and then lets the greedy QUANTIFY search
find the most unfair partitioning on its own.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import Formulation, Partitioning, quantify, unfairness, unfairness_breakdown
from repro.core.partition import root_partition, split_partition
from repro.data import TABLE1_WEIGHTS, load_example_table1
from repro.scoring import LinearScoringFunction
from repro.session import render_partitioning, render_tree


def main() -> None:
    # 1. The dataset and scoring function of Table 1.
    dataset = load_example_table1()
    function = LinearScoringFunction(TABLE1_WEIGHTS, name="f = 0.3*LanguageTest + 0.7*Rating")
    print("== Table 1: individuals and their scores ==")
    for record, score in zip(dataset.to_records(), function.score_dataset(dataset)):
        print(f"  {record['uid']:>4}  {record['Gender']:<7} {record['Language']:<8} "
              f"{record['Ethnicity']:<17} f(w) = {score:.3f}")

    # 2. The Figure 2 partitioning: split on Gender, then split Male on Language.
    formulation = Formulation()  # most unfair / average pairwise EMD / 5 bins
    root = root_partition(dataset)
    by_gender = {p.constraint_value("Gender"): p for p in split_partition(root, "Gender")}
    male_by_language = split_partition(by_gender["Male"], "Language")
    figure2 = Partitioning(dataset, tuple(male_by_language) + (by_gender["Female"],))
    print("\n== Figure 2 partitioning ==")
    print(render_partitioning(figure2, function, formulation))
    print(f"unfairness (avg pairwise EMD): {unfairness(figure2, function, formulation):.4f}")

    # 3. Let QUANTIFY search for the most unfair partitioning itself.
    result = quantify(
        dataset, function,
        formulation=formulation,
        attributes=["Gender", "Language", "Country", "Ethnicity"],
    )
    print("\n== QUANTIFY (Algorithm 1) output ==")
    print(render_tree(result.tree, function, formulation))
    print(f"\nunfairness of the returned partitioning: {result.unfairness:.4f}")

    breakdown = unfairness_breakdown(result.partitioning, function, formulation)
    print(f"most favored group:  {breakdown.most_favored}")
    print(f"least favored group: {breakdown.least_favored}")


if __name__ == "__main__":
    main()
