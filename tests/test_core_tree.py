"""Tests for repro.core.tree."""

import pytest

from repro.core.partition import Partitioning, root_partition, split_partition
from repro.core.tree import PartitionNode, PartitionTree
from repro.errors import PartitioningError


@pytest.fixture
def manual_tree(table1_dataset):
    """The Figure 2 tree: split on Gender, then split Male on Language."""
    root = PartitionNode(partition=root_partition(table1_dataset))
    root.split_attribute = "Gender"
    children = {
        child.constraint_value("Gender"): root.add_child(PartitionNode(partition=child))
        for child in split_partition(root.partition, "Gender")
    }
    male_node = children["Male"]
    male_node.split_attribute = "Language"
    for child in split_partition(male_node.partition, "Language"):
        male_node.add_child(PartitionNode(partition=child))
    return PartitionTree(root)


class TestPartitionNode:
    def test_leaf_and_label(self, table1_dataset):
        node = PartitionNode(partition=root_partition(table1_dataset))
        assert node.is_leaf
        assert node.label == "ALL"
        assert node.size == 10
        assert node.depth() == 0

    def test_add_child_and_traversal(self, manual_tree):
        root = manual_tree.root
        assert not root.is_leaf
        labels = [node.label for node in root.iter_nodes()]
        assert labels[0] == "ALL"
        assert "Gender=Male" in labels
        assert any("Language=English" in label for label in labels)

    def test_find(self, manual_tree):
        assert manual_tree.root.find("Gender=Female") is not None
        assert manual_tree.root.find("Gender=Unknown") is None


class TestPartitionTree:
    def test_requires_root(self):
        with pytest.raises(PartitioningError):
            PartitionTree(None)

    def test_leaves_form_figure2_partitioning(self, manual_tree):
        leaves = manual_tree.leaves()
        labels = {leaf.label for leaf in leaves}
        assert labels == {
            "Gender=Female",
            "Gender=Male, Language=English",
            "Gender=Male, Language=Indian",
            "Gender=Male, Language=Other",
        }
        assert sum(leaf.size for leaf in leaves) == 10

    def test_to_partitioning_is_valid(self, manual_tree):
        partitioning = manual_tree.to_partitioning()
        assert isinstance(partitioning, Partitioning)
        assert len(partitioning) == 4

    def test_depth_and_counts(self, manual_tree):
        assert manual_tree.depth() == 2
        assert manual_tree.node_count() == 1 + 2 + 3
        assert len(manual_tree.nodes()) == manual_tree.node_count()

    def test_find_raises_for_unknown_label(self, manual_tree):
        assert manual_tree.find("Gender=Male").size == 6
        with pytest.raises(PartitioningError):
            manual_tree.find("nonexistent")

    def test_split_attributes_used(self, manual_tree):
        assert manual_tree.split_attributes_used() == ("Gender", "Language")

    def test_summary(self, manual_tree):
        summary = manual_tree.summary()
        assert summary["partitions"] == 4
        assert summary["depth"] == 2
        assert summary["split_attributes"] == ["Gender", "Language"]
        assert summary["partition_sizes"]["Gender=Female"] == 4
