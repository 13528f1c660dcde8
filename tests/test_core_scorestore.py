"""Tests for the score materialization layer (repro.core.scorestore)."""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.formulations import Formulation, resolve_binning
from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.core.quantify import quantify
from repro.core import scorestore
from repro.core.scorestore import ScoreStore, _root_packs
from repro.core.unfairness import (
    favored_groups,
    unfairness,
    unfairness_breakdown,
)
from repro.data.dataset import Dataset, DatasetView
from repro.data.filters import Equals
from repro.data.schema import Schema, observed, protected
from repro.errors import FormulationError, PartitioningError, ScoringError
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.metrics.histogram import MAX_BINS, Binning, build_histogram, cdf_matrix
from repro.metrics.distances import available_distances
from repro.scoring.linear import LinearScoringFunction
from repro.service import AuditRequest, BatchExecutor, FairnessService, QuantifyRequest
from distance_reference import normalized
from scoring_reference import (
    reference_bin_codes,
    reference_breakdown,
    reference_candidate_split,
    reference_quantify,
    reference_statistics,
    reference_unfairness,
)


@pytest.fixture(scope="module")
def population() -> Dataset:
    return synthetic_population(size=600, seed=11)


@pytest.fixture(scope="module")
def function() -> LinearScoringFunction:
    return LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="store-f")


class CountingFunction(LinearScoringFunction):
    """Counts score_dataset invocations and total rows scored."""

    def __init__(self, base: LinearScoringFunction) -> None:
        self.__dict__.update(base.__dict__)
        self.calls = 0
        self.rows = 0

    def score_dataset(self, dataset):
        self.calls += 1
        self.rows += len(dataset)
        return LinearScoringFunction.score_dataset(self, dataset)


def assert_matches_reference(result, reference, function, formulation=None, store=None):
    """Store-based QUANTIFY + breakdown equal the direct reference exactly."""
    formulation = formulation or result.formulation
    assert result.summary() == reference.summary()
    assert result.unfairness == reference.unfairness
    assert result.splits_evaluated == reference.splits_evaluated
    assert result.partitioning.labels == reference.partitioning.labels
    assert result.partitioning.sizes == reference.partitioning.sizes
    stored = unfairness_breakdown(result.partitioning, function, formulation, store=store)
    direct = reference_breakdown(reference.partitioning, function, formulation)
    assert stored.value == direct.value
    assert stored.pairwise == direct.pairwise
    assert stored.mean_scores == direct.mean_scores


class TestSlicing:
    def test_sliced_scores_equal_direct_scoring_bit_for_bit(self, population, function):
        store = ScoreStore(population, function)
        result = quantify(population, function, min_partition_size=5, store=store)
        for partition in result.partitioning:
            direct = function.score_dataset(partition.members)
            sliced = store.scores(partition)
            assert sliced.dtype == direct.dtype
            assert np.array_equal(sliced, direct)
            # Bit-for-bit: byte-level equality, not just numeric closeness.
            assert direct.tobytes() == np.asarray(sliced).tobytes()

    def test_root_partition_scores_are_the_full_vector(self, population, function):
        store = ScoreStore(population, function)
        root = root_partition(population)
        assert store.scores(root) is store.vector()

    def test_partition_scores_are_not_kept_alive(self, population, function):
        # A leaf's scores are read once (its mean, its statistics box); the
        # store slices them fresh instead of holding every leaf's copy.
        store = ScoreStore(population, function)
        result = quantify(population, function, min_partition_size=5, store=store)
        leaf = result.partitioning.partitions[0]
        first = store.scores(leaf)
        assert not first.flags.writeable
        alive = weakref.ref(first)
        again = store.scores(leaf)
        assert again is not first and again.tobytes() == first.tobytes()
        del first
        assert alive() is None

    def test_vector_is_computed_exactly_once(self, population, function):
        counting = CountingFunction(function)
        store = ScoreStore(population, counting)
        result = quantify(population, counting, min_partition_size=5, store=store)
        unfairness_breakdown(result.partitioning, counting, store=store)
        assert counting.calls == 1
        assert counting.rows == len(population)
        assert store.stats.scoring_passes == 1

    def test_statistics_match_partition_statistics(self, population, function):
        store = ScoreStore(population, function)
        partition = root_partition(population)
        assert store.statistics(partition) == reference_statistics(partition, function)

    def test_shared_store_never_reuses_entries_across_datasets(self, population, function):
        # Partitions of different datasets can share a constraints key (every
        # root has key ()); a shared store must not serve one dataset's
        # memoised scores for the other.
        store = ScoreStore(population, function)
        full = quantify(population, function, min_partition_size=5, store=store)
        subset = population.filter(Equals("Gender", "Female"), name="women")
        shared = quantify(subset, function, min_partition_size=5, store=store)
        private = quantify(subset, function, min_partition_size=5)
        assert shared.summary() == private.summary()
        assert shared.unfairness == private.unfairness
        # And the original dataset's results are unaffected by the interleaving.
        again = quantify(population, function, min_partition_size=5, store=store)
        assert again.summary() == full.summary()


class TestRefusal:
    """Mismatched stores and foreign partitions raise instead of re-scoring."""

    def test_store_for_another_function_raises(self, population, function):
        other = LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="other")
        store = ScoreStore(population, function)
        result = quantify(population, function, min_partition_size=5, store=store)
        assert not store.serves(other)
        with pytest.raises(ScoringError):
            quantify(population, other, min_partition_size=5, store=store)
        with pytest.raises(ScoringError):
            unfairness(result.partitioning, other, store=store)
        with pytest.raises(ScoringError):
            unfairness_breakdown(result.partitioning, other, store=store)

    def test_foreign_partition_raises_and_memoises_nothing(self, population, function):
        store = ScoreStore(population, function)
        foreign = root_partition(synthetic_population(size=40, seed=99))
        attr = population.schema.require_protected("Gender")
        for ask in (
            lambda: store.scores(foreign),
            lambda: store.histogram(foreign, Binning.unit()),
            lambda: store.candidate_split(foreign, attr, Binning.unit()),
            lambda: split_partition(foreign, "Gender", store=store),
        ):
            with pytest.raises(PartitioningError):
                ask()
        assert len(store) == 0
        assert store.stats.scoring_passes == 0
        assert store.stats.sliced_partitions == 0
        assert store.stats.histogram_requests == 0

    def test_leaf_of_a_rebuilt_twin_raises_on_a_private_store(self, population, function):
        # Same content, new row objects: a store cannot prove the leaf's
        # members are its own rows.
        twin = Dataset.from_records(
            population.schema, population.to_records(), name="twin", uid_field="uid"
        )
        leaf = quantify(population, function, min_partition_size=5).partitioning[0]
        store = ScoreStore(twin, function)
        with pytest.raises(PartitioningError):
            store.scores(leaf)
        assert len(store) == 0
        # Once adopted (the pool proved the twin by fingerprint), the leaf
        # maps through its provenance to the twin.
        store.adopt(population, function)
        assert np.array_equal(store.scores(leaf), function.score_dataset(leaf.members))

    def test_permuted_twin_gets_its_own_pool_store(self, population, function):
        # The dataset fingerprint is row-order sensitive: a shuffled twin is
        # another pool key, and the first store never maps its rows.
        twin = Dataset.from_records(
            population.schema, population.to_records()[::-1], name="twin", uid_field="uid"
        )
        service = FairnessService()
        store = service.score_store(population, function)
        assert service.score_store(twin, function) is not store
        with pytest.raises(PartitioningError):
            store.scores(root_partition(twin))
        own_root = root_partition(population)
        assert np.array_equal(store.scores(own_root), function.score_dataset(population))
        for plain, stored in zip(
            split_partition(own_root, "Gender"),
            split_partition(own_root, "Gender", store=store),
        ):
            assert stored.members.uids == plain.members.uids

    def test_twin_function_is_served_once_adopted(self, population, function):
        twin = LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="renamed-twin")
        store = ScoreStore(population, function)
        # A store proves no content equality itself.
        assert not store.serves(twin)
        with pytest.raises(ScoringError):
            quantify(population, twin, min_partition_size=5, store=store)
        store.adopt(population, twin)
        assert store.serves(twin)
        result = quantify(population, twin, min_partition_size=5, store=store)
        reference = reference_quantify(population, twin, min_partition_size=5)
        assert_matches_reference(result, reference, twin, store=store)
        assert store.stats.scoring_passes == 1


class TestSplit:
    def test_store_split_matches_group_by_split(self, population, function):
        store = ScoreStore(population, function)
        parent = root_partition(population)
        for attribute in population.schema.protected_names:
            plain = split_partition(parent, attribute)
            stored = split_partition(parent, attribute, store=store)
            assert [c.label for c in stored] == [c.label for c in plain]
            assert [c.size for c in stored] == [c.size for c in plain]
            for fast, slow in zip(stored, plain):
                assert fast.members.uids == slow.members.uids
                assert fast.members.name == slow.members.name

    def test_candidate_split_histograms_match_materialized(self, population, function):
        store = ScoreStore(population, function)
        parent = root_partition(population)
        binning = Binning.unit()
        for attribute in population.schema.protected_names:
            attr = population.schema.require_protected(attribute)
            candidate = store.candidate_split(parent, attr, binning)
            assert candidate is not None
            values, sizes, counts = candidate
            children = split_partition(parent, attribute)
            assert list(values) == [c.constraint_value(attribute) for c in children]
            assert list(sizes) == [c.size for c in children]
            assert counts.dtype == np.int64 and not counts.flags.writeable
            assert counts.shape == (len(children), binning.bins)
            for row, child in zip(counts, children):
                direct = build_histogram(function.score_dataset(child.members), binning=binning)
                assert tuple(row.tolist()) == direct.counts


class NaNEveryScorer(LinearScoringFunction):
    """A linear scorer that answers NaN for every ``nan_every``-th uid (row-pure)."""

    nan_every = 0

    def score_dataset(self, dataset):
        scores = np.array(LinearScoringFunction.score_dataset(self, dataset))
        if self.nan_every:
            numbers = np.array([int(uid.lstrip("w")) for uid in dataset.uids])
            scores[numbers % self.nan_every == 0] = float("nan")
        return scores


_CUT_SCHEMA = Schema((
    protected("Gender", domain=("F", "M", "X")),
    protected("Code"),
    protected("Band"),
    observed("Skill"),
))


@st.composite
def cut_populations(draw):
    """A population whose "Code" column may hold more than 256 distinct values."""
    size = draw(st.integers(min_value=1, max_value=700))
    codes = draw(st.sampled_from([2, 40, 1000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = {
        "Gender": rng.choice(["F", "M", "X"], size).tolist(),
        "Code": rng.integers(0, codes, size).tolist(),
        "Band": rng.choice(["lo", "mid", "hi"], size, p=[0.6, 0.3, 0.1]).tolist(),
        "Skill": rng.random(size).round(3).tolist(),
    }
    uids = [f"w{position + 1}" for position in range(size)]
    population = Dataset.from_columns(_CUT_SCHEMA, columns, name="cut", uids=uids)
    # The population's rows in a shuffled order: a view whose indices in the
    # store's dataset do not ascend.
    shuffled = DatasetView(population, rng.permutation(size), name="shuffled")
    nan_every = draw(st.sampled_from([0, 3]))
    return population, shuffled, nan_every


def _store_rows(store, members):
    """Row indices of ``members`` in the store's dataset, mapped by uid."""
    position = {uid: row for row, uid in enumerate(store.dataset.uids)}
    return np.array([position[uid] for uid in members.uids], dtype=np.intp)


def _assert_cut_matches(store, partition, attribute, scorer):
    """Store split == group-by split == the per-child boolean mask cut."""
    attr = _CUT_SCHEMA.require_protected(attribute)
    stored = store.split(partition, attr)
    plain = split_partition(partition, attribute)
    assert [c.constraints for c in stored] == [c.constraints for c in plain]
    rows = _store_rows(store, partition.members)
    codes, _, encode = store.dataset.codes(attribute)
    for fast, slow in zip(stored, plain):
        masked = rows[codes[rows] == encode[fast.constraint_value(attribute)]]
        cut = fast.members.index
        assert cut.dtype == masked.dtype
        assert np.array_equal(cut, masked)
        assert np.array_equal(cut, _store_rows(store, slow.members))
        assert not cut.flags.writeable
        assert fast.members.name == slow.members.name
        assert np.array_equal(
            store.scores(fast), scorer.score_dataset(slow.members), equal_nan=True
        )
    for binning in (Binning.unit(), Binning.unit(bins=7)):
        values, sizes, counts = store.candidate_split(partition, attr, binning)
        assert list(values) == [c.constraint_value(attribute) for c in plain]
        assert list(sizes) == [c.size for c in plain]
        assert counts.shape == (len(plain), binning.bins)
        for row, child in zip(counts, plain):
            direct = build_histogram(scorer.score_dataset(child.members), binning=binning)
            assert tuple(row.tolist()) == direct.counts
    return stored


class TestSplitCut:
    """Children cut from one stable argsort equal the group-by and mask cuts."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cut_populations())
    def test_cut_matches_group_by_and_mask(self, drawn):
        population, shuffled, nan_every = drawn
        scorer = NaNEveryScorer({"Skill": 1.0}, name="cut-f")
        scorer.nan_every = nan_every
        store = ScoreStore(population, scorer)
        for attribute in _CUT_SCHEMA.protected_names:
            _assert_cut_matches(store, root_partition(population), attribute, scorer)
        # View partitions: a child of the root, and the root of a filtered view.
        for child in _assert_cut_matches(store, root_partition(population), "Band", scorer):
            _assert_cut_matches(store, child, "Code", scorer)
        kept = population.filter(~Equals("Gender", "X"))
        if len(kept):
            _assert_cut_matches(store, root_partition(kept), "Code", scorer)
        # Non-ascending indices: the root of the shuffled view, and its children.
        for attribute in _CUT_SCHEMA.protected_names:
            for child in _assert_cut_matches(store, root_partition(shuffled), attribute, scorer):
                other = "Code" if attribute != "Code" else "Gender"
                _assert_cut_matches(store, child, other, scorer)

    def test_wide_column_takes_the_sixteen_bit_path(self):
        # More than 256 distinct codes: the argsort key is narrowed to uint16.
        rows = 600
        columns = {
            "Gender": ["F", "M", "X"] * (rows // 3),
            "Code": [(position * 7919) % 500 for position in range(rows)],
            "Band": ["lo", "hi"] * (rows // 2),
            "Skill": [(position % 10) / 10 for position in range(rows)],
        }
        population = Dataset.from_columns(_CUT_SCHEMA, columns, name="wide")
        assert len(population.codes("Code")[1]) > 256
        scorer = NaNEveryScorer({"Skill": 1.0}, name="wide-f")
        store = ScoreStore(population, scorer)
        children = _assert_cut_matches(store, root_partition(population), "Code", scorer)
        assert len(children) == 500


class TestHistogramMemo:
    def test_hit_miss_accounting(self, population, function):
        store = ScoreStore(population, function)
        partition = root_partition(population)
        binning = Binning.unit()
        assert store.stats.histogram_requests == 0
        first = store.histogram(partition, binning)
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (0, 1)
        second = store.histogram(partition, binning)
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (1, 1)
        assert second == first
        # The memo returns the same read-only count row, which histogram() wraps.
        row = store._counts(partition, binning)
        assert row is store._counts(partition, binning)
        assert row.dtype == np.int64 and not row.flags.writeable
        assert tuple(row.tolist()) == first.counts
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (3, 1)
        store.histogram(partition, Binning.unit(bins=10))  # different binning: miss
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (3, 2)
        assert stats.histogram_hit_rate == pytest.approx(3 / 5)

    def test_histograms_match_build_histogram(self, population, function):
        store = ScoreStore(population, function)
        partitioning = Partitioning.by_attributes(population, ["Gender"])
        for binning in (Binning.unit(), Binning.unit(bins=10), Binning(0.2, 0.9, 7)):
            for partition in partitioning:
                fast = store.histogram(partition, binning)
                slow = build_histogram(
                    function.score_dataset(partition.members), binning=binning
                )
                assert fast.counts == slow.counts

    def test_eviction_bound_respected(self, population, function, monkeypatch):
        monkeypatch.setattr(scorestore, "MAX_PARTITIONS", 4)
        store = ScoreStore(population, function)
        partitioning = Partitioning.by_attributes(population, ["Gender", "Language"])
        assert len(partitioning) > 4
        for partition in partitioning:
            store.histogram(partition, Binning.unit())
        assert len(store) <= 4
        assert store.stats.evictions >= len(partitioning) - 4

    def test_nan_scores_match_build_histogram(self, population):
        # np.histogram silently drops NaN; the store's bincount path must too.
        class NaNScorer(LinearScoringFunction):
            # Row-pure: whether an individual scores NaN depends only on the
            # individual, so direct and sliced scoring agree.
            def score_dataset(self, dataset):
                scores = np.array(LinearScoringFunction.score_dataset(self, dataset))
                for row, uid in enumerate(dataset.uids):
                    if int(uid.lstrip("w")) % 7 == 0:
                        scores[row] = float("nan")
                return scores

        scorer = NaNScorer({"Language Test": 0.5, "Rating": 0.5}, name="nan-f")
        store = ScoreStore(population, scorer)
        parent = root_partition(population)
        for binning in (Binning.unit(), Binning.unit(bins=9)):
            direct = build_histogram(scorer.score_dataset(population), binning=binning)
            assert store.histogram(parent, binning).counts == direct.counts
            for attribute in population.schema.protected_names:
                attr = population.schema.require_protected(attribute)
                candidate = store.candidate_split(parent, attr, binning)
                assert candidate is not None
                values, sizes, counts = candidate
                children = split_partition(parent, attribute)
                # Sizes count members (NaN-scored included)...
                assert list(sizes) == [c.size for c in children]
                # ...while count rows drop NaN, like build_histogram.
                for row, child in zip(counts, children):
                    direct = build_histogram(
                        scorer.score_dataset(child.members), binning=binning
                    )
                    assert tuple(row.tolist()) == direct.counts


class TestQuantifyRegression:
    def test_same_tree_same_splits_fewer_scorings(self, population, function):
        counting_seed = CountingFunction(function)
        counting_store = CountingFunction(function)
        seed_result = reference_quantify(population, counting_seed, min_partition_size=5)
        store_result = quantify(population, counting_store, min_partition_size=5)
        # Identical search outcome...
        assert store_result.summary() == seed_result.summary()
        assert store_result.splits_evaluated == seed_result.splits_evaluated
        assert store_result.unfairness == seed_result.unfairness
        assert store_result.partitioning.labels == seed_result.partitioning.labels
        assert store_result.tree.summary() == seed_result.tree.summary()
        # ...with strictly less scoring work: one pass over the population.
        assert counting_store.calls == 1
        assert counting_store.rows == len(population)
        assert counting_seed.rows > counting_store.rows

    def test_breakdown_identical_with_store(self, population, function):
        result = quantify(population, function, min_partition_size=5)
        store = ScoreStore(population, function)
        plain = reference_breakdown(result.partitioning, function)
        stored = unfairness_breakdown(result.partitioning, function, store=store)
        assert stored.value == plain.value
        assert stored.pairwise == plain.pairwise
        assert stored.mean_scores == plain.mean_scores

    def test_unfairness_identical_with_store(self, population, function):
        partitioning = Partitioning.by_attributes(population, ["Gender", "Language"])
        store = ScoreStore(population, function)
        assert unfairness(partitioning, function, store=store) == reference_unfairness(
            partitioning, function
        )

    def test_works_across_formulations(self, population, function):
        store = ScoreStore(population, function)
        for formulation in (
            Formulation(),
            Formulation.from_names(aggregation="maximum"),
            Formulation.from_names(objective="least_unfair"),
            Formulation.from_names(bins=10),
        ):
            with_store = quantify(
                population, function, formulation, min_partition_size=5, store=store
            )
            reference = reference_quantify(
                population, function, formulation, min_partition_size=5
            )
            assert_matches_reference(with_store, reference, function, formulation, store)
        assert store.stats.scoring_passes == 1


class TestBinningResolution:
    def test_explicit_matching_binning_is_accepted(self):
        formulation = Formulation()
        assert resolve_binning(formulation, Binning.unit()) == Binning.unit()

    def test_mismatched_binning_raises(self, population, function):
        formulation = Formulation()  # unit binning, 5 bins
        with pytest.raises(FormulationError):
            resolve_binning(formulation, Binning.unit(bins=7))
        partitioning = Partitioning.single(population)
        with pytest.raises(FormulationError):
            unfairness(partitioning, function, formulation, binning=Binning(0.0, 2.0, 5))
        with pytest.raises(FormulationError):
            unfairness_breakdown(
                partitioning,
                function,
                formulation,
                binning=Binning.unit(bins=3),
            )

    def test_quantify_and_breakdown_share_one_default(self, population, function):
        formulation = Formulation.from_names(bins=9)
        result = quantify(population, function, formulation, min_partition_size=5)
        breakdown = unfairness_breakdown(result.partitioning, function, formulation)
        assert breakdown.value == result.unfairness


class TestThreadSafety:
    def test_concurrent_histogram_requests_are_consistent(self, population, function):
        store = ScoreStore(population, function)
        partitioning = Partitioning.by_attributes(population, ["Gender", "Language"])
        errors = []

        def worker():
            try:
                for _ in range(20):
                    for partition in partitioning:
                        histogram = store.histogram(partition, Binning.unit())
                        direct = build_histogram(
                            function.score_dataset(partition.members),
                            binning=Binning.unit(),
                        )
                        if histogram.counts != direct.counts:  # pragma: no cover
                            errors.append((partition.label, histogram.counts))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats.scoring_passes == 1

    def test_batch_executor_shares_one_store(self):
        service = FairnessService()
        service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        service.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        requests = [
            QuantifyRequest(
                dataset="pop",
                function="balanced",
                aggregation=aggregation,
                min_partition_size=5,
            )
            for aggregation in ("average", "maximum", "minimum", "variance")
        ] * 2
        serial = BatchExecutor(service).run_serial(requests)
        fresh = FairnessService()
        fresh.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        fresh.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        batched = BatchExecutor(fresh).run(requests)
        assert [r.canonical() for r in batched] == [r.canonical() for r in serial]
        # All four formulations share one (dataset, function) scoring pass.
        assert fresh.store_stats.scoring_passes == 1
        assert fresh.store_stats.stores == 1


class TestServicePool:
    def _service(self, **kwargs) -> FairnessService:
        service = FairnessService(**kwargs)
        service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        service.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        return service

    def test_store_reuse_across_requests(self):
        service = self._service()
        service.execute(
            QuantifyRequest(dataset="pop", function="balanced", min_partition_size=5)
        )
        service.execute(
            QuantifyRequest(
                dataset="pop",
                function="balanced",
                aggregation="maximum",
                min_partition_size=5,
            )
        )
        stats = service.store_stats
        assert stats.stores == 1
        assert stats.hits >= 1
        assert stats.scoring_passes == 1

    def test_content_identical_dataset_shares_store(self):
        service = self._service()
        dataset = service.dataset("pop")
        rebuilt = Dataset.from_records(
            dataset.schema, dataset.to_records(), name="copy", uid_field="uid"
        )
        function = service.function("balanced")
        first = service.score_store(dataset, function)
        second = service.score_store(rebuilt, function)
        assert second is first
        # The adopted copy is the store's root: no re-scoring.
        result = quantify(rebuilt, function, min_partition_size=5, store=second)
        reference = reference_quantify(rebuilt, function, min_partition_size=5)
        assert_matches_reference(result, reference, function, store=second)
        assert second.stats.scoring_passes == 1

    def test_pool_is_bounded(self):
        service = self._service(max_stores=2)
        dataset = service.dataset("pop")
        for index in range(4):
            function = LinearScoringFunction(
                {"Language Test": 0.1 + index * 0.2, "Rating": 0.5}, name=f"f{index}"
            )
            service.score_store(dataset, function)
        assert service.store_stats.stores == 2
        assert service.store_stats.evictions == 2

    def test_pool_counters_equal_the_live_stores_stats_after_evictions(self):
        service = self._service(max_stores=2)
        for index in range(5):
            service.register_function(
                LinearScoringFunction(
                    {"Language Test": 0.1 + index * 0.2, "Rating": 0.5}, name=f"f{index}"
                )
            )
            service.execute(
                QuantifyRequest(dataset="pop", function=f"f{index}", min_partition_size=5)
            )
            service.execute(
                QuantifyRequest(
                    dataset="pop", function=f"f{index // 2}", aggregation="maximum",
                    min_partition_size=5,
                )
            )
        stats = service.store_stats
        live = [store.stats for store in service._store_pool.values()]
        assert stats.evictions >= 3 and stats.stores == len(live) == 2
        assert stats.scoring_passes == sum(s.scoring_passes for s in live) == 2
        assert stats.sliced_partitions == sum(s.sliced_partitions for s in live)
        assert stats.histogram_hits == sum(s.histogram_hits for s in live)
        assert stats.histogram_misses == sum(s.histogram_misses for s in live)
        assert stats.histogram_hits > 0 and stats.histogram_misses > 0

    def test_rejects_non_positive_max_stores(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            FairnessService(max_stores=0)

    def test_store_stats_are_read_from_the_service_not_the_result(self):
        service = self._service()
        result = service.execute(
            QuantifyRequest(dataset="pop", function="balanced", min_partition_size=5)
        )
        assert service.store_stats.scoring_passes == 1
        assert "hit_rate" in service.store_stats.as_dict()
        # The envelope carries per-request facts only.
        assert "store_stats" not in result.to_json()
        assert b"store_stats" not in result.encode()

    def test_audit_fanout_shares_scoring_passes(self):
        service = FairnessService()
        marketplace = crowdsourcing_marketplace(size=150, seed=7)
        service.register_marketplace(marketplace)
        result = service.execute(AuditRequest(marketplace=marketplace.name, min_partition_size=5))
        assert len(result.payload["jobs"]) == len(marketplace)
        stats = service.store_stats
        # One store (and one scoring pass) per distinct (candidates, function)
        # pair — never more than one pass per audited job.
        assert stats.scoring_passes <= len(marketplace)


class TableScorer(LinearScoringFunction):
    """Scores each row from a fixed ``{uid: score}`` table (row-pure)."""

    table: dict = {}

    def score_dataset(self, dataset):
        return np.array([self.table[uid] for uid in dataset.uids], dtype=float)


def _table_population(scores, name="table"):
    """A ``_CUT_SCHEMA`` population of ``len(scores)`` rows plus its scorer."""
    size = len(scores)
    rng = np.random.default_rng(size)
    columns = {
        "Gender": rng.choice(["F", "M", "X"], size).tolist(),
        "Code": rng.integers(0, 4, size).tolist(),
        "Band": rng.choice(["lo", "mid", "hi"], size).tolist(),
        "Skill": rng.random(size).round(3).tolist(),
    }
    uids = [f"w{position + 1}" for position in range(size)]
    population = Dataset.from_columns(_CUT_SCHEMA, columns, name=name, uids=uids)
    scorer = TableScorer({"Skill": 1.0}, name=f"{name}-f")
    scorer.table = dict(zip(uids, (float(score) for score in scores)))
    return population, scorer


def _edge_scores(binning, seed=0):
    """Scores on every edge and both of its float neighbours, plus the hostile cases."""
    edges = binning.edges
    special = [np.nan, np.inf, -np.inf, edges[0] - 1.0, edges[-1] + 1.0, np.nan]
    rng = np.random.default_rng(seed)
    spread = rng.uniform(edges[0] - 0.5, edges[-1] + 0.5, 200)
    return np.concatenate([
        special,
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        spread,
    ])


_KERNEL_BINNINGS = [
    factory(bins)
    for bins in (1, 2, 5, 7, 100, 255, 256)
    for factory in (
        Binning.unit,
        lambda bins: Binning(-3.0, 2.0, bins=bins),
        # Degenerate: low == high widens to one unit around the value.
        lambda bins: Binning(0.5, 0.5, bins=bins),
        # A one-ulp range: most edges repeat.
        lambda bins: Binning(1.0, float(np.nextafter(1.0, 2.0)), bins=bins),
    )
]


class TestBinCodeKernel:
    """Counting interior edges equals the searchsorted binning, bin for bin."""

    @pytest.mark.parametrize("binning", _KERNEL_BINNINGS, ids=str)
    def test_codes_and_histograms_match_the_references(self, binning):
        scores = _edge_scores(binning)
        population, scorer = _table_population(scores)
        store = ScoreStore(population, scorer)
        codes = store._bin_codes_for(binning)
        expected = reference_bin_codes(store.vector(), binning)
        # Narrow in memory: uint8, uint16 once the NaN sentinel (bins) needs it.
        assert codes.dtype == (np.uint8 if binning.bins < 256 else np.uint16)
        assert np.array_equal(codes, expected)
        assert not codes.flags.writeable
        root = root_partition(population)
        direct = build_histogram(scores, binning=binning)
        assert store.histogram(root, binning).counts == direct.counts
        # The non-root path gathers the same codes through the child's indices.
        for child in store.split(root, _CUT_SCHEMA.require_protected("Band")):
            child_scores = scorer.score_dataset(child.members)
            direct = build_histogram(child_scores, binning=binning)
            assert store.histogram(child, binning).counts == direct.counts


class TestBatchedCdfs:
    """``cdf_matrix`` rows equal the per-histogram CDF of the same counts, bit for bit."""

    @pytest.mark.parametrize("bins", [1, 2, 5, 256])
    def test_matrix_rows_equal_fresh_histograms(self, bins):
        rng = np.random.default_rng(bins)
        population, scorer = _table_population(rng.random(900))
        genders = population.codes("Gender")
        # Every "X" row scores NaN: that child's histogram is empty (uniform).
        x_rows = genders[0] == genders[2]["X"]
        for uid, is_x in zip(population.uids, x_rows.tolist()):
            if is_x:
                scorer.table[uid] = float("nan")
        store = ScoreStore(population, scorer)
        binning = Binning.unit(bins)
        root = root_partition(population)
        band = store.split(root, _CUT_SCHEMA.require_protected("Band"))
        checked_empty = False
        for partition in (root, band[0]):
            for attribute in _CUT_SCHEMA.protected_names:
                attr = _CUT_SCHEMA.require_protected(attribute)
                values, _, counts = store.candidate_split(partition, attr, binning)
                matrix = cdf_matrix(counts)
                assert matrix.shape == (len(counts), bins - 1)
                for value, counts_row, row in zip(values, counts, matrix):
                    alone = normalized(counts_row.tolist())
                    assert row.tobytes() == np.cumsum(alone)[:-1].tobytes()
                    if attribute == "Gender" and value == "X":
                        assert not counts_row.any()
                        assert np.array_equal(alone, np.full(bins, 1.0 / bins))
                        checked_empty = True
        assert checked_empty


class TestRootGrouping:
    """The root split slices the dataset's own cached grouping."""

    def test_stores_over_one_dataset_share_the_grouping(self, population):
        first = LinearScoringFunction({"Language Test": 0.2, "Rating": 0.8}, name="g1")
        second = LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="g2")
        root = root_partition(population)
        for attribute in population.schema.protected_names:
            attr = population.schema.require_protected(attribute)
            order, counts = population.grouping(attribute)
            assert not order.flags.writeable and not counts.flags.writeable
            codes, _, encode = population.codes(attribute)
            children = [
                ScoreStore(population, function).split(root, attr)
                for function in (first, second)
            ]
            for left, right in zip(*children):
                assert left.members.index.base is order
                assert right.members.index.base is order
                code = encode[left.constraint_value(attribute)]
                assert np.array_equal(left.members.index, np.flatnonzero(codes == code))
                assert np.array_equal(right.members.index, left.members.index)

    def test_shuffled_view_never_reuses_another_datasets_grouping(self):
        population, scorer = _table_population(np.linspace(0.0, 1.0, 300), name="base")
        order = np.random.default_rng(3).permutation(len(population))
        shuffled = DatasetView(population, order, name="shuffled")
        store = ScoreStore(population, scorer)
        for attribute in _CUT_SCHEMA.protected_names:
            attr = _CUT_SCHEMA.require_protected(attribute)
            assert shuffled.grouping(attribute)[0] is not population.grouping(attribute)[0]
            for child in store.split(root_partition(shuffled), attr):
                index = child.members.index
                assert not np.shares_memory(index, population.grouping(attribute)[0])
                assert not np.shares_memory(index, shuffled.grouping(attribute)[0])
                assert np.array_equal(index, _store_rows(store, child.members))

    def test_non_root_split_is_cut_from_its_own_indices(self, population, function):
        store = ScoreStore(population, function)
        schema = population.schema
        names = schema.protected_names
        for parent in store.split(root_partition(population), schema.require_protected(names[0])):
            rows = parent.members.index
            codes, _, encode = population.codes(names[1])
            for child in store.split(parent, schema.require_protected(names[1])):
                index = child.members.index
                code = encode[child.constraint_value(names[1])]
                assert np.array_equal(index, rows[codes[rows] == code])
                assert not np.shares_memory(index, population.grouping(names[1])[0])


def _triples(candidates):
    """A candidate split as plain values: values, sizes, count dtype, shape and rows."""
    values, sizes, counts = candidates
    return values, sizes, counts.dtype, counts.shape, counts.tolist()


@st.composite
def packed_cases(draw):
    """A population, its hostile scorer and a bin count for the packed root."""
    size = draw(st.integers(min_value=1, max_value=700))
    # "Code" spans one value up to more than 256 of them.
    code_range = draw(st.sampled_from([1, 2, 40, 1000]))
    bins = draw(st.sampled_from([1, 5, 256]))
    nan_every = draw(st.sampled_from([0, 3]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = {
        "Gender": rng.choice(["F", "M", "X"], size).tolist(),
        "Code": rng.integers(0, code_range, size).tolist(),
        "Band": rng.choice(["lo", "hi"], size).tolist(),
        "Skill": rng.random(size).round(3).tolist(),
    }
    uids = [f"w{position + 1}" for position in range(size)]
    population = Dataset.from_columns(_CUT_SCHEMA, columns, name="packed", uids=uids)
    # Scores outside the unit binning on both sides, and NaN.
    scores = rng.uniform(-0.5, 1.5, size)
    if nan_every:
        scores[::nan_every] = np.nan
    scorer = TableScorer({"Skill": 1.0}, name="packed-f")
    scorer.table = dict(zip(uids, scores.tolist()))
    # Views of the population: all rows shuffled, and a subset.
    views = [
        DatasetView(population, rows, name="view")
        for rows in (rng.permutation(size), np.flatnonzero(rng.random(size) < 0.5))
    ]
    return population, scorer, Binning.unit(bins), views


class TestPackedRootCandidates:
    """Root candidates counted per pack equal one bincount per attribute."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(packed_cases())
    def test_packed_root_equals_the_per_attribute_oracle(self, case):
        population, scorer, binning, views = case
        names = _CUT_SCHEMA.protected_names
        stride = binning.bins + 1

        def oracle(dataset, name, rows=None):
            codes = reference_bin_codes(np.asarray(scorer.score_dataset(dataset)), binning)
            attr = _CUT_SCHEMA.require_protected(name)
            return _triples(reference_candidate_split(dataset, attr, codes, binning, rows))

        # A store fed views of its dataset: their roots gather, and no
        # dataset's packs are built for them.
        gathering = ScoreStore(population, scorer)
        for view in views:
            if len(view):
                for name in names:
                    attr = _CUT_SCHEMA.require_protected(name)
                    got = gathering.candidate_split(root_partition(view), attr, binning)
                    assert _triples(got) == oracle(view, name)
        for dataset in [population, *views]:
            assert "_packed_cache" not in vars(dataset)

        # The pack rule: ascending cardinality (name breaks ties), greedy,
        # and a pack's cells x stride never exceed the rows.
        packs = _root_packs(population, stride)
        cardinality = {name: len(population.codes(name)[1]) for name in names}
        flat = [name for pack in packs for name in pack]
        assert flat == sorted(names, key=lambda name: (cardinality[name], name))
        cells = [math.prod(cardinality[name] for name in pack) * stride for pack in packs]
        for pack, pack_cells in zip(packs, cells):
            assert len(pack) == 1 or pack_cells <= len(population)
        for pack_cells, following in zip(cells, packs[1:]):
            assert pack_cells * cardinality[following[0]] > len(population)
        for name in names:
            if cardinality[name] * stride > len(population):
                assert (name,) in packs

        # The packed root: the first attribute of a pack counts it, the rest
        # are memo hits, and every attribute equals the oracle.
        store = ScoreStore(population, scorer)
        root = root_partition(population)
        for pack in packs:
            for position, name in enumerate(pack):
                before = store.stats
                got = store.candidate_split(root, _CUT_SCHEMA.require_protected(name), binning)
                after = store.stats
                if position:
                    assert after.histogram_misses == before.histogram_misses
                    assert after.histogram_hits == before.histogram_hits + len(got[2])
                else:
                    assert after.histogram_misses == before.histogram_misses + len(got[2])
                assert _triples(got) == oracle(population, name)

        # Children seeded from a pack's memo: the winner was never requested.
        for pack in packs:
            if len(pack) < 2:
                continue
            seeded = ScoreStore(population, scorer)
            first, second = (_CUT_SCHEMA.require_protected(name) for name in pack[:2])
            seeded.candidate_split(root, first, binning)
            for child in seeded.split(root, second):
                before = seeded.stats.histogram_hits
                histogram = seeded.histogram(child, binning)
                assert seeded.stats.histogram_hits == before + 1
                direct = build_histogram(
                    np.asarray(scorer.score_dataset(child.members)), binning=binning
                )
                assert histogram.counts == direct.counts
                # Below the root, the gather path.
                got = seeded.candidate_split(child, first, binning)
                assert _triples(got) == oracle(population, first.name, child.members.index)

    @pytest.mark.parametrize("attributes", [("Code",), ("Band", "Gender")])
    @pytest.mark.parametrize("bins", [1, 5, 256])
    def test_restricted_search_matches_the_reference(self, attributes, bins):
        rng = np.random.default_rng(bins)
        scores = rng.uniform(-0.5, 1.5, 600)
        scores[::7] = np.nan
        population, scorer = _table_population(scores)
        formulation = Formulation(bins=bins)
        result = quantify(population, scorer, formulation, attributes=attributes)
        reference = reference_quantify(population, scorer, formulation, attributes=attributes)
        assert result.summary() == reference.summary()
        assert result.unfairness == reference.unfairness
        assert result.partitioning.labels == reference.partitioning.labels
        assert result.partitioning.sizes == reference.partitioning.sizes


@st.composite
def favored_cases(draw):
    """A population, its scorer and a partitioning: tied means, one partition, NaN."""
    size = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Few distinct scores make tied means likely; one score ties every mean.
    palette = draw(st.sampled_from([(0.5,), (0.0, 1.0), (0.0, 0.25, 0.5, 1.0)]))
    scores = rng.choice(palette, size)
    nan_every = draw(st.sampled_from([0, 1, 3, 50]))
    if nan_every:
        scores[::nan_every] = np.nan
    population, scorer = _table_population(scores, name="favored")
    root = root_partition(population)
    shape = draw(st.sampled_from(["root", "split", "split+empty", "quantify"]))
    if shape == "root":
        partitions = [root]
    elif shape == "quantify":
        minimum = draw(st.integers(min_value=1, max_value=20))
        partitions = list(quantify(population, scorer, min_partition_size=minimum).partitioning)
    else:
        partitions = list(split_partition(root, draw(st.sampled_from(_CUT_SCHEMA.protected_names))))
        if shape == "split+empty":
            # An empty leaf's mean is 0.0, placed anywhere in the label order.
            empty = Partition(
                constraints=(("Gender", "none"),), members=DatasetView(population, [], "empty")
            )
            partitions.insert(draw(st.integers(min_value=0, max_value=len(partitions))), empty)
    return population, scorer, Partitioning(population, partitions, validate=False)


class TestFavoredGroups:
    """``favored_groups`` names the breakdown's favoured labels from leaf means alone."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(favored_cases())
    def test_matches_both_breakdowns(self, case):
        population, scorer, partitioning = case
        store = ScoreStore(population, scorer)
        got = favored_groups(partitioning, scorer, store=store)
        stored = unfairness_breakdown(partitioning, scorer, store=store)
        direct = reference_breakdown(partitioning, scorer)
        assert got == (stored.most_favored, stored.least_favored)
        assert got == (direct.most_favored, direct.least_favored)
        assert favored_groups(partitioning, scorer) == got

    def test_ties_go_to_the_first_label(self):
        population, scorer = _table_population([0.5] * 30, name="tied")
        children = split_partition(root_partition(population), "Band")
        partitioning = Partitioning(population, children)
        first = partitioning.labels[0]
        assert favored_groups(partitioning, scorer) == (first, first)

    def test_reads_leaf_scores_only(self, population, function):
        counting = CountingFunction(function)
        store = ScoreStore(population, counting)
        result = quantify(population, counting, min_partition_size=5, store=store)
        before = store.stats
        favored_groups(result.partitioning, counting, store=store)
        after = store.stats
        assert counting.calls == 1
        # No histogram is built or looked up, so no pairwise table either.
        assert after.histogram_requests == before.histogram_requests

    def test_refuses_a_store_for_another_function(self, population, function):
        other = LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="other")
        store = ScoreStore(population, function)
        with pytest.raises(ScoringError):
            favored_groups(Partitioning(population, [root_partition(population)]), other,
                           store=store)


@st.composite
def search_cases(draw):
    """A population, its scorer and a formulation for a whole greedy search."""
    size = draw(st.integers(min_value=2, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scores = rng.uniform(-0.2, 1.2, size)
    nan_every = draw(st.sampled_from([0, 5, 1]))
    if nan_every:
        scores[::nan_every] = np.nan  # every 1: all-empty histograms
    formulation = Formulation.from_names(
        objective=draw(st.sampled_from(["most_unfair", "least_unfair"])),
        aggregation=draw(st.sampled_from(["average", "maximum", "minimum", "variance"])),
        distance=draw(st.sampled_from(available_distances())),
        bins=draw(st.integers(min_value=1, max_value=MAX_BINS)),
    )
    options = {
        "min_partition_size": draw(st.sampled_from([1, 3, 20])),
        "max_depth": draw(st.sampled_from([None, 1, 2])),
    }
    return scores, formulation, options


class TestSearchMatchesReference:
    """Batched node scoring leaves the whole search equal to the reference."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(search_cases())
    def test_search_equals_reference_quantify(self, case):
        scores, formulation, options = case
        population, scorer = _table_population(scores)
        result = quantify(population, scorer, formulation, **options)
        reference = reference_quantify(population, scorer, formulation, **options)
        assert result.summary() == reference.summary()
        assert result.unfairness.hex() == reference.unfairness.hex()
        # Aggregated from the leaves' rows, as unfairness() computes it afresh.
        assert result.unfairness.hex() == unfairness(
            result.partitioning, scorer, formulation
        ).hex()
        assert result.splits_evaluated == reference.splits_evaluated
        assert result.partitioning.labels == reference.partitioning.labels
        # currentAvg and childrenAvg of every node, bit for bit.
        for node, expected in zip(result.tree.root.iter_nodes(), reference.tree.root.iter_nodes()):
            assert {key: value.hex() for key, value in node.annotation.items()} == {
                key: value.hex() for key, value in expected.annotation.items()
            }


class TestLeafRowUnfairness:
    """``QuantifyResult.unfairness`` comes from the rows the search kept."""

    @pytest.mark.parametrize("distance", available_distances())
    @pytest.mark.parametrize("max_depth", [1, None])
    def test_equals_unfairness_of_the_partitioning(self, population, function, distance,
                                                   max_depth):
        formulation = Formulation.from_names(distance=distance, bins=7)
        result = quantify(
            population, function, formulation, max_depth=max_depth, min_partition_size=5
        )
        depth = result.tree.root.depth()
        assert depth == 1 if max_depth == 1 else depth > 1
        expected = unfairness(result.partitioning, function, formulation)
        assert result.unfairness.hex() == expected.hex()

    def test_unsplit_root_has_zero_unfairness(self, population, function):
        result = quantify(population, function, min_partition_size=len(population))
        assert result.tree.root.is_leaf
        assert result.unfairness == 0.0 == unfairness(result.partitioning, function)
