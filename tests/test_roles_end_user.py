"""Tests for the END-USER role workflow."""

from collections import Counter

import pytest

from repro.core.unfairness import pairwise_distances
from repro.errors import MarketplaceError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.metrics.histogram import build_histogram
from repro.roles.end_user import EndUser
from repro.scoring.base import rank_by_score
from repro.scoring.rank import observed_function
from scoring_reference import reference_group_ranks


@pytest.fixture(scope="module")
def end_user():
    return EndUser({"Gender": "Female"})


class TestAssessJob:
    def test_outcome_fields(self, end_user, crowdsourcing_marketplace_fixture):
        outcome = end_user.assess_job(crowdsourcing_marketplace_fixture, "Content writing")
        assert outcome.marketplace == crowdsourcing_marketplace_fixture.name
        assert outcome.job_title == "Content writing"
        assert 0 < outcome.group_size < outcome.population_size
        assert 0.0 <= outcome.mean_score <= 1.0
        assert 1.0 <= outcome.mean_rank <= outcome.population_size
        assert 0.0 <= outcome.exposure_share <= 1.0
        assert outcome.emd_vs_rest >= 0.0

    def test_score_gap_sign(self, end_user, crowdsourcing_marketplace_fixture):
        outcome = end_user.assess_job(crowdsourcing_marketplace_fixture, "Content writing")
        assert outcome.score_gap == pytest.approx(
            outcome.mean_score - outcome.population_mean_score
        )

    def test_group_membership_validation(self, crowdsourcing_marketplace_fixture):
        ghost_user = EndUser({"Gender": "Nonexistent"})
        with pytest.raises(MarketplaceError):
            ghost_user.assess_job(crowdsourcing_marketplace_fixture, "Content writing")

    def test_unknown_attribute_rejected(self, crowdsourcing_marketplace_fixture):
        user = EndUser({"FavouriteColour": "blue"})
        with pytest.raises(Exception):
            user.assess_job(crowdsourcing_marketplace_fixture, "Content writing")

    def test_empty_group_spec_rejected(self):
        with pytest.raises(MarketplaceError):
            EndUser({})

    def test_group_filter_and_label(self, end_user):
        assert "Gender" in end_user.group_label()
        assert end_user.group_filter.describe()

    def test_penalised_group_is_flagged(self, crowdsourcing_marketplace_fixture):
        # The fixture marketplace plants a penalty on Female African-American
        # workers; the broader Female group intersects it, and the flag is
        # computed from QUANTIFY's partitioning of the candidates.
        user = EndUser({"Gender": "Female", "Ethnicity": "African-American"})
        outcome = user.assess_job(crowdsourcing_marketplace_fixture, "Content writing")
        assert outcome.score_gap < 0.0

    def test_opaque_job_assessed_from_ranks(self, crawled_marketplace):
        user = EndUser({"Gender": "Female"})
        opaque_title = next(job.title for job in crawled_marketplace if not job.is_transparent)
        outcome = user.assess_job(crawled_marketplace, opaque_title)
        assert 0.0 <= outcome.mean_score <= 1.0


class TestComparisons:
    def test_compare_jobs_table(self, end_user, crowdsourcing_marketplace_fixture):
        table = end_user.compare_jobs(crowdsourcing_marketplace_fixture)
        assert len(table) == len(crowdsourcing_marketplace_fixture)
        assert any("best option" in note for note in table.notes)
        gaps = table.column("gap")
        assert gaps == sorted(gaps, reverse=True)

    def test_compare_jobs_subset(self, end_user, crowdsourcing_marketplace_fixture):
        table = end_user.compare_jobs(
            crowdsourcing_marketplace_fixture, job_titles=["Content writing", "Data labelling"]
        )
        assert len(table) == 2

    def test_compare_marketplaces(self, end_user, crowdsourcing_marketplace_fixture):
        table = end_user.compare_marketplaces(
            [crowdsourcing_marketplace_fixture], "Content writing"
        )
        assert len(table) == 1

    def test_compare_marketplaces_requires_offering(
        self, end_user, crowdsourcing_marketplace_fixture
    ):
        with pytest.raises(MarketplaceError):
            end_user.compare_marketplaces([crowdsourcing_marketplace_fixture], "Unicorn grooming")


def lone_member_group(candidates):
    """Protected-attribute values that exactly one candidate holds."""
    names = candidates.schema.protected_names
    combos = Counter(
        tuple(record[name] for name in names) for record in candidates.to_records()
    )
    lone = next(combo for combo, count in combos.items() if count == 1)
    return dict(zip(names, lone))


@pytest.fixture(scope="module", params=[400, 5000])
def sized_marketplace(request):
    return crowdsourcing_marketplace(request.param, seed=1)


class TestRankStatisticsMatchTheMemberByMemberReference:
    """mean_rank, exposure_share and emd_vs_rest, bit for bit, against member
    positions looked up one uid at a time and generator sums of discounts."""

    @pytest.mark.parametrize("case", ["group", "lone member", "every candidate"])
    def test_outcome_hex_equals_reference(self, sized_marketplace, case):
        title = "English transcription" if case == "every candidate" else "Content writing"
        job = sized_marketplace.job(title)
        candidates = job.candidates(sized_marketplace.workers)
        group = {
            "group": {"Gender": "Female"},
            "lone member": lone_member_group(candidates),
            "every candidate": {"Language": "English"},
        }[case]
        user = EndUser(group)
        outcome = user.assess_job(sized_marketplace, title)

        function = observed_function(job.function, candidates, title)
        members = candidates.filter(user.group_filter)
        rest = candidates.filter(~user.group_filter)
        expected = {"lone member": 1, "every candidate": len(candidates)}.get(case)
        assert expected in (None, len(members))
        mean_rank, exposure_share = reference_group_ranks(
            rank_by_score(candidates, function), members
        )
        assert outcome.mean_rank.hex() == mean_rank.hex()
        assert outcome.exposure_share.hex() == exposure_share.hex()
        if len(rest):
            binning = user.formulation.effective_binning
            histograms = [
                build_histogram(function.score_dataset(part), binning=binning)
                for part in (members, rest)
            ]
            emd = pairwise_distances(histograms, user.formulation)[0]
        else:
            emd = 0.0
        assert outcome.emd_vs_rest.hex() == float(emd).hex()
