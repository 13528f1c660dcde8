"""Tests for the AUDITOR role workflow."""

import pytest

from repro.core.formulations import Formulation, Objective
from repro.errors import MarketplaceError
from repro.marketplace.entities import Marketplace
from repro.roles.auditor import Auditor


@pytest.fixture(scope="module")
def audit_report(request):
    marketplace = request.getfixturevalue("crowdsourcing_marketplace_fixture")
    return Auditor(min_partition_size=2).audit_marketplace(marketplace)


class TestAuditJob:
    def test_audit_covers_every_job(self, audit_report, crowdsourcing_marketplace_fixture):
        assert len(audit_report.audits) == len(crowdsourcing_marketplace_fixture)
        assert {a.job_title for a in audit_report.audits} == set(
            crowdsourcing_marketplace_fixture.job_titles
        )

    def test_each_audit_has_favoured_groups(self, audit_report):
        for audit in audit_report.audits:
            assert audit.unfairness >= 0.0
            if len(audit.partitions) > 1:
                assert audit.most_favored is not None
                assert audit.least_favored is not None
                assert audit.most_favored != audit.least_favored

    def test_most_and_least_unfair_job(self, audit_report):
        most = audit_report.most_unfair_job
        least = audit_report.least_unfair_job
        assert most.unfairness >= least.unfairness
        values = [a.unfairness for a in audit_report.audits]
        assert most.unfairness == max(values)
        assert least.unfairness == min(values)

    def test_report_table_rendering(self, audit_report):
        table = audit_report.to_table()
        assert len(table) == len(audit_report.audits)
        text = audit_report.render()
        assert "most unfair job" in text
        assert audit_report.most_unfair_job.job_title in text

    def test_opaque_jobs_audited_via_ranks(self, crawled_marketplace):
        report = Auditor(min_partition_size=3).audit_marketplace(crawled_marketplace)
        opaque_titles = [job.title for job in crawled_marketplace if not job.is_transparent]
        assert opaque_titles
        for title in opaque_titles:
            audit = next(audit for audit in report.audits if audit.job_title == title)
            assert audit.transparent_function is False
            assert audit.unfairness >= 0.0


class TestAuditorConfiguration:
    def test_empty_marketplace_rejected(self, small_population):
        empty = Marketplace(name="empty", workers=small_population)
        with pytest.raises(MarketplaceError):
            Auditor().audit_marketplace(empty)

    def test_least_unfair_formulation(self, crowdsourcing_marketplace_fixture):
        least_auditor = Auditor(
            formulation=Formulation(objective=Objective.LEAST_UNFAIR), min_partition_size=2
        )
        most_auditor = Auditor(min_partition_size=2)
        job = crowdsourcing_marketplace_fixture.jobs[0]
        least = least_auditor.audit_job(crowdsourcing_marketplace_fixture, job)
        most = most_auditor.audit_job(crowdsourcing_marketplace_fixture, job)
        assert least.unfairness <= most.unfairness + 1e-9

    def test_attribute_restriction(self, crowdsourcing_marketplace_fixture):
        auditor = Auditor(attributes=["Gender"], min_partition_size=2)
        job = crowdsourcing_marketplace_fixture.jobs[0]
        audit = auditor.audit_job(crowdsourcing_marketplace_fixture, job)
        for label in audit.partitions:
            assert label == "ALL" or label.startswith("Gender=")

    def test_audit_with_anonymization_table(self, crowdsourcing_marketplace_fixture):
        auditor = Auditor(min_partition_size=2)
        table = auditor.audit_with_anonymization(
            crowdsourcing_marketplace_fixture,
            crowdsourcing_marketplace_fixture.job_titles[0],
            k_values=(1, 5),
        )
        assert len(table) == 2
        records = table.to_records()
        assert records[0]["k"] == 1
        assert records[1]["k"] == 5
        # Anonymisation should not increase measured unfairness.
        assert records[1]["unfairness"] <= records[0]["unfairness"] + 1e-9
