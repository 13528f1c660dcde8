"""The FaiRank session engine (headless equivalent of the demo system).

Figure 1 of the paper shows the pipeline: the user selects or uploads a
dataset, optionally filters and anonymises it, selects or defines a scoring
function (or provides only a ranking), chooses a fairness formulation, and
FaiRank solves the partitioning optimisation and displays the result in a
panel; the user then iterates by changing the function or the formulation
and comparing panels.

:class:`FaiRankEngine` implements that loop programmatically:

* ``register_dataset`` / ``register_function`` populate the catalogue the
  Configuration box would list — the engine keeps **no private registry**:
  every registration and lookup delegates to the single
  :class:`~repro.catalog.Catalog` owned by the engine's
  :class:`~repro.service.service.FairnessService`, so resources registered
  through the engine are immediately servable through raw wire requests,
  the batch executor and the CLI (and vice versa);
* ``open_panel(config)`` runs the full pipeline for one configuration and
  returns a :class:`~repro.session.panels.Panel`;
* ``compare(...)`` renders the multi-panel comparison table;
* role helpers (``auditor_view`` etc.) connect the engine to the scenario
  workflows of :mod:`repro.roles`, resolving marketplaces by registered
  name through the same catalog and scoring through the service's
  score-store pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.anonymize.kanonymity import GlobalRecodingAnonymizer
from repro.core.quantify import quantify
from repro.core.unfairness import unfairness_breakdown
from repro.data.dataset import Dataset
from repro.data.filters import TrueFilter
from repro.errors import FaiRankError, SessionError
from repro.marketplace.entities import Marketplace
from repro.roles.auditor import AuditReport, Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner, JobOwnerReport
from repro.roles.report import ReportTable
from repro.scoring.base import ScoringFunction
from repro.scoring.rank import observed_function
from repro.service.service import FairnessService
from repro.session.config import SessionConfig
from repro.session.panels import Panel, compare_panels

__all__ = ["FaiRankEngine"]


class FaiRankEngine:
    """Headless FaiRank system: a shared catalogue plus interactive panels.

    Every panel searches over the backing
    :class:`~repro.service.service.FairnessService`'s score-store pool, so
    re-opening a panel over a semantically identical population and
    function (even a rebuilt copy) re-runs the greedy search without a
    second scoring pass.  Pass a shared service to let several engines (or
    a batch executor) share one pool *and one catalogue* — the engine holds
    no dataset/function dicts of its own.
    """

    def __init__(self, service: Optional[FairnessService] = None) -> None:
        self._panels: Dict[str, Panel] = {}
        self._panel_counter = 0
        self._anonymizer = GlobalRecodingAnonymizer()
        self._service = service if service is not None else FairnessService()

    @property
    def service(self) -> FairnessService:
        """The fairness service backing this engine's panel computations."""
        return self._service

    @property
    def catalog(self):
        """The single resource registry (owned by the backing service)."""
        return self._service.catalog

    # -- catalogues (the Configuration box) ---------------------------------------

    def register_dataset(
        self,
        dataset: Dataset,
        name: Optional[str] = None,
        *,
        replace: bool = True,
        freeze: bool = False,
    ) -> str:
        """Add a dataset to the catalogue; returns the name it is registered under."""
        try:
            return self._service.register_dataset(
                dataset, name=name, replace=replace, freeze=freeze
            )
        except FaiRankError as error:
            raise SessionError(str(error)) from None

    def register_function(
        self,
        function: ScoringFunction,
        replace: bool = False,
        *,
        freeze: bool = False,
    ) -> str:
        """Add a scoring function to the catalogue; returns its name.

        Re-registering *identical* content under an existing name is an
        idempotent no-op.  Registering **different** content under an
        existing name requires ``replace=True`` (the old behaviour of
        silently clobbering the entry is gone), and a frozen entry can never
        be replaced — both raise a :class:`~repro.errors.SessionError`.
        """
        try:
            return self._service.register_function(
                function, replace=replace, freeze=freeze
            )
        except FaiRankError as error:
            raise SessionError(str(error)) from None

    def register_marketplace(self, marketplace: Marketplace) -> Tuple[str, List[str]]:
        """Register a marketplace, its workers and every job's scoring function.

        Returns the dataset name and the list of registered function names.
        The marketplace itself becomes resolvable by name in role shortcuts
        and AUDIT / END-USER / JOB-OWNER wire requests.
        """
        try:
            dataset_name = self._service.register_marketplace(marketplace)
        except FaiRankError as error:
            raise SessionError(str(error)) from None
        return dataset_name, [job.function.name for job in marketplace]

    def save_catalog(self, path: str) -> None:
        """Export this session's whole registry to a catalog snapshot file.

        The snapshot (see :mod:`repro.snapshot`) captures every dataset,
        scoring function, marketplace and formulation registered through
        this engine *or* through its backing service, so the deployment can
        be rebooted elsewhere — ``fairank serve --catalog PATH`` serves the
        exact same resources (identical content fingerprints, hence
        identical cache keys).  Datasets are written as column bundles
        under ``<path>.columns/``, which ships with the file.
        """
        try:
            self.catalog.save(path)
        except FaiRankError as error:
            raise SessionError(str(error)) from None

    @property
    def dataset_names(self) -> Tuple[str, ...]:
        return self._service.dataset_names

    @property
    def function_names(self) -> Tuple[str, ...]:
        return self._service.function_names

    def dataset(self, name: str) -> Dataset:
        try:
            return self._service.dataset(name)
        except FaiRankError as error:
            raise SessionError(str(error)) from None

    def function(self, name: str) -> ScoringFunction:
        try:
            return self._service.function(name)
        except FaiRankError as error:
            raise SessionError(str(error)) from None

    # -- the pipeline of Figure 1 ----------------------------------------------------

    def _prepare_population(self, config: SessionConfig) -> Dataset:
        """Select, filter and (optionally) anonymise the population."""
        population = self.dataset(config.dataset_name)
        if not isinstance(config.row_filter, TrueFilter):
            population = population.filter(config.row_filter)
            if not len(population):
                raise SessionError(
                    f"the filter ({config.row_filter.describe()}) matches no individuals "
                    f"of dataset {config.dataset_name!r}"
                )
        if config.anonymity_k > 1:
            population = self._anonymizer.anonymize(
                population, k=config.anonymity_k
            ).dataset
        return population

    def open_panel(self, config: SessionConfig, panel_id: Optional[str] = None) -> Panel:
        """Run the full pipeline for one configuration and keep the panel open."""
        population = self._prepare_population(config)
        function = observed_function(
            self.function(config.function_name),
            population,
            config.function_name,
            config.use_ranks_only,
        )
        store = self._service.score_store(population, function)
        result = quantify(
            population,
            function,
            formulation=config.formulation,
            attributes=config.attributes,
            max_depth=config.max_depth,
            min_partition_size=config.min_partition_size,
            store=store,
        )
        breakdown = unfairness_breakdown(
            result.partitioning, function, config.formulation, store=store
        )
        self._panel_counter += 1
        identifier = panel_id or f"P{self._panel_counter}"
        panel = Panel(
            panel_id=identifier,
            config=config,
            population=population,
            effective_function=function,
            result=result,
            breakdown=breakdown,
            store_provider=self._service.score_store,
        )
        self._panels[identifier] = panel
        return panel

    def panel(self, panel_id: str) -> Panel:
        try:
            return self._panels[panel_id]
        except KeyError:
            raise SessionError(
                f"no open panel {panel_id!r}; open panels: {', '.join(sorted(self._panels))}"
            ) from None

    @property
    def open_panels(self) -> Tuple[str, ...]:
        return tuple(self._panels)

    def close_panel(self, panel_id: str) -> None:
        self.panel(panel_id)
        del self._panels[panel_id]

    def compare(self, panel_ids: Optional[Sequence[str]] = None) -> ReportTable:
        """Side-by-side comparison of open panels (all of them by default)."""
        identifiers = tuple(panel_ids) if panel_ids is not None else tuple(self._panels)
        panels = [self.panel(identifier) for identifier in identifiers]
        return compare_panels(panels)

    # -- role shortcuts ---------------------------------------------------------------

    def _marketplace(self, marketplace: Union[str, Marketplace]) -> Marketplace:
        if isinstance(marketplace, str):
            return self._service.marketplace(marketplace)
        return marketplace

    def auditor_view(
        self, marketplace: Union[str, Marketplace], **auditor_kwargs
    ) -> AuditReport:
        """Run the AUDITOR scenario on a marketplace (live object or registered name).

        The audits score through the service's score-store pool, so repeated
        audits of the same platform share materialized scoring passes.
        """
        auditor = Auditor(store_provider=self._service.score_store, **auditor_kwargs)
        return auditor.audit_marketplace(self._marketplace(marketplace))

    def job_owner_view(
        self,
        marketplace: Union[str, Marketplace],
        job_title: str,
        sweep_steps: int = 5,
        **owner_kwargs,
    ) -> JobOwnerReport:
        """Run the JOB OWNER scenario for one job (name-resolvable, pooled stores)."""
        owner = JobOwner(store_provider=self._service.score_store, **owner_kwargs)
        return owner.explore_job(
            self._marketplace(marketplace), job_title, sweep_steps=sweep_steps
        )

    def end_user_view(
        self,
        group: Dict[str, object],
        marketplaces: Sequence[Union[str, Marketplace]],
        job_title: str,
    ) -> ReportTable:
        """Run the END-USER scenario: one group, one job, several marketplaces."""
        user = EndUser(group, store_provider=self._service.score_store)
        return user.compare_marketplaces(
            [self._marketplace(market) for market in marketplaces], job_title
        )
