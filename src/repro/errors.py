"""Exception hierarchy for the FaiRank reproduction.

Every error raised by the library derives from :class:`FaiRankError` so that
callers can catch library-level failures with a single ``except`` clause while
still being able to distinguish the broad failure categories below.
"""

from __future__ import annotations


class FaiRankError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SchemaError(FaiRankError):
    """The dataset schema is malformed or inconsistent with the data."""


class UnknownAttributeError(SchemaError):
    """An attribute name was referenced that does not exist in the schema."""

    def __init__(self, name: str, available: tuple = ()):  # type: ignore[assignment]
        self.name = name
        self.available = tuple(available)
        message = f"unknown attribute {name!r}"
        if self.available:
            message += f" (available: {', '.join(sorted(self.available))})"
        super().__init__(message)


class DataError(FaiRankError):
    """A dataset row or value violates the declared schema."""


class EmptyDatasetError(DataError):
    """An operation that requires at least one individual got an empty dataset."""


class ScoringError(FaiRankError):
    """A scoring function could not be constructed or evaluated."""


class PartitioningError(FaiRankError):
    """A partitioning is invalid (not disjoint, not covering, or empty)."""


class FormulationError(FaiRankError):
    """An unfairness formulation was misconfigured."""


class AnonymizationError(FaiRankError):
    """k-anonymisation could not be achieved or was misconfigured."""


class MarketplaceError(FaiRankError):
    """A marketplace entity or generator was misconfigured."""


class SessionError(FaiRankError):
    """An interactive-session operation was invalid (e.g. unknown panel)."""


class ExperimentError(FaiRankError):
    """An experiment/benchmark harness was misconfigured."""


class ServiceError(FaiRankError):
    """A fairness-service request was invalid or referenced unknown entities."""


class CatalogError(FaiRankError):
    """A resource-registry operation was invalid (unknown name, frozen entry...)."""


class BundleError(DataError):
    """An on-disk bundle (see :mod:`repro.bundle`) cannot be read.

    ``reason`` is ``manifest`` (unreadable, foreign, stale or malformed
    metadata) or ``truncated`` (an array file missing or of the wrong size).
    It is a :class:`DataError` to column-sidecar callers; warm-start loaders
    skip the bundle and count it on ``fairank_warmstart_skips_total`` under
    its reason.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason
