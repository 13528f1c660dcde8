"""Catalog snapshot persistence: save/load a deployment's resource registry.

A FaiRank deployment is its :class:`~repro.catalog.Catalog`: the datasets,
scoring functions, marketplaces and formulations a server resolves requests
against.  This module serialises that registry to a JSON *snapshot* file
plus a ``<snapshot>.columns/`` directory, so a deployment can be rebuilt
byte-identically in another process — ``fairank serve --catalog
snapshot.json`` boots a server from one, and
:meth:`~repro.session.engine.FaiRankEngine.save_catalog` exports a live
session's registry.

Snapshot format (``{"format": "fairank-catalog", "version": 3}``):

* **datasets** are saved as *column bundles*: each dataset's raw column
  arrays go under ``<snapshot>.columns/<fingerprint-prefix>/`` (see
  :meth:`repro.data.columns.ColumnStore.save`) and the entry records a
  ``{"columns": {"dir", "name", "schema"}}`` reference; load re-opens the
  arrays as read-only memory maps.  Datasets with the same fingerprint
  share one directory.  The one other form is a ``csv`` loader reference
  (``{"source": {"loader": "csv", ...}}``) to a file the user owns;
* **scoring functions** travel by their normalised weights (only
  transparent :class:`~repro.scoring.linear.LinearScoringFunction` entries
  are snapshotable — an opaque or rank-derived function has no portable
  content representation);
* **marketplaces** record their workers as the same ``{dir, name,
  schema}`` column-bundle reference, plus every job's title, weights and
  candidate filter (the whole declarative filter algebra of
  :mod:`repro.data.filters` round-trips);
* **formulations** travel by name: objective / aggregation / distance
  strings plus the binning.

The ``.columns/`` directory ships with the snapshot file: recorded paths are
relative and must stay inside the snapshot's directory.  A save checks every
dataset before it writes anything, writes the column bundles, then the
document, and finally removes each subdirectory of ``.columns/`` that the
new document does not name.

Every entry records the resource's content fingerprint at save time; load
recomputes fingerprints and refuses a snapshot whose reconstructed content
drifted, so a booted deployment serves exactly the cache keys the saving
deployment computed.  All failure modes (unreadable file, truncated JSON,
unknown version, unsupported resource, a value that does not survive JSON)
raise :class:`~repro.errors.CatalogError` with a message naming the problem.
"""

from __future__ import annotations

import shutil
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro import bundle
from repro.errors import BundleError, CatalogError, DataError, FaiRankError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.catalog import Catalog

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "save_catalog",
    "load_catalog",
    "snapshot_fingerprints",
    "function_to_portable_json",
    "function_from_portable_json",
]

#: The ``format``/``version`` stamp of a snapshot file (see :mod:`repro.bundle`).
SNAPSHOT_FORMAT = bundle.SNAPSHOT.format
SNAPSHOT_VERSION = bundle.SNAPSHOT.version


# -- datasets -----------------------------------------------------------------


def _schema_to_json(schema) -> List[Dict[str, object]]:
    return [
        {
            "name": attr.name,
            "kind": attr.kind.value,
            "atype": attr.atype.value,
            "domain": None if attr.domain is None else list(attr.domain),
            "description": attr.description,
        }
        for attr in schema
    ]


def _schema_from_json(entries):
    from repro.data.schema import Attribute, AttributeKind, AttributeType, Schema

    attributes = []
    for entry in entries:
        attributes.append(
            Attribute(
                name=str(entry["name"]),
                kind=AttributeKind(entry["kind"]),
                atype=AttributeType(entry["atype"]),
                domain=None if entry.get("domain") is None else tuple(entry["domain"]),
                description=str(entry.get("description", "")),
            )
        )
    return Schema(tuple(attributes))


def _columns_dataset(reference: Mapping[str, object], base_dir: Path):
    """Re-open a ``{dir, name, schema}`` column bundle as a memory-mapped dataset.

    ``dir`` must lie inside ``base_dir`` (the snapshot file's directory), so
    a snapshot plus its ``.columns/`` directory moves as a unit.
    """
    from repro.data.columns import ColumnStore
    from repro.data.dataset import Dataset

    try:
        directory = bundle.local_path(base_dir, reference["dir"])
        schema = _schema_from_json(reference["schema"])  # type: ignore[arg-type]
    except KeyError as missing:
        raise CatalogError(
            f"column bundle reference is missing field {missing.args[0]!r} "
            "(needs dir, schema)"
        ) from None
    return Dataset(
        schema,
        ColumnStore.load(directory),
        name=str(reference.get("name", "dataset")),
        validate=False,
    )


def _csv_dataset(source: Mapping[str, object]):
    """Rebuild a dataset saved by ``csv`` loader reference."""
    from repro.data.loaders import load_csv

    if source.get("loader") != "csv":
        raise CatalogError(
            f"unknown dataset loader {source.get('loader')!r} in catalog snapshot; "
            "known loaders: csv"
        )
    try:
        return load_csv(
            str(source["path"]),
            protected_names=[str(n) for n in source["protected"]],  # type: ignore[union-attr]
            observed_names=[str(n) for n in source["observed"]],  # type: ignore[union-attr]
            name=None if source.get("name") is None else str(source["name"]),
            uid_field=(
                None if source.get("uid_field") is None else str(source["uid_field"])
            ),
        )
    except KeyError as missing:
        raise CatalogError(
            f"csv dataset source is missing field {missing.args[0]!r} "
            "(needs path, protected, observed)"
        ) from None


# -- scoring functions --------------------------------------------------------


def function_to_portable_json(
    function, context: str = "scoring function"
) -> Dict[str, object]:
    """Portable JSON for a scoring function (warm-start bundles, snapshots).

    Raises :class:`~repro.errors.CatalogError` for function types without a
    portable content representation — callers skip those, they don't crash.
    """
    from repro.scoring.linear import LinearScoringFunction

    if not isinstance(function, LinearScoringFunction):
        raise CatalogError(
            f"cannot snapshot {context}: {type(function).__name__} has no portable "
            "content representation (only linear scoring functions can be saved)"
        )
    return {
        "type": "linear",
        "name": function.name,
        "weights": dict(function.weights),
    }


def function_from_portable_json(payload: Mapping[str, object]):
    """Rebuild a scoring function from :func:`function_to_portable_json` output."""
    from repro.scoring.linear import LinearScoringFunction

    if payload.get("type") != "linear":
        raise CatalogError(
            f"unknown scoring-function type {payload.get('type')!r} in catalog snapshot"
        )
    # The saved weights are already normalised; normalize=False preserves them
    # bit-for-bit so the reloaded function's fingerprint matches exactly.
    return LinearScoringFunction(
        dict(payload["weights"]),  # type: ignore[arg-type]
        name=str(payload.get("name", "linear")),
        normalize=False,
    )


# -- filters ------------------------------------------------------------------


def _filter_to_json(row_filter) -> Dict[str, object]:
    from repro.data.filters import And, Between, Equals, Not, OneOf, Or, TrueFilter

    if isinstance(row_filter, TrueFilter):
        return {"op": "true"}
    if isinstance(row_filter, Equals):
        return {"op": "equals", "attribute": row_filter.attribute, "value": row_filter.value}
    if isinstance(row_filter, OneOf):
        return {
            "op": "one_of",
            "attribute": row_filter.attribute,
            "values": list(row_filter.values),
        }
    if isinstance(row_filter, Between):
        return {
            "op": "between",
            "attribute": row_filter.attribute,
            "low": row_filter.low,
            "high": row_filter.high,
        }
    if isinstance(row_filter, Not):
        return {"op": "not", "inner": _filter_to_json(row_filter.inner)}
    if isinstance(row_filter, And):
        return {"op": "and", "parts": [_filter_to_json(part) for part in row_filter.parts]}
    if isinstance(row_filter, Or):
        return {"op": "or", "parts": [_filter_to_json(part) for part in row_filter.parts]}
    raise CatalogError(
        f"cannot snapshot candidate filter {type(row_filter).__name__}; "
        "only the declarative filter algebra of repro.data.filters round-trips"
    )


def _filter_from_json(payload: Mapping[str, object]):
    from repro.data.filters import And, Between, Equals, Not, OneOf, Or, TrueFilter

    op = payload.get("op")
    if op == "true":
        return TrueFilter()
    if op == "equals":
        return Equals(str(payload["attribute"]), payload["value"])
    if op == "one_of":
        return OneOf(str(payload["attribute"]), tuple(payload["values"]))  # type: ignore[arg-type]
    if op == "between":
        return Between(
            str(payload["attribute"]),
            float(payload["low"]),  # type: ignore[arg-type]
            float(payload["high"]),  # type: ignore[arg-type]
        )
    if op == "not":
        return Not(_filter_from_json(payload["inner"]))  # type: ignore[arg-type]
    if op == "and":
        parts = payload["parts"]
        return And(tuple(_filter_from_json(part) for part in parts))  # type: ignore[union-attr]
    if op == "or":
        parts = payload["parts"]
        return Or(tuple(_filter_from_json(part) for part in parts))  # type: ignore[union-attr]
    raise CatalogError(f"unknown filter op {op!r} in catalog snapshot")


# -- marketplaces -------------------------------------------------------------


def _marketplace_to_json(marketplace, workers: Dict[str, object]) -> Dict[str, object]:
    jobs = [
        {
            "title": job.title,
            "description": job.description,
            "function": function_to_portable_json(
                job.function, f"job {job.title!r} of marketplace {marketplace.name!r}"
            ),
            "candidate_filter": _filter_to_json(job.candidate_filter),
        }
        for job in marketplace
    ]
    return {"name": marketplace.name, "workers": workers, "jobs": jobs}


def _marketplace_from_json(payload: Mapping[str, object], base_dir: Path):
    from repro.marketplace.entities import Job, Marketplace

    workers = _columns_dataset(payload["workers"], base_dir)  # type: ignore[arg-type]
    jobs = [
        Job(
            title=str(entry["title"]),
            function=function_from_portable_json(entry["function"]),
            candidate_filter=_filter_from_json(entry["candidate_filter"]),
            description=str(entry.get("description", "")),
        )
        for entry in payload["jobs"]  # type: ignore[union-attr]
    ]
    return Marketplace(name=str(payload.get("name", "marketplace")), workers=workers, jobs=jobs)


# -- formulations -------------------------------------------------------------


def _formulation_to_json(formulation) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "objective": formulation.objective.value,
        "aggregation": formulation.aggregation.value,
        "distance": formulation.distance.name,
        "bins": formulation.bins,
    }
    if formulation.binning is not None:
        payload["binning"] = formulation.binning.to_json()
    return payload


def _formulation_from_json(payload: Mapping[str, object]):
    from repro.core.formulations import Formulation
    from repro.metrics.histogram import Binning

    formulation = Formulation.from_names(
        objective=str(payload["objective"]),
        aggregation=str(payload["aggregation"]),
        distance=str(payload["distance"]),
        bins=int(payload["bins"]),  # type: ignore[arg-type]
    )
    binning = payload.get("binning")
    if binning is not None:
        formulation = dataclass_replace(
            formulation, binning=Binning.from_json(binning)  # type: ignore[arg-type]
        )
    return formulation


# -- snapshot save/load -------------------------------------------------------


def _resource_body(
    resource,
    dataset_sources: Mapping[str, Mapping[str, object]],
    columns: Callable[[object, str, str], Dict[str, object]],
):
    """The kind-specific body of one snapshot entry.

    ``columns(dataset, fingerprint, label)`` returns the column-bundle
    reference of a dataset that the save will write.
    """
    from repro.catalog import ResourceKind
    from repro.service.fingerprint import fingerprint_dataset

    if resource.kind is ResourceKind.DATASET:
        source = dataset_sources.get(resource.name)
        if source is not None:
            if source.get("loader") != "csv":
                raise CatalogError(
                    f"dataset source for {resource.name!r} has unknown loader "
                    f"{source.get('loader')!r}; known loaders: csv"
                )
            return {"source": dict(source)}
        return {
            "columns": columns(
                resource.value, resource.fingerprint, f"dataset {resource.name!r}"
            )
        }
    if resource.kind is ResourceKind.FUNCTION:
        return {
            "function": function_to_portable_json(
                resource.value, f"function {resource.name!r}"
            )
        }
    if resource.kind is ResourceKind.MARKETPLACE:
        workers = resource.value.workers
        reference = columns(
            workers,
            fingerprint_dataset(workers),
            f"workers of marketplace {resource.name!r}",
        )
        return {"marketplace": _marketplace_to_json(resource.value, reference)}
    if resource.kind is ResourceKind.FORMULATION:
        return {"formulation": _formulation_to_json(resource.value)}
    raise CatalogError(f"unhandled resource kind {resource.kind!r}")  # pragma: no cover


def save_catalog(
    catalog: "Catalog",
    path: Union[str, Path],
    *,
    dataset_sources: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """Write ``catalog`` to a snapshot file; returns the snapshot document.

    Every dataset, and every marketplace's workers, is written as a column
    bundle under ``<path>.columns/<fingerprint-prefix>/``.  The one
    exception is a dataset that ``dataset_sources`` maps to a ``csv``
    loader reference (``{"loader": "csv", "path": ..., "protected": [...],
    "observed": [...]}``), which is saved by that reference.

    Nothing is written unless every entry can be saved: a decode value that
    does not survive JSON, an unportable function or an unknown source
    raises :class:`~repro.errors.CatalogError` first.  After the document
    is written, subdirectories of ``<path>.columns/`` it does not name are
    removed.
    """
    sources = dataset_sources or {}
    path = Path(path)
    root = path.with_name(path.name + ".columns")
    bundles: Dict[str, Tuple[object, str]] = {}

    def columns(dataset, fingerprint: str, label: str) -> Dict[str, object]:
        try:
            dataset.store.check_persistable()
        except DataError as error:
            raise CatalogError(f"cannot save {label}: {error}") from None
        bundles[fingerprint[:16]] = (dataset, label)
        return {
            "dir": f"{root.name}/{fingerprint[:16]}",
            "name": dataset.name,
            "schema": _schema_to_json(dataset.schema),
        }

    entries: List[Dict[str, object]] = []
    for resource in catalog.resources():
        entry: Dict[str, object] = {
            "kind": resource.kind.value,
            "name": resource.name,
            "fingerprint": resource.fingerprint,
            "frozen": resource.frozen,
        }
        entry.update(_resource_body(resource, sources, columns))
        entries.append(entry)
    unknown = set(sources) - {
        entry["name"] for entry in entries if entry["kind"] == "dataset"
    }
    if unknown:
        raise CatalogError(
            f"dataset_sources references unregistered datasets: {sorted(unknown)}"
        )
    for directory, (dataset, label) in bundles.items():
        try:
            dataset.store.save(root / directory)  # type: ignore[attr-defined]
        except OSError as error:
            raise CatalogError(f"cannot write the column bundle of {label}: {error}") from None
    try:
        document = bundle.write_document(path, bundle.SNAPSHOT, {"resources": entries})
    except OSError as error:
        raise CatalogError(f"cannot write catalog snapshot {path}: {error}") from None
    if root.is_dir():
        for directory in root.iterdir():
            if directory.is_dir() and directory.name not in bundles:
                shutil.rmtree(directory, ignore_errors=True)
    return document


def _rebuild_resource(entry: Mapping[str, object], base_dir: Path):
    """(kind, value) for one snapshot entry."""
    from repro.catalog import ResourceKind

    try:
        kind = ResourceKind(entry["kind"])
    except (KeyError, ValueError):
        raise CatalogError(
            f"catalog snapshot entry has unknown kind {entry.get('kind')!r}"
        ) from None
    if kind is ResourceKind.DATASET:
        if "source" in entry:
            return kind, _csv_dataset(entry["source"])  # type: ignore[arg-type]
        return kind, _columns_dataset(entry["columns"], base_dir)  # type: ignore[arg-type]
    if kind is ResourceKind.FUNCTION:
        return kind, function_from_portable_json(entry["function"])  # type: ignore[arg-type]
    if kind is ResourceKind.MARKETPLACE:
        market = entry["marketplace"]
        return kind, _marketplace_from_json(market, base_dir)  # type: ignore[arg-type]
    return kind, _formulation_from_json(entry["formulation"])  # type: ignore[arg-type]


def _read_snapshot_document(path: Union[str, Path]) -> List[Mapping[str, object]]:
    """Read and validate a snapshot file; returns its ``resources`` entries."""
    try:
        entries = bundle.read_document(Path(path), bundle.SNAPSHOT).get("resources")
    except BundleError as error:
        raise CatalogError(str(error)) from error
    if not isinstance(entries, list):
        raise CatalogError(f"catalog snapshot {path} has no 'resources' list")
    for index, entry in enumerate(entries, start=1):
        if not isinstance(entry, Mapping) or "name" not in entry or "kind" not in entry:
            raise CatalogError(
                f"catalog snapshot entry #{index} is malformed (needs kind and name)"
            )
    return entries


def snapshot_fingerprints(path: Union[str, Path]) -> Dict[Tuple[str, str], str]:
    """The ``(kind, name) -> fingerprint`` index of a snapshot file.

    Reads only the snapshot's recorded metadata — no dataset, marketplace or
    function is rebuilt — so a *shared-nothing* process (the shard router)
    can route requests by content fingerprint without holding any resource
    in memory.  Validates the file exactly like :func:`load_catalog` (same
    :class:`~repro.errors.CatalogError` failure modes for a missing file,
    truncated JSON or an unknown version).
    """
    fingerprints: Dict[Tuple[str, str], str] = {}
    for entry in _read_snapshot_document(path):
        fingerprint = entry.get("fingerprint")
        if fingerprint is not None:
            fingerprints[(str(entry["kind"]), str(entry["name"]))] = str(fingerprint)
    return fingerprints


def load_catalog(path: Union[str, Path]) -> "Catalog":
    """Rebuild a :class:`~repro.catalog.Catalog` from a snapshot file.

    Raises :class:`~repro.errors.CatalogError` for an unreadable or truncated
    file, an unknown snapshot version, an unsupported resource entry, or an
    entry whose reconstructed content fingerprint no longer matches the one
    recorded at save time (e.g. a CSV source file that changed on disk).
    """
    from repro.catalog import Catalog

    entries = _read_snapshot_document(path)
    # Column-bundle paths resolve against the snapshot's own directory, so a
    # snapshot and its .columns/ tree relocate as a unit.
    base_dir = Path(path).resolve().parent
    catalog = Catalog()
    for index, entry in enumerate(entries, start=1):
        try:
            kind, value = _rebuild_resource(entry, base_dir)
        except CatalogError:
            raise
        except (FaiRankError, KeyError, TypeError, ValueError) as error:
            raise CatalogError(
                f"catalog snapshot entry #{index} ({entry.get('name')!r}) cannot be "
                f"rebuilt: {error}"
            ) from None
        resource = catalog.register(
            value, name=str(entry["name"]), kind=kind, freeze=bool(entry.get("frozen"))
        )
        saved_fingerprint = entry.get("fingerprint")
        if saved_fingerprint is not None and resource.fingerprint != saved_fingerprint:
            raise CatalogError(
                f"catalog snapshot entry {resource.name!r} ({kind.value}) drifted: "
                f"reconstructed content fingerprint {resource.fingerprint[:12]} does "
                f"not match the saved {str(saved_fingerprint)[:12]}"
            )
    return catalog
