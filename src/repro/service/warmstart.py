"""Warm-start bundles: persist a service's hot state across restarts.

A graceful shutdown snapshots the service's *derived* state — the
materialized :class:`~repro.core.scorestore.ScoreStore` pool and the
JSON-payload result cache — into a directory of raw ``.bin`` buffers plus
JSON manifests.  A later boot pointed at the same directory reloads that
state so the first requests of a restarted fleet are served hot instead of
paying the cold scoring pass again.

Safety discipline (the same one :mod:`repro.snapshot` applies to catalogs):
every loaded component is verified against the *live* catalog by content
fingerprint, and every buffer by exact element count.  Anything that drifted,
truncated, or simply belongs to another deployment is skipped — counted on
``fairank_warmstart_skips_total`` with a stable ``reason`` label and logged
as a structured event — and the service falls back to cold compute for that
component.  A warm start can be slower than hoped; it can never be wrong.

Metric families (documented in ``docs/OPERATIONS.md``):

* ``fairank_warmstart_loads_total`` — components restored, by ``component``
  (``store`` or ``result``).
* ``fairank_warmstart_skips_total`` — components rejected, by ``reason``
  (``manifest``, ``fingerprint``, ``truncated``, ``function``,
  ``catalog_drift``, ``error``).
* ``fairank_warmstart_bytes_total`` — bytes of bundle data restored.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro import bundle
from repro.catalog import ResourceKind
from repro.core.scorestore import ScoreStore
from repro.errors import BundleError, CatalogError, WarmStartError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.service.fingerprint import (
    combine_fingerprints,
    fingerprint_function,
)
from repro.snapshot import function_from_portable_json, function_to_portable_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.service.service import FairnessService

__all__ = ["save_warm_state", "load_warm_state"]


def _metrics():
    registry = get_registry()
    return (
        registry.counter(
            "fairank_warmstart_loads_total",
            "Warm-start components restored, by component (store/result).",
        ),
        registry.counter(
            "fairank_warmstart_skips_total",
            "Warm-start components rejected and served cold instead, by reason.",
        ),
        registry.counter(
            "fairank_warmstart_bytes_total",
            "Bytes of warm-start bundle data restored into memory.",
        ),
    )


def _skip(reason: str, **fields: object) -> None:
    _metrics()[1].inc(reason=reason)
    get_logger().event("warmstart_skip", reason=reason, **fields)


def _catalog_fingerprint(service: "FairnessService") -> str:
    """Content fingerprint over every registered resource, order-free.

    Cached results are only portable while the *whole* catalog content is
    unchanged — a result may reference any combination of resources, so the
    result cache is keyed on all of them at once.
    """
    return combine_fingerprints(
        "warm-catalog",
        *sorted(entry.fingerprint for entry in service.catalog.resources()),
    )


def _bundle_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("*.bin"))


# -- saving -------------------------------------------------------------------


def save_warm_state(
    service: "FairnessService", directory: Union[str, Path]
) -> Dict[str, object]:
    """Persist the service's warm state under ``directory``; returns the manifest.

    Saved: every *materialized* score store whose function has a portable
    JSON form, and every result-cache entry (the encoded payload bytes,
    decoded back into the bundle's JSON tree).  Cold stores and stores of
    non-portable functions are silently left out — they are rebuilt on
    demand after a restart, exactly as they were built the first time.  The
    old top-level manifest is removed first and the new one written last
    (see :mod:`repro.bundle`), so an interrupted save is indistinguishable
    from no bundle.  After the commit, the ``stores/store_NN`` directories
    of an earlier save that the new manifest no longer lists are removed.
    """
    writer = bundle.BundleWriter(directory, bundle.WARM_START)
    stores_manifest: List[Dict[str, object]] = []
    for index, store in enumerate(service._store_pool.values()):
        if not isinstance(store, ScoreStore) or not store.materialized:
            continue
        try:
            function_json = function_to_portable_json(store.function)
        # Only functions with portable content can be verified at load time;
        # the rest are recomputed cold, never guessed.
        # fairlint: disable=FL007 -- documented skip of one store
        except CatalogError:
            continue
        store_dir = f"stores/store_{index:02d}"
        store_manifest = store.save(writer.directory / store_dir)
        stores_manifest.append(
            {
                "directory": store_dir,
                "dataset_fingerprint": store_manifest["dataset_fingerprint"],
                "function": function_json,
            }
        )
    results: List[Dict[str, object]] = []
    for key, value in service.cache.items():
        results.append({"key": key, "payload": json.loads(value)})  # type: ignore[arg-type]
    writer.document("results.json", {"results": results})
    manifest = writer.commit(
        {
            "catalog_fingerprint": _catalog_fingerprint(service),
            "stores": stores_manifest,
            "results": "results.json",
        }
    )
    listed = {entry["directory"] for entry in stores_manifest}
    for store_dir in (writer.directory / "stores").glob("store_*"):
        if store_dir.is_dir() and f"stores/{store_dir.name}" not in listed:
            shutil.rmtree(store_dir, ignore_errors=True)
    get_logger().event(
        "warmstart_save",
        directory=str(writer.directory),
        stores=len(stores_manifest),
        results=len(results),
    )
    return manifest


# -- loading ------------------------------------------------------------------


def _load_store(
    service: "FairnessService", directory: Path, entry: Dict[str, object]
) -> Optional[str]:
    """Load one store bundle into the pool; returns its pool key (or None)."""
    loads, _, bytes_total = _metrics()
    try:
        store_dir = bundle.local_path(directory, entry.get("directory"))
    except BundleError as error:
        _skip(error.reason, directory=str(directory), error=str(error))
        return None
    try:
        function = function_from_portable_json(entry["function"])  # type: ignore[arg-type]
    except (CatalogError, KeyError, TypeError) as error:
        _skip("function", directory=str(store_dir), error=str(error))
        return None
    dataset_fingerprint = str(entry.get("dataset_fingerprint", ""))
    dataset = next(
        (resource.value for resource in service.catalog.resources(ResourceKind.DATASET)
         if resource.fingerprint == dataset_fingerprint),
        None,
    )
    if dataset is None:
        _skip(
            "fingerprint",
            directory=str(store_dir),
            detail="no live dataset matches the bundle's dataset fingerprint",
        )
        return None
    try:
        store = ScoreStore.load(store_dir, dataset, function, trust_uids=True)
    except WarmStartError as error:
        _skip(error.reason, directory=str(store_dir), error=str(error))
        return None
    # ScoreStore.load verified the function against the bundle's recorded
    # fingerprint, so the pool key is the one a cold request derives.
    key = combine_fingerprints(
        "score-store", dataset_fingerprint, fingerprint_function(function)
    )
    service._store_pool.put(key, store)
    loaded_bytes = _bundle_bytes(store_dir)
    loads.inc(component="store")
    bytes_total.inc(loaded_bytes)
    get_logger().event(
        "warmstart_load",
        component="store",
        dataset=dataset.name,
        function=function.name,
        rows=len(dataset),
        bytes=loaded_bytes,
    )
    return key


def _load_results(service: "FairnessService", results_path: Path) -> int:
    """Reload cached result payloads; returns how many entries were restored."""
    loads, _, bytes_total = _metrics()
    try:
        entries = list(bundle.read_json(results_path)["results"])  # type: ignore[index]
    except (BundleError, KeyError, TypeError) as error:
        _skip("manifest", directory=str(results_path.parent), error=str(error))
        return 0
    restored = 0
    for entry in entries:
        # Older bundles also carry a per-entry "cost" field; it is ignored.
        value = entry.get("payload") if isinstance(entry, dict) else None
        if not isinstance(value, dict) or "key" not in entry:
            _skip("manifest", directory=str(results_path.parent))
            continue
        # Entries arrive least recently used first, so re-inserting in file
        # order reproduces the cache's recency order exactly.  Re-encoding
        # the decoded tree reproduces the bytes encoded at compute time.
        service.cache.put(str(entry["key"]), json.dumps(value).encode("utf-8"))
        loads.inc(component="result")
        restored += 1
    if restored:
        loaded_bytes = results_path.stat().st_size
        bytes_total.inc(loaded_bytes)
        get_logger().event(
            "warmstart_load",
            component="results",
            entries=restored,
            bytes=loaded_bytes,
        )
    return restored


def load_warm_state(
    service: "FairnessService", directory: Union[str, Path]
) -> Dict[str, int]:
    """Reload warm state saved by :func:`save_warm_state`; returns load counts.

    Every component is fingerprint-verified against the live catalog; drift,
    truncation or foreign content skips that component (counted and logged)
    and the service computes it cold on first use.  A directory without a
    ``manifest.json`` is a normal first boot — nothing is loaded or counted.
    """
    directory = Path(directory)
    if not (directory / bundle.MANIFEST).exists():
        return {"stores": 0, "results": 0}
    try:
        with bundle.open_manifest(directory, bundle.WARM_START) as manifest:
            entries = list(manifest["stores"])  # type: ignore[call-overload]
            results_path = bundle.local_path(directory, manifest["results"])
            catalog_fingerprint = manifest["catalog_fingerprint"]
    except BundleError as error:
        _skip(error.reason, directory=str(directory), error=str(error))
        return {"stores": 0, "results": 0}
    stores = 0
    for entry in entries:
        if isinstance(entry, dict) and _load_store(service, directory, entry):
            stores += 1
    if catalog_fingerprint != _catalog_fingerprint(service):
        # The catalog content changed since the bundle was saved; cached
        # results may reference resources that no longer mean the same thing.
        _skip("catalog_drift", directory=str(directory))
        return {"stores": stores, "results": 0}
    return {"stores": stores, "results": _load_results(service, results_path)}
