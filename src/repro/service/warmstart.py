"""Warm-start bundles: persist a service's result cache across restarts.

A graceful shutdown snapshots the JSON-payload result cache into a bundle
directory: ``results.json`` plus a manifest naming the content fingerprint
of the whole catalog.  A later boot pointed at the same directory reloads
those answers, so the requests a restarted server was asked before are
served hot instead of paying the cold scoring pass again.  Score stores
are not persisted: a cache miss after a restart re-scores its (dataset,
function) once, as it would on a first boot.

Safety discipline (the same one :mod:`repro.snapshot` applies to catalogs):
the bundle is verified against the *live* catalog by content fingerprint.
A bundle that drifted, is truncated, or belongs to another deployment or
an older version is skipped — counted on ``fairank_warmstart_skips_total``
with a stable ``reason`` label and logged as a structured event — and the
service computes cold.  A warm start can be slower than hoped; it can never
be wrong.

Metric families (documented in ``docs/OPERATIONS.md``):

* ``fairank_warmstart_loads_total`` — result-cache entries restored
  (``component="result"``).
* ``fairank_warmstart_skips_total`` — bundles or entries rejected, by
  ``reason`` (``manifest``, ``catalog_drift``).
* ``fairank_warmstart_bytes_total`` — bytes of bundle data restored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Union

from repro import bundle
from repro.errors import BundleError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.service.fingerprint import combine_fingerprints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.service.service import FairnessService

__all__ = ["save_warm_state", "load_warm_state"]


def _metrics():
    registry = get_registry()
    return (
        registry.counter(
            "fairank_warmstart_loads_total",
            "Warm-start components restored, by component (result).",
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


# -- saving -------------------------------------------------------------------


def save_warm_state(
    service: "FairnessService", directory: Union[str, Path]
) -> Dict[str, object]:
    """Persist the service's result cache under ``directory``; returns the manifest.

    Every result-cache entry is saved (the encoded payload bytes, decoded
    back into the bundle's JSON tree), least recently used first.  The old
    manifest is removed first and the new one written last (see
    :mod:`repro.bundle`), so an interrupted save is indistinguishable from
    no bundle.
    """
    writer = bundle.BundleWriter(directory, bundle.WARM_START)
    results: List[Dict[str, object]] = []
    for key, value in service.cache.items():
        results.append({"key": key, "payload": json.loads(value)})  # type: ignore[arg-type]
    writer.document("results.json", {"results": results})
    manifest = writer.commit(
        {
            "catalog_fingerprint": _catalog_fingerprint(service),
            "results": "results.json",
        }
    )
    get_logger().event(
        "warmstart_save", directory=str(writer.directory), results=len(results)
    )
    return manifest


# -- loading ------------------------------------------------------------------


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
    """Reload the result cache saved by :func:`save_warm_state`; returns ``{"results": n}``.

    The bundle is verified against the live catalog's fingerprint; drift,
    truncation or foreign content skips it (counted and logged) and the
    service computes cold.  A directory without a ``manifest.json`` is a
    normal first boot — nothing is loaded or counted.
    """
    directory = Path(directory)
    if not (directory / bundle.MANIFEST).exists():
        return {"results": 0}
    try:
        with bundle.open_manifest(directory, bundle.WARM_START) as manifest:
            results_path = bundle.local_path(directory, manifest["results"])
            catalog_fingerprint = manifest["catalog_fingerprint"]
    except BundleError as error:
        _skip(error.reason, directory=str(directory), error=str(error))
        return {"results": 0}
    if catalog_fingerprint != _catalog_fingerprint(service):
        # The catalog content changed since the bundle was saved; cached
        # results may reference resources that no longer mean the same thing.
        _skip("catalog_drift", directory=str(directory))
        return {"results": 0}
    return {"results": _load_results(service, results_path)}
