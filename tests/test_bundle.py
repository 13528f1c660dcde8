"""One bundle format: every persisted artifact refuses broken files the same way.

One negative suite per bundle kind (column sidecar, warm-start bundle,
catalog snapshot), each covering a truncated file, a non-local file name, a
foreign ``format``, a foreign ``version`` and a manifest missing a required
field (and, for the kinds with ``.bin`` arrays, an over-long one).  Every
case must end in the kind's typed error (or a warm-start skip reason), never
a builtin ``ValueError``/``KeyError`` and never a silent load; the warm-start
suite also breaks ``results.json`` and its entries one way at a time.  Then the
previous on-disk layout: v1 column sidecars inside a current snapshot still
load byte-identically.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import bundle
from repro.catalog import Catalog, ResourceKind
from repro.data.columns import ColumnStore
from repro.data.dataset import Dataset
from repro.data.filters import TrueFilter
from repro.data.schema import Schema, observed, protected
from repro.errors import BundleError, CatalogError, DataError
from repro.experiments.workloads import synthetic_population
from repro.obs.metrics import get_registry
from repro.scoring.linear import LinearScoringFunction
from repro.service import FairnessService, QuantifyRequest
from repro.service.fingerprint import fingerprint_dataset, fingerprint_function
from repro.snapshot import load_catalog


def _edit_json(path: Path, edit) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    edit(document)
    path.write_text(json.dumps(document), encoding="utf-8")


def _truncate(path: Path) -> None:
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _extend(path: Path) -> None:
    path.write_bytes(path.read_bytes() * 2)


def _set(field: str, value):
    return lambda document: document.__setitem__(field, value)


def _delete(field: str):
    return lambda document: document.pop(field)


def _population() -> Dataset:
    return synthetic_population(size=120, seed=7)


_FUNCTION = LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="bundle-f")


# -- column sidecars ----------------------------------------------------------


def _sidecar_manifest(edit):
    return lambda root: _edit_json(root / "sidecar" / bundle.MANIFEST, edit)


def _sidecar_outside(root: Path) -> None:
    """Point column 0 at a correctly sized file outside the bundle."""
    shutil.copy(root / "sidecar" / "col_0.bin", root / "outside.bin")
    _sidecar_manifest(
        lambda manifest: manifest["columns"][0].__setitem__("file", "../outside.bin")
    )(root)


SIDECAR_CASES = {
    "truncated": (lambda root: _truncate(root / "sidecar" / "col_0.bin"), "truncated"),
    "over-long": (lambda root: _extend(root / "sidecar" / "col_0.bin"), "truncated"),
    "missing-file": (lambda root: (root / "sidecar" / "col_1.bin").unlink(), "truncated"),
    "non-local": (_sidecar_outside, "manifest"),
    "foreign-format": (_sidecar_manifest(_set("format", "x")), "manifest"),
    "foreign-version": (_sidecar_manifest(_set("version", 99)), "manifest"),
    "missing-field": (_sidecar_manifest(_delete("rows")), "manifest"),
    "unknown-kind": (
        _sidecar_manifest(
            lambda manifest: manifest["columns"][0].__setitem__("kind", "sparse")
        ),
        "manifest",
    ),
}


@pytest.mark.parametrize("case", sorted(SIDECAR_CASES))
def test_broken_column_sidecar_is_a_data_error(tmp_path, case):
    _population().store.save(tmp_path / "sidecar")
    mutate, reason = SIDECAR_CASES[case]
    mutate(tmp_path)
    with pytest.raises(DataError) as excinfo:
        ColumnStore.load(tmp_path / "sidecar")
    assert isinstance(excinfo.value, BundleError)
    assert excinfo.value.reason == reason


def test_empty_column_sidecar_round_trips(tmp_path):
    empty = _population().filter(~TrueFilter())
    empty.store.save(tmp_path / "sidecar")
    assert len(ColumnStore.load(tmp_path / "sidecar")) == 0


def test_commit_removes_only_the_bin_files_it_did_not_write(tmp_path):
    first = bundle.BundleWriter(tmp_path, bundle.COLUMNS)
    for name in ("a.bin", "b.bin", "c.bin"):
        first.array(name, np.arange(3), np.int64)
    first.commit({})
    (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
    (tmp_path / "child").mkdir()
    (tmp_path / "child" / "d.bin").write_bytes(b"kept")
    second = bundle.BundleWriter(tmp_path, bundle.COLUMNS)
    second.array("a.bin", np.arange(2), np.int64)
    second.commit({})
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "a.bin", "child", bundle.MANIFEST, "notes.txt"
    ]
    assert (tmp_path / "child" / "d.bin").read_bytes() == b"kept"
    assert bundle.read_array(tmp_path, "a.bin", np.int64, 2).tolist() == [0, 1]


# -- warm-start bundles -------------------------------------------------------

_REQUEST = QuantifyRequest(dataset="pop", function="bundle-f", min_partition_size=5)


def _warm_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(_population(), name="pop")
    service.register_function(_FUNCTION)
    return service


def _warm_manifest(edit):
    return lambda root: _edit_json(root / "warm" / bundle.MANIFEST, edit)


def _warm_results_outside(root: Path) -> None:
    shutil.copy(root / "warm" / "results.json", root / "results.json")
    _warm_manifest(_set("results", "../results.json"))(root)


def _warm_results(edit):
    return lambda root: _edit_json(root / "warm" / "results.json", edit)


def _warm_entry(edit):
    return _warm_results(lambda document: edit(document["results"][0]))


def _warm_results_in_a_directory(root: Path) -> None:
    (root / "warm" / "sub").mkdir()
    _warm_manifest(_set("results", "sub"))(root)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


_COLD = {"results": 0}

#: case -> (mutation, skip reason)
WARM_CASES = {
    "truncated-results": (lambda root: _truncate(root / "warm" / "results.json"), "manifest"),
    "missing-results": (lambda root: (root / "warm" / "results.json").unlink(), "manifest"),
    "non-local-results": (_warm_results_outside, "manifest"),
    "absolute-results": (
        lambda root: _warm_manifest(_set("results", str(root / "warm" / "results.json")))(root),
        "manifest",
    ),
    "foreign-format": (_warm_manifest(_set("format", "x")), "manifest"),
    "foreign-version": (_warm_manifest(_set("version", 99)), "manifest"),
    "missing-field": (_warm_manifest(_delete("catalog_fingerprint")), "manifest"),
    "catalog-drift": (_warm_manifest(_set("catalog_fingerprint", "0" * 64)), "catalog_drift"),
    "truncated-manifest": (lambda root: _truncate(root / "warm" / bundle.MANIFEST), "manifest"),
    "manifest-not-an-object": (
        lambda root: _write(root / "warm" / bundle.MANIFEST, "[]"), "manifest"
    ),
    "previous-version": (_warm_manifest(_set("version", 3)), "manifest"),
    "missing-results-field": (_warm_manifest(_delete("results")), "manifest"),
    "results-name-not-a-string": (_warm_manifest(_set("results", 5)), "manifest"),
    "results-is-a-directory": (_warm_results_in_a_directory, "manifest"),
    "results-not-an-object": (
        lambda root: _write(root / "warm" / "results.json", "[]"), "manifest"
    ),
    "results-missing-list": (_warm_results(_delete("results")), "manifest"),
    "results-not-a-list": (_warm_results(_set("results", 5)), "manifest"),
    "entry-not-an-object": (_warm_results(_set("results", ["entry"])), "manifest"),
    "entry-missing-key": (_warm_entry(_delete("key")), "manifest"),
    "entry-payload-not-an-object": (_warm_entry(_set("payload", "{}")), "manifest"),
}


def _skips(reason: str) -> float:
    return get_registry().counter("fairank_warmstart_skips_total").value(reason=reason)


@pytest.mark.parametrize("case", sorted(WARM_CASES))
def test_broken_warm_bundle_is_skipped_with_a_reason(tmp_path, case):
    warm = _warm_service()
    reference = warm.execute(_REQUEST)
    warm.save_warm_state(tmp_path / "warm")
    mutate, reason = WARM_CASES[case]
    mutate(tmp_path)
    before = _skips(reason)
    restarted = _warm_service()
    assert restarted.load_warm_state(tmp_path / "warm") == _COLD
    assert _skips(reason) == before + 1
    result = restarted.execute(_REQUEST)
    assert not result.cached
    assert result.canonical() == reference.canonical()


# -- catalog snapshots --------------------------------------------------------


def _snapshot_document(edit):
    return lambda root: _edit_json(root / "deploy" / "snap.json", edit)


def _sidecar_file(root: Path) -> Path:
    return next((root / "deploy" / "snap.json.columns").glob("*/col_0.bin"))


def _snapshot_sidecar_outside(root: Path) -> None:
    sidecar = _sidecar_file(root).parent
    shutil.copytree(sidecar, root / "elsewhere")

    def point_outside(document):
        for entry in document["resources"]:
            if entry["kind"] == "dataset":
                entry["columns"]["dir"] = "../elsewhere"

    _snapshot_document(point_outside)(root)


SNAPSHOT_CASES = {
    "truncated": lambda root: _truncate(_sidecar_file(root)),
    "over-long": lambda root: _extend(_sidecar_file(root)),
    "non-local": _snapshot_sidecar_outside,
    "foreign-format": _snapshot_document(_set("format", "x")),
    "foreign-version": _snapshot_document(_set("version", 99)),
    "missing-field": _snapshot_document(_delete("resources")),
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
def test_broken_catalog_snapshot_is_a_catalog_error(tmp_path, case):
    catalog = Catalog()
    catalog.register(_population(), name="pop")
    catalog.register(_FUNCTION)
    catalog.save(tmp_path / "deploy" / "snap.json")
    SNAPSHOT_CASES[case](tmp_path)
    with pytest.raises(CatalogError):
        load_catalog(tmp_path / "deploy" / "snap.json")


# -- the previous on-disk layout ----------------------------------------------


def _toy() -> Dataset:
    schema = Schema((
        protected("Gender", domain=("F", "M")),
        protected("Senior", domain=(True, False)),
        observed("Rating", domain=(0.0, 1.0)),
    ))
    records = [
        {"Gender": "F", "Senior": True, "Rating": 0.9},
        {"Gender": "M", "Senior": False, "Rating": 0.4},
        {"Gender": "F", "Senior": False, "Rating": 0.7},
        {"Gender": "M", "Senior": True, "Rating": 0.2},
    ]
    return Dataset.from_records(schema, records, name="toy")


def _write_previous_layout_snapshot(root: Path, dataset: Dataset, function) -> Path:
    """A snapshot + v1 sidecar written the way builds before repro.bundle did:
    ``ndarray.tofile`` straight into each file, then each JSON document.

    The snapshot document carries the current version: a version-1 snapshot
    records row-hash fingerprints and is refused whole, so the layout under
    test here is the sidecar's bytes."""
    sidecar = root / "snap.json.columns" / "0123456789abcdef"
    sidecar.mkdir(parents=True)
    np.array([0, 1, 0, 1], dtype=np.int64).tofile(sidecar / "col_0.bin")
    np.array([0, 1, 1, 0], dtype=np.int64).tofile(sidecar / "col_1.bin")
    np.array([0.9, 0.4, 0.7, 0.2]).tofile(sidecar / "col_2.bin")
    (sidecar / "manifest.json").write_text(json.dumps({
        "format": "fairank-columns",
        "version": 1,
        "rows": 4,
        "uids": "explicit",
        "columns": [
            {"name": "Gender", "kind": "coded", "file": "col_0.bin", "dtype": "int64",
             "values": ["F", "M"]},
            {"name": "Senior", "kind": "coded", "file": "col_1.bin", "dtype": "int64",
             "values": [{"t": "b", "v": True}, {"t": "b", "v": False}]},
            {"name": "Rating", "kind": "numeric", "file": "col_2.bin", "dtype": "float64"},
        ],
    }, indent=2) + "\n")
    (sidecar / "uids.json").write_text(json.dumps(list(dataset.uids)) + "\n")
    schema = [
        {"name": attribute.name, "kind": attribute.kind.value,
         "atype": attribute.atype.value,
         "domain": None if attribute.domain is None else list(attribute.domain),
         "description": attribute.description}
        for attribute in dataset.schema
    ]
    path = root / "snap.json"
    path.write_text(json.dumps({
        "format": "fairank-catalog",
        "version": bundle.SNAPSHOT.version,
        "resources": [
            {"kind": "dataset", "name": "toy", "frozen": False,
             "fingerprint": fingerprint_dataset(dataset),
             "columns": {"dir": "snap.json.columns/0123456789abcdef",
                         "name": "toy", "schema": schema}},
            {"kind": "function", "name": function.name, "frozen": False,
             "fingerprint": fingerprint_function(function),
             "function": {"type": "linear", "name": function.name,
                          "weights": dict(function.weights)}},
        ],
    }, indent=2) + "\n")
    return path


def test_previous_layout_sidecar_and_snapshot_load_byte_identically(tmp_path):
    dataset = _toy()
    function = LinearScoringFunction({"Rating": 1.0}, name="toy-f")
    path = _write_previous_layout_snapshot(tmp_path, dataset, function)

    loaded = load_catalog(path)
    reloaded = loaded.resolve(ResourceKind.DATASET, "toy")
    assert fingerprint_dataset(reloaded) == fingerprint_dataset(dataset)
    assert reloaded.to_records() == dataset.to_records()

    live = FairnessService()
    live.register_dataset(dataset, name="toy")
    live.register_function(function)
    request = QuantifyRequest(dataset="toy", function="toy-f", min_partition_size=1)
    booted = FairnessService(catalog=loaded).execute(request)
    assert booted.canonical() == live.execute(request).canonical()
