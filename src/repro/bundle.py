"""The one on-disk bundle format: raw ``.bin`` arrays plus a JSON manifest.

This module is the only code that reads or writes the bytes of FaiRank's
persisted artifacts: column sidecars (:mod:`repro.data.columns`),
warm-start bundles (:mod:`repro.service.warmstart`: a manifest naming the
catalog fingerprint plus ``results.json``, the result-cache bytes) and
catalog snapshot documents (:mod:`repro.snapshot`).

Writing (:class:`BundleWriter`) unlinks the old manifest first, replaces
every file atomically (temporary name, then ``os.replace``) and writes the
manifest last.  A failed save therefore reads as "no bundle", never as an
old manifest over new files, and a reader that memory-maps a file keeps its
old inode while a re-save replaces the name.  Once the manifest is written,
the ``.bin`` files of an earlier, larger save that this one did not write
are removed, so a re-saved directory holds only what its manifest names.
Files are not fsync-ed; a file torn by a crash fails the length check on
read.

Reading checks the manifest's ``format`` and ``version``, accepts only file
names inside the bundle, and requires every array to hold exactly the
expected number of values (one ``stat``, so a memory-mapped load reads no
data).  Every failure is a :class:`~repro.errors.BundleError` with reason
``manifest`` (unreadable, foreign, stale or malformed metadata) or
``truncated`` (an array file missing or of the wrong size).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Set, Union

import numpy as np

from repro.errors import BundleError

__all__ = [
    "MANIFEST", "BundleKind", "COLUMNS", "WARM_START", "SNAPSHOT",
    "BundleWriter", "local_path", "open_manifest", "read_array", "read_document",
    "read_json", "replace_text", "write_document",
]

#: File name of a bundle directory's manifest.
MANIFEST = "manifest.json"


class BundleKind(NamedTuple):
    """The ``format``/``version`` stamp of one bundle kind, and its name in errors."""

    format: str
    version: int
    label: str


COLUMNS = BundleKind("fairank-columns", 1, "column sidecar")
#: Version 4 holds the catalog fingerprint and the result cache only.
#: Older bundles are refused (reason ``manifest``) and boot cold, so an old
#: answer is never served: version 3 also listed score-store bundles,
#: version 2 holds answers from before the one EMD kernel (a 2-histogram
#: distance differs in its last bits), and version 1 carries row-hash
#: dataset fingerprints.
WARM_START = BundleKind("fairank-warmstart", 4, "warm-start bundle")
#: Version 3 stores every dataset as a column bundle (or a ``csv`` reference);
#: version 2 (inline rows, generator loaders) and version 1 (row-hash
#: fingerprints) are refused (reason ``manifest``), never converted.
SNAPSHOT = BundleKind("fairank-catalog", 3, "catalog snapshot")


def local_path(directory: Path, name: object) -> Path:
    """``directory / name``, refusing any name that could leave ``directory``.

    Relative names with several components (a snapshot's
    ``snap.json.columns/<fingerprint>``) are accepted; absolute names and
    ``.``/``..`` components are not.
    """
    if not isinstance(name, str) or any(
        part in ("", ".", "..") for part in name.split("/")
    ):
        raise BundleError(
            f"bundle in {directory} references a non-local file {name!r}",
            reason="manifest",
        )
    return directory / name


# -- reading ------------------------------------------------------------------


def read_json(path: Path, label: str = "bundle file") -> object:
    """Parse one JSON file of a bundle (reason ``manifest`` if unreadable)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise BundleError(f"cannot read {label} {path}: {error}", reason="manifest") from None
    try:
        return json.loads(text)
    except ValueError as error:
        raise BundleError(
            f"{label} {path} is not valid JSON (truncated file?): {error}",
            reason="manifest",
        ) from None


def read_document(path: Path, kind: BundleKind) -> Dict[str, object]:
    """Read a JSON document stamped with ``kind``'s format and version."""
    document = read_json(path, kind.label)
    if not isinstance(document, dict) or document.get("format") != kind.format:
        raise BundleError(
            f"{path} is not a {kind.label} (missing \"format\": \"{kind.format}\")",
            reason="manifest",
        )
    if document.get("version") != kind.version:
        raise BundleError(
            f"unsupported {kind.label} version {document.get('version')!r}; "
            f"this build reads version {kind.version}",
            reason="manifest",
        )
    return document


def read_array(directory: Path, name: object, dtype: type, length: int) -> np.ndarray:
    """One read-only raw array of exactly ``length`` values, memory-mapped.

    Rows page in on demand, and a re-save that replaces the file's name
    leaves the mapped inode intact.
    """
    path = local_path(directory, name)
    dtype = np.dtype(dtype)
    expected = length * dtype.itemsize
    try:
        size = path.stat().st_size
    except OSError as error:
        raise BundleError(f"cannot read {path}: {error}", reason="truncated") from None
    if size != expected:
        raise BundleError(
            f"{path} holds {size} bytes, expected {length} {dtype} values "
            f"({expected} bytes): truncated or foreign file",
            reason="truncated",
        )
    try:
        if length == 0:
            array = np.empty(0, dtype=dtype)
        else:
            array = np.memmap(path, dtype=dtype, mode="r", shape=(length,))
    # The file changed size between the stat and the read.
    except (OSError, ValueError) as error:
        raise BundleError(f"cannot read {path}: {error}", reason="truncated") from None
    if array.size != length:
        raise BundleError(f"{path} shrank while being read", reason="truncated")
    array.setflags(write=False)
    return array


@contextmanager
def open_manifest(directory: Path, kind: BundleKind) -> Iterator[Dict[str, object]]:
    """The verified manifest of the bundle ``directory``, for a ``with`` block.

    A missing or mistyped field read inside the block raises
    ``BundleError(reason="manifest")``, never a builtin error.
    """
    try:
        yield read_document(directory / MANIFEST, kind)
    except (KeyError, TypeError, ValueError) as error:
        raise BundleError(
            f"{kind.label} in {directory} is malformed: {error!r}", reason="manifest"
        ) from None


# -- writing ------------------------------------------------------------------


def _replace(path: Path, write: Callable[[Path], object]) -> None:
    """Write ``path`` through a temporary file renamed over it."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(temporary)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def replace_text(path: Path, text: str) -> None:
    """Atomically replace the UTF-8 text file ``path``."""
    _replace(path, lambda temporary: temporary.write_text(text, encoding="utf-8"))


def write_document(
    path: Path, kind: BundleKind, fields: Mapping[str, object]
) -> Dict[str, object]:
    """Atomically write a JSON document stamped with ``kind``; returns it."""
    document: Dict[str, object] = {"format": kind.format, "version": kind.version}
    document.update(fields)
    replace_text(path, json.dumps(document, indent=2) + "\n")
    return document


class BundleWriter:
    """Writes one bundle directory: files first, the manifest last.

    Creating the writer unlinks the directory's manifest, so from then until
    :meth:`commit` the directory reads as "no bundle".  :meth:`commit` then
    removes every ``.bin`` file in the directory that this writer did not
    write; nothing else in the directory is touched.
    """

    def __init__(self, directory: Union[str, Path], kind: BundleKind) -> None:
        self.directory = Path(directory)
        self.kind = kind
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / MANIFEST).unlink(missing_ok=True)
        self._written: Set[str] = set()

    def array(self, name: str, values: np.ndarray, dtype: type) -> None:
        """Write ``values`` as the raw native-order ``dtype`` file ``name``."""
        data = np.ascontiguousarray(values, dtype=dtype)
        _replace(local_path(self.directory, name), data.tofile)
        self._written.add(name)

    def document(self, name: str, payload: object) -> None:
        """Write ``payload`` as the JSON file ``name``."""
        replace_text(local_path(self.directory, name), json.dumps(payload, indent=2) + "\n")

    def commit(self, fields: Mapping[str, object]) -> Dict[str, object]:
        """Write the manifest (the kind's stamp plus ``fields``); returns it."""
        manifest = write_document(self.directory / MANIFEST, self.kind, fields)
        for path in self.directory.glob("*.bin"):
            if path.name not in self._written:
                path.unlink(missing_ok=True)
        return manifest
