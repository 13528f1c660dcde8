"""Stable content fingerprints for service cache keys.

The service layer memoises results by *content*, not by object identity:
two semantically identical requests — same individuals, same weights, same
formulation — must map to the same cache key even when the objects carrying
them were built independently (e.g. a fresh ``RankDerivedScorer`` per panel,
or a re-filtered copy of a registered dataset).

Three fingerprint sources compose into a key:

* datasets hash their schema, one digest per column buffer and their uids
  (:func:`fingerprint_dataset`), memoised per object.  A column whose every
  value is a float hashes as its little-endian ``float64`` bytes (NaN made
  canonical); any other column hashes its type-tagged decode table plus its
  ``int64`` codes, both first remapped to first-seen row order, so the hash
  depends on the values alone and not on how the store was built.  No
  per-row Python value is created;
* scoring functions expose a ``fingerprint()`` protocol
  (:meth:`repro.scoring.base.ScoringFunction.fingerprint`); functions without
  a structured representation fall back to a pickle hash, and unpicklable
  functions degrade to an identity token (caching still works while the same
  object is reused, and never aliases two different functions);
* formulations and plain request parameters hash through a canonical
  recursive encoding (:func:`fingerprint_value`).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from enum import Enum
from typing import Dict, List, Optional
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.formulations import Formulation
from repro.data.columns import CodedColumn, Column, ColumnStore
from repro.data.dataset import Dataset
from repro.scoring.base import ScoringFunction

__all__ = [
    "combine_fingerprints",
    "fingerprint_value",
    "fingerprint_dataset",
    "fingerprint_function",
    "fingerprint_formulation",
    "fingerprint_marketplace",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode(value: object) -> bytes:
    """Canonical byte encoding of a JSON-ish value tree.

    Every branch is tagged by type so e.g. the string ``"1"`` and the int
    ``1`` never collide, floats use ``float.hex()`` for exactness, and dicts
    are encoded in sorted-key order.
    """
    if value is None:
        return b"n;"
    if isinstance(value, bool):
        return b"b1;" if value else b"b0;"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii") + b";"
    if isinstance(value, float):
        return b"f" + value.hex().encode("ascii") + b";"
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"s" + str(len(encoded)).encode("ascii") + b":" + encoded + b";"
    if isinstance(value, bytes):
        return b"y" + str(len(value)).encode("ascii") + b":" + value + b";"
    if isinstance(value, Enum):
        return b"e" + _encode(value.value)
    if isinstance(value, (list, tuple)):
        return b"l" + b"".join(_encode(item) for item in value) + b";"
    if isinstance(value, (set, frozenset)):
        return b"t" + b"".join(sorted(_encode(item) for item in value)) + b";"
    if isinstance(value, dict):
        parts = [
            _encode(key) + _encode(value[key])
            for key in sorted(value, key=lambda k: (str(type(k)), str(k)))
        ]
        return b"d" + b"".join(parts) + b";"
    # Last resort for exotic leaf values (e.g. numpy scalars): repr is stable
    # within a process and across processes for the value types we store.
    return b"r" + repr(value).encode("utf-8") + b";"


def fingerprint_value(value: object) -> str:
    """Stable hash of a plain parameter tree (strings, numbers, lists, dicts)."""
    return _digest(b"value\x00" + _encode(value))


# -- datasets -----------------------------------------------------------------

_dataset_cache: "WeakKeyDictionary[Dataset, str]" = WeakKeyDictionary()
_dataset_cache_lock = threading.Lock()


#: Byte orders the column digests hash in, whatever the host's order.
_FLOAT64 = np.dtype("<f8")
_INT64 = np.dtype("<i8")


def _float_digest(values: np.ndarray) -> bytes:
    """Digest of a float column: its ``float64`` bytes, every NaN canonical."""
    nan = np.isnan(values)
    if nan.any():
        values = np.where(nan, np.nan, values)
    digest = hashlib.sha256(b"float64\x00")
    digest.update(np.ascontiguousarray(values, dtype=_FLOAT64))
    return digest.digest()


def _first_seen(codes: np.ndarray, size: int) -> List[int]:
    """The table codes rows use, in order of each code's first row."""
    used = int(np.count_nonzero(np.bincount(codes, minlength=size)))
    # Every used code's first row usually lies in a short prefix; widen it
    # until the prefix holds them all (at worst, the whole column).
    prefix = 1024
    while True:
        present, first = np.unique(codes[:prefix], return_index=True)
        if len(present) == used:
            return present[np.argsort(first)].tolist()
        prefix *= 16


def _column_digest(column: Column) -> bytes:
    """Digest of one column's values, independent of how it was built."""
    if not isinstance(column, CodedColumn):
        return _float_digest(column.values)
    codes, table = column.codes, column.values
    used = _first_seen(codes, len(table))
    if all(isinstance(table[code], float) for code in used):
        lookup = np.zeros(len(table), dtype=np.float64)
        lookup[used] = [table[code] for code in used]
        return _float_digest(lookup[codes])
    # Type-exact keys (1, 1.0, True and "1" stay distinct; all NaNs are one
    # key); a duplicate entry takes the code of its first-seen twin.
    keys: Dict[bytes, int] = {}
    remap = np.zeros(len(table), dtype=np.int64)
    for code in used:
        remap[code] = keys.setdefault(_encode(table[code]), len(keys))
    if len(keys) != len(used) or used != list(range(len(used))):
        codes = remap[codes]
    digest = hashlib.sha256(b"coded\x00")
    digest.update(_encode(len(keys)))
    digest.update(b"".join(keys))
    digest.update(np.ascontiguousarray(codes, dtype=_INT64))
    return digest.digest()


def _uids_digest(store: ColumnStore) -> bytes:
    """Digest of the row ids: a ``("seq", n)`` marker for ``w1..wn``."""
    uids = store.explicit_uids
    if uids is None or all(
        uid == f"w{index}" for index, uid in enumerate(uids, start=1)
    ):
        return hashlib.sha256(_encode(("seq", store.n))).digest()
    encoded = [uid.encode("utf-8") for uid in uids]
    digest = hashlib.sha256(b"uids\x00")
    digest.update(np.fromiter(map(len, encoded), dtype=_INT64, count=len(encoded)))
    digest.update(b"".join(encoded))
    return digest.digest()


def _hash_dataset(dataset: Dataset) -> str:
    digest = hashlib.sha256(b"dataset-v2\x00")
    for attr in dataset.schema:
        digest.update(
            _encode((attr.name, attr.kind.value, attr.atype.value, attr.domain))
        )
    store = dataset.store
    for name in dataset.schema.names:
        digest.update(_column_digest(store[name]))
    digest.update(_uids_digest(store))
    return digest.hexdigest()


def fingerprint_dataset(dataset: Dataset) -> str:
    """Content hash of a dataset (schema + rows), memoised per object.

    The dataset's display ``name`` is deliberately excluded: renaming a
    population does not change any fairness result, so it should not defeat
    the cache.
    """
    with _dataset_cache_lock:
        cached = _dataset_cache.get(dataset)
    if cached is not None:
        return cached
    value = _hash_dataset(dataset)
    with _dataset_cache_lock:
        _dataset_cache[dataset] = value
    return value


# -- scoring functions --------------------------------------------------------

def fingerprint_function(function: ScoringFunction) -> str:
    """Content hash of a scoring function.

    Prefers the function's own :meth:`~repro.scoring.base.ScoringFunction.fingerprint`
    protocol; falls back to hashing its pickle serialisation, and finally to
    a per-object identity token for unpicklable functions (conservative: the
    same object keeps hitting the cache, distinct objects never alias).
    """
    try:
        return str(function.fingerprint())
    # No structured fingerprint: fall through to the pickle hash below.
    # fairlint: disable=FL007 -- documented fallback chain
    except NotImplementedError:
        pass
    try:
        blob = pickle.dumps(function, protocol=4)
    except Exception:
        return _digest(
            b"function-identity\x00"
            + f"{type(function).__module__}.{type(function).__qualname__}"
              f":{id(function)}".encode("utf-8")
        )
    return _digest(b"function-pickle\x00" + blob)


# -- formulations -------------------------------------------------------------

def fingerprint_formulation(formulation: Formulation) -> str:
    """Content hash of a formulation (objective, aggregation, distance, binning)."""
    binning = formulation.effective_binning
    return _digest(
        b"formulation\x00"
        + _encode(
            (
                formulation.objective.value,
                formulation.aggregation.value,
                formulation.distance.name,
                float(binning.low),
                float(binning.high),
                int(binning.bins),
            )
        )
    )


# -- marketplaces -------------------------------------------------------------

def fingerprint_marketplace(marketplace) -> str:
    """Content hash of a marketplace: its workers plus every job's identity.

    A job contributes its title, its scoring function's content fingerprint
    and its candidate filter, so two crawls that rebuilt identical platforms
    share cache entries while any re-weighted job changes the hash.
    """
    parts = [fingerprint_dataset(marketplace.workers)]
    for job in marketplace:
        parts.append(
            combine_fingerprints(
                "job",
                fingerprint_value(job.title),
                fingerprint_function(job.function),
                fingerprint_value(job.candidate_filter.describe()),
            )
        )
    return combine_fingerprints("marketplace", *parts)


def combine_fingerprints(*parts: Optional[str]) -> str:
    """Fold component fingerprints (and literal tags) into one cache key."""
    digest = hashlib.sha256()
    digest.update(b"combined\x00")
    for part in parts:
        if part is None:
            digest.update(b"N;")
        else:
            encoded = part.encode("utf-8")
            digest.update(b"s" + str(len(encoded)).encode("ascii") + b":" + encoded + b";")
    return digest.hexdigest()
