"""The result warehouse: backend-abstracted, queryable result storage.

Grown out of the sweep layer's single JSONL file, the warehouse separates
*what* a result record is from *where* it lives:

* :mod:`repro.store.record` — the record schema every backend shares, with
  its addressed/host-side field partition (lint-enforced via DIG002).
* :mod:`repro.store.backend` — the :class:`ResultBackend` protocol the
  runner, facade, report layer, and CLIs are written against.
* :mod:`repro.store.jsonl` — :class:`JsonlBackend`, the original
  append-only JSONL file (torn-tail repair, fsync-per-append, advisory
  ``flock`` for multi-process appends).
* :mod:`repro.store.sqlite` — :class:`SqliteBackend`, one indexed table in
  WAL mode: sweeps stop being grep-a-JSONL exercises.
* :mod:`repro.store.sharded` — :class:`ShardedStore`, per-worker shards in
  one directory plus a deterministic, content-sorted merge: N hosts on a
  shared filesystem split one grid.
* :mod:`repro.store.url` — :func:`open_store`, the URL scheme every
  ``--store`` flag speaks (``path.jsonl``, ``sqlite://path.db``,
  ``shard://dir``).
* :mod:`repro.store.query` — the dotted-path where-clause matcher shared
  by every backend's ``select`` and the ``repro.store query`` CLI.

Store choice is host-side and never content-addressed: the same sweep
produces identical digests, records, and cache hits on every backend, and
``merge`` output bytes are independent of which worker wrote what — the
A/B suite in ``tests/test_store_backends.py`` is the proof.
"""

from repro.store.backend import ResultBackend, StoreStat
from repro.store.jsonl import JsonlBackend
from repro.store.query import matches, resolve_record_path
from repro.store.record import (
    ADDRESSED_RECORD_FIELDS,
    HOST_SIDE_RECORD_FIELDS,
    RESULT_SCHEMA_TAG,
    StoreRecord,
    canonical_line,
    make_record,
    record_status,
)
from repro.store.sharded import (
    MergeStats,
    ShardedStore,
    compact_shards,
    merge_shards,
)
from repro.store.sqlite import SqliteBackend
from repro.store.url import as_backend, open_store

__all__ = [
    "ADDRESSED_RECORD_FIELDS",
    "HOST_SIDE_RECORD_FIELDS",
    "JsonlBackend",
    "MergeStats",
    "RESULT_SCHEMA_TAG",
    "ResultBackend",
    "ShardedStore",
    "SqliteBackend",
    "StoreRecord",
    "StoreStat",
    "as_backend",
    "canonical_line",
    "compact_shards",
    "make_record",
    "matches",
    "merge_shards",
    "open_store",
    "record_status",
    "resolve_record_path",
]
