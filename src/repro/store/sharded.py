"""Sharded store — per-worker JSONL shards with a deterministic merge.

The distributed half of the result warehouse: a *directory* of JSONL shard
files, one per writer.  N hosts on a shared filesystem split one grid by
pointing every run at the same ``shard://dir`` store — each process
appends only to its own shard (named by its shard token, so writers never
contend on a file) while reading *all* shards for cache hits.  A torn line
in one shard costs that shard one record, never the directory.

``merge`` then produces the canonical store: every loadable record from
every shard, deduplicated by digest, sorted by content, written as
canonical JSONL.  The output bytes are a pure function of the record *set*
— independent of which worker wrote what, in which order, under which
shard name — which is what lets CI diff two merges of the same grid run.
Deduplication enforces the :mod:`repro.store.record` partition: records
sharing a digest must agree on every addressed field (two workers
simulating one point are bit-identical, per the A/B suites — a mismatch
means nondeterminism and raises :class:`~repro.errors.StoreError`), while
host-side differences (timing, retries, sweep provenance) are resolved by
a deterministic tie-break on the canonical byte form.

``compact`` is merge-in-place: the directory's shards collapse into one
``shard-compacted.jsonl``, which later writers treat as just another peer
shard.
"""

from __future__ import annotations

import copy
import glob
import os
import re
import socket
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.store.backend import StoreStat
from repro.store.jsonl import JsonlBackend
from repro.store.query import matches
from repro.store.record import addressed_view, canonical_line

#: URL prefix understood by :func:`repro.store.url.open_store`.
URL_PREFIX = "shard://"

#: Environment variable naming this process's shard token (CI sets it per
#: host/worker; unset, the token derives from hostname + pid).
SHARD_ENV = "REPRO_SHARD"

#: Token of the shard ``compact`` writes; user tokens may not claim it.
COMPACTED_TOKEN = "compacted"

_TOKEN_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def default_shard_token() -> str:
    """This process's shard identity: ``$REPRO_SHARD`` or hostname-pid.

    Host-side only — the token names a *file*, never enters a record or a
    digest, and the merge output is independent of it by construction.
    """
    token = os.environ.get(SHARD_ENV, "")
    if not token:
        token = f"{socket.gethostname()}-{os.getpid()}"
    return sanitize_token(token)


def sanitize_token(token: str) -> str:
    cleaned = _TOKEN_SAFE.sub("-", token).strip("-.")
    if not cleaned:
        raise StoreError(f"unusable shard token {token!r}")
    return cleaned


def _shard_path(directory: str, token: str) -> str:
    return os.path.join(directory, f"shard-{token}.jsonl")


def shard_files(directory: str) -> List[str]:
    """Every shard file in ``directory``, in sorted (deterministic) order."""
    return sorted(glob.glob(os.path.join(directory, "*.jsonl")))


class ShardedStore:
    """A directory of per-writer JSONL shards, read as one store.

    Writes go to this process's own shard (token from ``shard=``, then
    ``$REPRO_SHARD``, then hostname-pid); reads see the union of every
    shard present when the store was opened — the same open-time snapshot
    semantics the single-file store has always had.  Records duplicated
    across shards resolve exactly like ``merge`` resolves them, so cache
    hits and merged stores can never disagree.
    """

    def __init__(self, directory: str, shard: Optional[str] = None) -> None:
        self._dir = directory
        os.makedirs(directory, exist_ok=True)
        token = sanitize_token(shard) if shard is not None else default_shard_token()
        own_path = _shard_path(directory, token)
        self._own = JsonlBackend(own_path)
        self._peers = [
            JsonlBackend(path)
            for path in shard_files(directory)
            if os.path.abspath(path) != os.path.abspath(own_path)
        ]
        # The combined view: every shard's records, conflicts resolved by
        # the merge rule (addressed fields must agree; host-side ties break
        # on canonical bytes).  Built once at open; puts update it.
        self._records: Dict[str, dict] = {}
        for backend in [self._own] + self._peers:
            for record in backend.iter_records():
                _absorb(self._records, record, source=backend.path)

    @property
    def path(self) -> str:
        return self._dir

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def digests(self) -> Iterator[str]:
        return iter(sorted(self._records))

    def get(self, digest: str) -> Optional[dict]:
        record = self._records.get(digest)
        if record is None:
            return None
        return copy.deepcopy(record)

    def put(
        self,
        digest: str,
        resolved_point: Mapping[str, object],
        result: Mapping[str, object],
        sweep_name: str = "",
        timing: Optional[Mapping[str, float]] = None,
        retries: int = 0,
    ) -> dict:
        record = self._own.put(
            digest, resolved_point, result, sweep_name, timing, retries
        )
        _absorb(self._records, record, source=self._own.path)
        return record

    def put_record(self, record: Mapping[str, object]) -> dict:
        stored = self._own.put_record(record)
        _absorb(self._records, stored, source=self._own.path)
        return stored

    def iter_records(
        self, sweeps: Optional[Sequence[str]] = None
    ) -> Iterator[dict]:
        wanted = set(sweeps) if sweeps is not None else None
        for digest in sorted(self._records):
            record = self._records[digest]
            if wanted is None or record.get("sweep") in wanted:
                yield copy.deepcopy(record)

    def select(
        self,
        where: Optional[Mapping[str, object]] = None,
        sweeps: Optional[Sequence[str]] = None,
    ) -> Iterator[dict]:
        for record in self.iter_records(sweeps):
            if matches(record, where):
                yield record

    def stat(self) -> StoreStat:
        sweeps: Dict[str, int] = {}
        for record in self._records.values():
            name = str(record.get("sweep", ""))
            sweeps[name] = sweeps.get(name, 0) + 1
        shards = {
            os.path.basename(backend.path): len(backend)
            for backend in [self._own] + self._peers
            if os.path.exists(backend.path)
        }
        return StoreStat(
            url=URL_PREFIX + self._dir,
            backend="shard",
            records=len(self._records),
            schema_skips=sum(
                backend.schema_skips for backend in [self._own] + self._peers
            ),
            torn_skips=sum(
                backend.torn_skips for backend in [self._own] + self._peers
            ),
            sweeps=dict(sorted(sweeps.items())),
            shards=dict(sorted(shards.items())),
        )


def _absorb(records: Dict[str, dict], record: dict, source: str) -> None:
    """Fold one record into the combined view under the merge rule."""
    digest = str(record["digest"])
    existing = records.get(digest)
    if existing is None:
        records[digest] = record
        return
    if addressed_view(existing) != addressed_view(record):
        raise StoreError(
            f"shard merge conflict for digest {digest[:16]}…: two records "
            f"disagree on addressed fields (one from {source}) — the same "
            "point produced different results, which the determinism suites "
            "say cannot happen; refusing to pick a winner"
        )
    # Host-side-only difference: deterministic tie-break on canonical bytes,
    # so the winner cannot depend on shard names or write order.
    if canonical_line(record) < canonical_line(existing):
        records[digest] = record


@dataclass(frozen=True)
class MergeStats:
    """What a merge saw: kept records and per-shard skip counts."""

    records: int
    shards: int
    duplicates: int  # records dropped as same-digest twins
    schema_skips: int
    torn_skips: int


def merge_shards(directory: str, output_path: str) -> MergeStats:
    """Merge every shard in ``directory`` into canonical JSONL at ``output_path``.

    The output holds every loadable (current-schema) record exactly once,
    one canonical key-sorted JSON object per line, sorted by digest — a
    pure function of the record set, so the bytes are identical no matter
    which worker wrote which shard or in what order.  Stale-schema and
    torn lines are *counted* (see :class:`MergeStats`), never silently
    forgotten.  Refuses same-digest records that disagree on addressed
    fields (see module docstring).
    """
    files = shard_files(directory)
    combined: Dict[str, dict] = {}
    schema_skips = 0
    torn_skips = 0
    total = 0
    for path in files:
        backend = JsonlBackend(path)
        schema_skips += backend.schema_skips
        torn_skips += backend.torn_skips
        for record in backend.iter_records():
            total += 1
            _absorb(combined, record, source=path)
    out_dir = os.path.dirname(output_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    tmp_path = output_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        for digest in sorted(combined):
            handle.write(canonical_line(combined[digest]) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, output_path)
    return MergeStats(
        records=len(combined),
        shards=len(files),
        duplicates=total - len(combined),
        schema_skips=schema_skips,
        torn_skips=torn_skips,
    )


def compact_shards(directory: str) -> Tuple[MergeStats, str]:
    """Collapse a shard directory into one canonical shard, in place.

    Merges into ``shard-compacted.jsonl`` (atomically, via a temp file that
    is *not* a ``.jsonl`` until renamed) and removes the source shards.
    Idempotent: compacting a compacted directory rewrites the same bytes.
    """
    files = shard_files(directory)
    target = _shard_path(directory, COMPACTED_TOKEN)
    stats = merge_shards(directory, target)
    for path in files:
        if os.path.abspath(path) != os.path.abspath(target):
            os.remove(path)
    return stats, target
