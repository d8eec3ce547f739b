"""Versioned key-value store (the on-premise data store ``S``).

Every key carries a monotonically increasing version.  Executors attach the
versions they read to their VERIFY messages; the verifier re-reads the same
keys and only applies the writes if the versions still match (the paper's
"read sets match" concurrency-control check).
"""

from __future__ import annotations

from itertools import repeat
from operator import contains, index
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import StorageError


class VersionedValue(NamedTuple):
    """A value together with the version at which it was last written.

    What :meth:`VersionedKVStore.read` returns; the store itself keeps no
    instances (it holds flat value and version maps), so one is built only
    when a caller asks for this view.
    """

    value: str
    version: int


class ReadResult:
    """The outcome of reading a set of keys at one point in time.

    A read is held as the two maps its consumers execute against — key →
    value and key → version, same key order — and shared by every executor
    of a batch that reads before the store's next write, so treat them as
    read-only.
    """

    __slots__ = ("_plain_values", "_versions_map")

    def __init__(self, plain_values: Dict[str, str], versions_map: Dict[str, int]) -> None:
        self._plain_values = plain_values
        self._versions_map = versions_map

    def versions_map(self) -> Dict[str, int]:
        """The key → version mapping (callers must not mutate)."""
        return self._versions_map

    def plain_values(self) -> Dict[str, str]:
        """The raw key → value mapping (callers must not mutate)."""
        return self._plain_values


class VersionedKVStore:
    """A simple in-memory versioned key-value store.

    Missing keys read as ``VersionedValue("", 0)`` so that workloads touching
    keys that were never loaded still behave deterministically.

    The state is two flat maps, key → value and key → version, rather than
    one ``VersionedValue`` per key: strings and small ints are not tracked
    by the cyclic collector, so a store of any size adds two container
    objects to the garbage a finished run leaves, not one tuple per key ever
    written.  ``VersionedValue`` is built on demand by :meth:`read`.

    The version map is sparse.  A key in the value map with no version
    entry is at version 1 (written once, or bulk-loaded); a key in neither
    map is at 0.  Only a write to a stored key adds or bumps an entry.
    Every version that leaves the store is derived with that default, so
    readers get the same plain ``{key: version}`` dicts a full map would
    give.  The value map alone holds the key set and its first-write order.
    Keys and version entries at the end of the single-point perfledger
    workloads (seed 1):

      ==========================  =======  ===============  ===============
      run                         keys     version entries  at version 1
      ==========================  =======  ===============  ===============
      default-point, 1 s          33 978   886              33 092
      default-point, 3 s          134 682  16 080           118 602
      wide-shim (``scale``), 3 s  4 936    4 701            235
      geo-faults (``scale``)      5 000    5 000            0
      ==========================  =======  ===============  ===============

    Short runs of the ``default`` base write most keys once, so the map
    shrinks (the ``paper`` base, 600 k records at about 1.2 writes per key
    per virtual second, should have the same shape at 1 s); on the ``scale``
    base nearly every key is rewritten and the map stays full size, as it
    was before.
    """

    def __init__(self) -> None:
        self._values: Dict[str, str] = {}
        self._versions: Dict[str, int] = {}
        self._reads = 0
        self._writes = 0
        # keys-tuple -> ReadResult since the last write: the paper spawns
        # 3f_E+1 executors per batch, and all of them read the same key set —
        # in the common race-free case they hit this cache and share one
        # ReadResult object (and its value/version maps).  Every write
        # empties it, so a cached read is always current;
        # _READ_CACHE_LIMIT caps a store that is read but never written.
        self._read_cache: Dict[Tuple[str, ...], ReadResult] = {}

    _READ_CACHE_LIMIT = 1024

    def __len__(self) -> int:
        return len(self._values)

    @property
    def read_count(self) -> int:
        return self._reads

    @property
    def write_count(self) -> int:
        return self._writes

    def load(self, num_records: int, key_prefix: str = "user", value: str = "x" * 100) -> None:
        """Bulk-load the initial YCSB table (600 k records in the paper)."""
        if num_records < 0:
            raise StorageError("cannot load a negative number of records")
        keys = [f"{key_prefix}{index}" for index in range(num_records)]
        self._values.update(dict.fromkeys(keys, value))
        versions = self._versions
        if versions:
            # A reloaded key starts again at version 1: no entry.
            for key in versions.keys() & keys:
                del versions[key]
        if num_records:
            self._read_cache.clear()

    def contains(self, key: str) -> bool:
        return key in self._values

    def read(self, key: str) -> VersionedValue:
        self._reads += 1
        values = self._values
        if key in values:
            return VersionedValue(values[key], self._versions.get(key, 1))
        return VersionedValue("", 0)

    def read_many(self, keys: Iterable[str]) -> ReadResult:
        if not isinstance(keys, tuple):
            keys = tuple(keys)
        self._reads += len(keys)
        cache = self._read_cache
        cached = cache.get(keys)
        if cached is not None:
            return cached
        # Both maps come from C-level constructors: no per-key Python frame.
        result = ReadResult(
            dict(zip(keys, map(self._values.get, keys, repeat("")))),
            self._versions_of(keys),
        )
        if len(cache) >= self._READ_CACHE_LIMIT:
            del cache[next(iter(cache))]
        cache[keys] = result
        return result

    def current_versions(self, keys: Iterable[str]) -> Dict[str, int]:
        """Current version of each key (0 if never written; no read counted).

        What the verifier checks a batch's reported read versions against;
        built by C-level constructors, like :meth:`read_many`'s maps.
        """
        if not isinstance(keys, tuple):
            keys = tuple(keys)
        return self._versions_of(keys)

    def _versions_of(self, keys: Tuple[str, ...]) -> Dict[str, int]:
        """Key → version in the order of ``keys``, with no per-key Python
        frame: its entry, else 1 if stored, else 0 (``index`` turns the
        membership test into a plain int, so a version never reads True)."""
        stored = map(index, map(contains, repeat(self._values), keys))
        return dict(zip(keys, map(self._versions.get, keys, stored)))

    def apply_writes(self, writes: Mapping[str, str]) -> Dict[str, int]:
        """Apply a write set atomically, bumping each key's version.

        Returns the new version of every written key.
        """
        values = self._values
        versions = self._versions
        new_versions: Dict[str, int] = {}
        for key, value in writes.items():
            if key in values:
                versions[key] = new_versions[key] = versions.get(key, 1) + 1
            else:
                new_versions[key] = 1
            values[key] = value
        if new_versions:
            self._writes += len(new_versions)
            self._read_cache.clear()
        return new_versions

    def apply_write_sets(self, write_sets: Iterable[Mapping[str, str]]) -> None:
        """Apply several write sets in order (one validated batch).

        Equivalent to calling :meth:`apply_writes` per set — later writes to
        the same key bump its version again — minus the per-set call and
        result-dict overhead the verifier's hot path doesn't need.
        """
        values = self._values
        versions = self._versions
        get = versions.get
        written = 0
        for writes in write_sets:
            # The verifier's write loop: one version bump per rewritten key
            # (a first write needs no entry), then the values in one C update.
            for key in writes:
                if key in values:
                    versions[key] = get(key, 1) + 1
            values.update(writes)
            written += len(writes)
        if written:
            self._writes += written
            self._read_cache.clear()

    def get_value(self, key: str) -> Optional[str]:
        return self._values.get(key)

    def keys(self) -> List[str]:
        return list(self._values)
