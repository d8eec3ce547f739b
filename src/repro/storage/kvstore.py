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

    What :meth:`VersionedKVStore.read` and :attr:`ReadResult.values` return;
    the store itself keeps no instances (it holds flat value and version
    maps), so one is built only when a caller asks for this view.
    """

    value: str
    version: int


class ReadResult:
    """The outcome of reading a set of keys at one point in time.

    ``snapshot_token`` identifies the store state the read observed: the
    store's mutation counter at read time.  Two reads with the same token saw
    the exact same state, which lets executors share memoised execution
    results without comparing per-key versions (-1 = unknown/manual).

    A read is held as the two maps its consumers execute against — key →
    value and key → version, same key order — and shared by every executor
    of a batch, so treat them as read-only.  The ``VersionedValue`` view
    (``values``) is derived only if somebody asks for it.
    """

    __slots__ = ("snapshot_token", "_plain_values", "_versions_map", "_values")

    def __init__(
        self, plain_values: Dict[str, str], versions_map: Dict[str, int], snapshot_token: int = -1
    ) -> None:
        self.snapshot_token = snapshot_token
        self._plain_values = plain_values
        self._versions_map = versions_map
        self._values: Optional[Dict[str, VersionedValue]] = None

    @property
    def values(self) -> Dict[str, VersionedValue]:
        cached = self._values
        if cached is None:
            versions = self._versions_map
            cached = self._values = {
                key: VersionedValue(value, versions[key])
                for key, value in self._plain_values.items()
            }
        return cached

    def versions(self) -> Dict[str, int]:
        return dict(self._versions_map)

    def versions_map(self) -> Dict[str, int]:
        """Like :meth:`versions`, without the copy (callers must not mutate)."""
        return self._versions_map

    def plain_values(self) -> Dict[str, str]:
        """The raw key → value mapping (callers must not mutate)."""
        return self._plain_values

    def matches_versions(self, other_versions: Mapping[str, int]) -> bool:
        """True if every key we read has the same version as in ``other_versions``."""
        for key, version in self._versions_map.items():
            if other_versions.get(key) != version:
                return False
        return True


class VersionedKVStore:
    """A simple in-memory versioned key-value store.

    Missing keys read as ``VersionedValue("", 0)`` so that workloads touching
    keys that were never loaded still behave deterministically.

    The state is two flat maps, key → value and key → version, rather than
    one ``VersionedValue`` per key: strings and small ints are not tracked
    by the cyclic collector, so a store of any size adds two container
    objects to the garbage a finished run leaves, not one tuple per key ever
    written.  ``VersionedValue`` is built on demand by :meth:`read` and
    :attr:`ReadResult.values`.

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
        self._mutations = 0
        # keys-tuple -> ReadResult at some recent snapshot: the paper spawns
        # 3f_E+1 executors per batch, and all of them read the same key set —
        # in the common race-free case they hit this cache and share one
        # ReadResult object (and its value/version maps).  Only batches
        # currently in flight benefit, so an entry is evicted once its
        # snapshot token leaves the mutation-log window (_note_mutation);
        # _READ_CACHE_LIMIT caps a store that is read but never written.
        self._read_cache: Dict[Tuple[str, ...], ReadResult] = {}
        # Keys changed by each mutation, ``self._mutation_log[i]`` holding
        # the keys of mutation ``self._mutation_log_base + i + 1`` (None =
        # "many/unknown", e.g. a bulk load).  Lets snapshot consumers prove
        # "nothing I read changed since token T" with one C disjointness
        # check instead of re-reading every key; trimmed so only the recent
        # window is answerable (older tokens report "unknown").
        self._mutation_log: List[Optional[List[str]]] = []
        self._mutation_log_base = 0

    _READ_CACHE_LIMIT = 1024
    #: The history window.  The log keeps the newest 16-32 mutations and a
    #: cached read lives no longer: it need only span the reads in flight.
    #: The oldest snapshot a run proved fresh, and what the single-point
    #: perfledger workloads (seed 1) count with the window at 32 and at 128:
    #:
    #:   ===============================  ======  ==============================
    #:   run                              oldest  read misses / version probes /
    #:                                            batch executions
    #:   ===============================  ======  ==============================
    #:   default-point                    15      805 / 429 / 803 at both
    #:   wide-shim                        7       489 / 9 / 489 at both
    #:   geo-faults                       4       1 751 / 747 / 1 743 at both
    #:   scenario matrix, 138 rows, 5 s   7
    #:   ``base="paper"``, 1.5 s          53      1 249 / 70 / 1 248 (1 248 misses
    #:                                            at 128)
    #:   ===============================  ======  ==============================
    #:
    #: Any window gives the same results: a token older than the window
    #: takes the exact per-key path, and a dropped read is read again.
    _MUTATION_LOG_LIMIT = 32

    def __len__(self) -> int:
        return len(self._values)

    @property
    def read_count(self) -> int:
        return self._reads

    @property
    def write_count(self) -> int:
        return self._writes

    @property
    def mutation_count(self) -> int:
        """Bumps whenever the store's state changes (snapshot identity)."""
        return self._mutations

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
            self._note_mutation(None)

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
        token = self._mutations
        cached = self._read_cache.get(keys)
        if cached is not None:
            if cached.snapshot_token == token:
                return cached
            # The store changed since the cached read, but maybe not under
            # *these* keys (commits touch disjoint key partitions most of
            # the time).  The mutation log usually proves disjointness with
            # one C set check per commit since the snapshot; an unknown
            # answer (a bulk load since) reads again.  Returning the cached
            # object (old token included) keeps every memo keyed on it valid.
            if self.keys_changed_since(cached.snapshot_token, cached.versions_map().keys()) == 0:
                return cached
        # Both maps come from C-level constructors: no per-key Python frame.
        result = ReadResult(
            dict(zip(keys, map(self._values.get, keys, repeat("")))),
            self._versions_of(keys),
            token,
        )
        cache = self._read_cache
        if cached is None and len(cache) >= self._READ_CACHE_LIMIT:
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

    def _note_mutation(self, changed: Optional[List[str]]) -> None:
        self._mutations += 1
        log = self._mutation_log
        log.append(changed)
        if len(log) > self._MUTATION_LOG_LIMIT:
            half = self._MUTATION_LOG_LIMIT // 2
            del log[:half]
            base = self._mutation_log_base = self._mutation_log_base + half
            # Cached reads older than the window belong to batches long out
            # of flight (and could only be revalidated key by key): drop them.
            cache = self._read_cache
            for keys in [k for k, read in cache.items() if read.snapshot_token < base]:
                del cache[keys]

    def keys_changed_since(self, token: int, keys) -> int:
        """Did any of ``keys`` change after snapshot ``token``?

        Returns 0 (provably unchanged), 1 (provably changed: some key's
        version was bumped — versions are monotone under writes, so any
        snapshot of these keys taken at ``token`` is stale), or -1 (unknown:
        the token predates the retained log window or a bulk load happened).
        ``keys`` must support ``isdisjoint`` (set, frozenset, or dict view).
        """
        if token < 0:
            return -1
        base = self._mutation_log_base
        if token < base:
            return -1
        changed = False
        for entry in self._mutation_log[token - base :]:
            if entry is None:
                return -1
            if not changed and not keys.isdisjoint(entry):
                changed = True
        return 1 if changed else 0

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
            self._note_mutation(list(new_versions))
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
        changed: List[str] = []
        extend_changed = changed.extend
        for writes in write_sets:
            # The verifier's write loop: one version bump per rewritten key
            # (a first write needs no entry), then the values in one C update.
            for key in writes:
                if key in values:
                    versions[key] = get(key, 1) + 1
            values.update(writes)
            extend_changed(writes)
        if changed:
            self._writes += len(changed)
            self._note_mutation(changed)

    def get_value(self, key: str) -> Optional[str]:
        return self._values.get(key)

    def keys(self) -> List[str]:
        return list(self._values)
