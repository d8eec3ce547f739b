"""Per-layer measurements: profile attribution and layer floors.

A *layer* is a source package of ``repro`` (``core`` is split by module,
because its four actors do very different work).  Two kinds of number live
here, both taken from outside the program:

* :func:`attribute_profile` splits one ``cProfile`` run's self time and call
  count by the package of each profiled function;
* the ``floor_*`` functions time one layer's public functions directly, on a
  fixed input, so a layer's ceiling is known apart from any deployment.
"""

from __future__ import annotations

import copy
import hashlib
import os
import time
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

LAYERS = (
    "workload", "storage", "core.verifier", "core.executor", "core.shim_node",
    "core.client", "consensus", "crypto", "cloud", "faults", "obs",
    "sim.engine", "sim.network", "sim.process", "sim.rng", "kernel",
    "api", "sweep", "store", "report", "other",
)

_BY_MODULE = {
    "core/verifier.py": "core.verifier",
    "core/executor.py": "core.executor",
    "core/shim_node.py": "core.shim_node",
    "core/client.py": "core.client",
    "sim/engine.py": "sim.engine",
    "sim/network.py": "sim.network",
    "sim/process.py": "sim.process",
    "sim/rng.py": "sim.rng",
    "kernel.py": "kernel",
}
_BY_PACKAGE = {
    "workload", "storage", "consensus", "crypto", "cloud", "faults", "obs",
    "api", "sweep", "store", "report",
}


def layer_of_file(filename: str) -> str:
    """The layer owning a source file (``other`` outside the named layers)."""
    marker = filename.replace(os.sep, "/").rfind("/repro/")
    if marker < 0:
        return "other"
    relative = filename.replace(os.sep, "/")[marker + len("/repro/"):]
    if relative in _BY_MODULE:
        return _BY_MODULE[relative]
    package = relative.split("/", 1)[0]
    if package == "_ckernel":
        return "kernel"
    return package if package in _BY_PACKAGE else "other"


def attribute_profile(stats: Mapping[tuple, tuple]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Split a profile's self seconds and calls by layer.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``.  A
    Python function lands on the layer of its source file.  A built-in has no
    file: its time and calls are apportioned through the profile's caller
    table to the layers that called it (``dict.get`` lands on whoever called
    it), except the compiled kernel's own entry points, which are ``kernel``.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename != "~":
            layer = layer_of_file(filename)
            self_s[layer] += tottime
            calls[layer] += ncalls
        elif "_ckernel" in name:
            self_s["kernel"] += tottime
            calls["kernel"] += ncalls
        elif not callers:
            self_s["other"] += tottime
            calls["other"] += ncalls
        else:
            for (caller_file, _cl, _cn), (caller_calls, _c, caller_tt, _t) in callers.items():
                layer = "other" if caller_file == "~" else layer_of_file(caller_file)
                self_s[layer] += caller_tt
                calls[layer] += caller_calls
    return self_s, calls


# ---------------------------------------------------------------- floors
#
# Each floor returns (operations, seconds).  Inputs are fixed, so the work is
# the same on every run and only the host time varies.  The first three have
# the shapes of benchmarks/bench_kernel_throughput.py's micros.


def floor_ycsb_gen(total: int = 20_000) -> Tuple[int, float]:
    from repro.workload.ycsb import YCSBConfig, YCSBWorkload

    workload = YCSBWorkload(YCSBConfig(num_records=100_000, clients=8))
    generated = 0
    started = time.perf_counter()
    while generated < total:
        generated += len(
            workload.next_transactions(
                500, client_index_offset=0, origin="floor", request_id="req"
            )
        )
    return generated, time.perf_counter() - started


def floor_execute_batch(batches: int = 600, batch_size: int = 32) -> Tuple[int, float]:
    from repro.workload.transactions import execute_batch
    from repro.workload.ycsb import YCSBConfig, YCSBWorkload

    workload = YCSBWorkload(YCSBConfig(num_records=50_000, clients=8, conflict_fraction=0.2))
    prepared = [workload.next_batch(batch_size) for _ in range(batches)]
    read_values = {f"user{i}": f"val-{i}" for i in range(0, 50_000, 5)}
    read_versions = {f"user{i}": i % 9 for i in range(0, 50_000, 3)}
    started = time.perf_counter()
    for batch in prepared:
        execute_batch(batch, read_values, read_versions)
    return batches, time.perf_counter() - started


def floor_canonical_mb(iterations: int = 30_000) -> Tuple[float, float]:
    from repro.crypto.hashing import canonical_bytes

    payloads = [
        "prepare:view=3:seq=41:" + "d" * 64,
        {"type": "PREPREPARE", "view": 3, "seq": 41, "digest": "a" * 64,
         "replica": "r2", "batch": ["txn-1", "txn-2", "txn-3"]},
        {"writes": {f"user{i}": f"val-{i}:txn-9" for i in range(8)},
         "read_versions": {f"user{i}": i for i in range(8)}},
        ("commit", 7, 123, "b" * 64),
    ]
    total_bytes = 0
    started = time.perf_counter()
    for i in range(iterations):
        total_bytes += len(canonical_bytes(payloads[i % len(payloads)]))
    return total_bytes / 1e6, time.perf_counter() - started


def floor_raw_dispatch(total: int = 200_000, fanout: int = 64) -> Tuple[int, float]:
    from repro.sim.engine import Simulator

    sim = Simulator()
    remaining = [total]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule_fast(1e-6, tick)

    for _ in range(fanout):
        sim.schedule_fast(0.0, tick)
    started = time.perf_counter()
    sim.run_until_idle()
    return sim.events_processed, time.perf_counter() - started


def floor_network(rounds: int = 60, per_round: int = 1_000) -> Tuple[int, float]:
    """``Network.send`` to delivery between two no-op endpoints, geo delays."""
    from repro.cloud.regions import GeoLatencyModel, RegionCatalog
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.rng import DeterministicRNG

    catalog = RegionCatalog()
    sim = Simulator()
    network = Network(sim, GeoLatencyModel(catalog), DeterministicRNG(1))
    network.register("a", catalog.names[0], lambda payload, src: None)
    network.register("b", catalog.names[1], lambda payload, src: None)
    started = time.perf_counter()
    for _ in range(rounds):
        for _ in range(per_round):
            network.send("a", "b", "payload", 256)
        sim.run_until_idle()
    elapsed = time.perf_counter() - started
    if network.messages_delivered != rounds * per_round:
        raise RuntimeError("network floor: not every message was delivered")
    return network.messages_delivered, elapsed


class _LoopbackHost:
    """Zero-cost host for a bare ``PBFTReplica`` (as tests/test_pbft.py does)."""

    def __init__(self, sim) -> None:
        self._sim = sim

    def process(self, cost, callback, *args):
        callback(*args)

    def process_parallel(self, cost, parallelism, callback, *args):
        callback(*args)

    def set_timer(self, delay, callback, *args):
        return self._sim.schedule(delay, callback, *args)

    @property
    def now(self):
        return self._sim.now


def floor_pbft(proposals: int = 1_000) -> Tuple[int, float]:
    """Four replicas on a loop-back transport: ``propose`` until committed."""
    from repro.consensus.pbft import PBFTConfig, PBFTReplica, ReplicaTransport
    from repro.crypto.costs import CryptoCostModel
    from repro.crypto.keys import KeyStore
    from repro.crypto.signatures import SignatureService
    from repro.sim.engine import Simulator

    sim = Simulator()
    names = [f"node-{index}" for index in range(4)]
    replicas: Dict[str, PBFTReplica] = {}
    committed = {name: 0 for name in names}

    class Loopback(ReplicaTransport):
        def __init__(self, owner: str) -> None:
            self._owner = owner

        def send(self, dst, message, size_bytes):
            sim.schedule_fast(0.001, replicas[dst].handle, message, self._owner)

        def broadcast(self, message, size_bytes, targets=None):
            for dst in targets if targets is not None else names:
                if dst != self._owner:
                    self.send(dst, message, size_bytes)

    def count(name: str) -> Callable:
        def on_committed(entry) -> None:
            committed[name] += 1
        return on_committed

    keystore = KeyStore()
    for name in names:
        replicas[name] = PBFTReplica(
            replica_id=name,
            replicas=names,
            config=PBFTConfig(),
            transport=Loopback(name),
            signer=SignatureService(keystore, name),
            cost_model=CryptoCostModel(),
            host=_LoopbackHost(sim),
            on_committed=count(name),
        )
    primary = replicas[names[0]]
    started = time.perf_counter()
    for index in range(proposals):
        primary.propose(f"batch-{index}")
        sim.run(until=sim.now + 0.01)
    elapsed = time.perf_counter() - started
    if min(committed.values()) != proposals:
        raise RuntimeError(f"pbft floor: committed {committed}, proposed {proposals}")
    return proposals, elapsed


def floor_sign_verify(count: int = 20_000) -> Tuple[int, float]:
    from repro.crypto.keys import KeyStore
    from repro.crypto.signatures import SignatureService

    keystore = KeyStore()
    signer = SignatureService(keystore, "signer", backend="real")
    checker = SignatureService(keystore, "checker", backend="real")
    payloads = [f"verify:seq={index}:" + "e" * 64 for index in range(count)]
    started = time.perf_counter()
    valid = sum(checker.verify(payload, signer.sign(payload)) for payload in payloads)
    elapsed = time.perf_counter() - started
    if valid != count:
        raise RuntimeError("crypto floor: a fresh signature did not verify")
    return count, elapsed


def _loaded_store(records: int = 50_000):
    from repro.storage.kvstore import VersionedKVStore

    store = VersionedKVStore()
    store.load(records)
    return store


def floor_read_many(key_sets: int = 16_000, width: int = 32) -> Tuple[int, float]:
    """Each key set read twice: one assembled snapshot, one cache answer."""
    store = _loaded_store()
    sets = [
        tuple(f"user{(start * 17 + offset * 31) % 50_000}" for offset in range(width))
        for start in range(key_sets)
    ]
    started = time.perf_counter()
    for keys in sets:
        store.read_many(keys)
        store.read_many(keys)
    return 2 * key_sets, time.perf_counter() - started


def floor_apply_write_sets(batches: int = 30_000, width: int = 8) -> Tuple[int, float]:
    store = _loaded_store()
    write_sets = [
        [{f"user{(batch * 13 + offset * 7) % 50_000}": f"v{batch}" for offset in range(width)}]
        for batch in range(batches)
    ]
    started = time.perf_counter()
    for write_set in write_sets:
        store.apply_write_sets(write_set)
    return batches * width, time.perf_counter() - started


def relabelled(records: Sequence[Mapping[str, object]], count: int) -> List[dict]:
    """``count`` distinct records synthesised from real ones.

    Each copy keeps the real point and result and gets a fresh digest and a
    ``copy`` label, so stores and the report see ``count`` different points.
    """
    synthesised = []
    for index in range(count):
        record = copy.deepcopy(dict(records[index % len(records)]))
        record["digest"] = hashlib.sha256(
            f"{record['digest']}/{index}".encode("ascii")
        ).hexdigest()
        record["labels"] = {**dict(record.get("labels") or {}), "copy": index}
        synthesised.append(record)
    return synthesised


def floor_stores(records: Sequence[Mapping[str, object]], directory: str) -> Dict[str, float]:
    """put/get rates of the three backends, one select, one render."""
    from repro.report import render_markdown
    from repro.store import open_store

    urls = {
        "jsonl": os.path.join(directory, "floor.jsonl"),
        "sqlite": "sqlite://" + os.path.join(directory, "floor.db"),
        "shard": "shard://" + os.path.join(directory, "floor-shards"),
    }
    os.makedirs(os.path.join(directory, "floor-shards"))
    out: Dict[str, float] = {}
    digests = [str(record["digest"]) for record in records]
    sqlite_store = None
    for kind, url in urls.items():
        store = open_store(url, shard="floor")
        started = time.perf_counter()
        for record in records:
            store.put_record(record)
        out[f"store.{kind}.put_per_s"] = len(records) / (time.perf_counter() - started)
        started = time.perf_counter()
        found = sum(store.get(digest) is not None for digest in digests)
        out[f"store.{kind}.get_per_s"] = len(records) / (time.perf_counter() - started)
        if found != len(records):
            raise RuntimeError(f"store floor: {kind} lost {len(records) - found} record(s)")
        if kind == "sqlite":
            sqlite_store = store
    probe = records[len(records) // 2]
    started = time.perf_counter()
    selected = sum(
        1
        for _ in sqlite_store.select(
            where={"labels.copy": probe["labels"]["copy"]}, sweeps=[str(probe["sweep"])]
        )
    )
    out["store.sqlite.select_s"] = time.perf_counter() - started
    if selected != 1:
        raise RuntimeError(f"store floor: select found {selected} records, expected 1")
    started = time.perf_counter()
    document = render_markdown(sqlite_store)
    out["report.render_records_per_s"] = len(records) / (time.perf_counter() - started)
    if "| " not in document:
        raise RuntimeError("store floor: the render produced no table row")
    sqlite_store.close()
    return out


def code_floors() -> Dict[str, float]:
    """Every floor that needs no records or pool, as named rates."""
    rates = {
        "workload.ycsb_gen_txn_per_s": floor_ycsb_gen,
        "workload.execute_batch_per_s": floor_execute_batch,
        "crypto.canonical_mb_per_s": floor_canonical_mb,
        "sim.engine.raw_dispatch_events_per_s": floor_raw_dispatch,
        "sim.network.send_deliver_per_s": floor_network,
        "consensus.pbft_commits_per_s": floor_pbft,
        "crypto.sign_verify_per_s": floor_sign_verify,
        "storage.read_many_per_s": floor_read_many,
        "storage.apply_write_sets_per_s": floor_apply_write_sets,
    }
    out = {}
    for name, floor in rates.items():
        operations, seconds = floor()
        out[name] = operations / seconds
    return out
