"""Unit tests for the on-premise storage substrate."""

import pytest

from repro.errors import StorageError
from repro.sim.engine import Simulator
from repro.sim.network import Network, UniformLatencyModel
from repro.sim.rng import DeterministicRNG
from repro.storage.kvstore import VersionedKVStore, VersionedValue
from repro.storage.service import StorageReadReply, StorageReadRequest, StorageService


def test_load_and_read():
    store = VersionedKVStore()
    store.load(100, value="init")
    assert len(store) == 100
    entry = store.read("user42")
    assert entry == VersionedValue("init", 1)
    assert store.contains("user42")
    assert not store.contains("user100")


def test_missing_key_reads_as_version_zero():
    store = VersionedKVStore()
    assert store.read("ghost") == VersionedValue("", 0)
    assert store.get_value("ghost") is None


def test_apply_writes_bumps_versions():
    store = VersionedKVStore()
    versions = store.apply_writes({"a": "1", "b": "2"})
    assert versions == {"a": 1, "b": 1}
    versions = store.apply_writes({"a": "3"})
    assert versions == {"a": 2}
    assert store.read("a") == VersionedValue("3", 2)
    assert store.write_count == 3


def test_read_many_and_version_matching():
    store = VersionedKVStore()
    store.apply_writes({"x": "1", "y": "2"})
    snapshot = store.read_many(["x", "y", "z"])
    assert snapshot.versions() == {"x": 1, "y": 1, "z": 0}
    assert snapshot.matches_versions(store.current_versions(["x", "y", "z"]))
    store.apply_writes({"x": "changed"})
    assert not snapshot.matches_versions(store.current_versions(["x", "y", "z"]))


def test_keys_keep_first_write_order_and_len_counts_keys():
    store = VersionedKVStore()
    store.apply_writes({"b": "1", "a": "2"})
    store.apply_write_sets([{"c": "3", "b": "4"}, {"a": "5"}])
    store.load(2, key_prefix="k")
    store.apply_writes({"b": "6"})
    assert store.keys() == ["b", "a", "c", "k0", "k1"]
    assert len(store) == 5
    assert store.read("b") == VersionedValue("6", 3)
    assert store.read("k1") == VersionedValue("x" * 100, 1)


def test_read_result_values_is_the_versioned_value_view():
    store = VersionedKVStore()
    store.apply_writes({"x": "1", "y": "2"})
    store.apply_writes({"x": "3"})
    snapshot = store.read_many(("x", "y", "z"))
    assert snapshot.values == {
        "x": VersionedValue("3", 2),
        "y": VersionedValue("2", 1),
        "z": VersionedValue("", 0),
    }
    assert snapshot.plain_values() == {"x": "3", "y": "2", "z": ""}
    assert list(snapshot.versions_map().items()) == [("x", 2), ("y", 1), ("z", 0)]


def test_a_read_after_a_bulk_load_is_fresh():
    # A load marks the history "unknown", so a cached read of its keys is
    # read again: a reloaded key is back at version 1 with the loaded value.
    store = VersionedKVStore()
    store.load(3, value="old")
    store.apply_writes({"user0": "a"})
    store.apply_writes({"user0": "b", "extra": "c"})
    before = store.read_many(("user0", "user1", "extra"))
    assert before.versions_map() == {"user0": 3, "user1": 1, "extra": 1}
    store.load(2, value="new")
    after = store.read_many(("user0", "user1", "extra"))
    assert after is not before
    assert after.plain_values() == {"user0": "new", "user1": "new", "extra": "c"}
    assert after.versions_map() == {"user0": 1, "user1": 1, "extra": 1}
    assert after.versions_map() == store.current_versions(("user0", "user1", "extra"))
    assert store.read("user0") == VersionedValue("new", 1)
    store.apply_writes({"user0": "d"})
    assert store.read("user0") == VersionedValue("d", 2)


def test_only_rewritten_keys_keep_a_version_entry():
    store = VersionedKVStore()
    store.load(4)
    store.apply_write_sets([{"user0": "a", "fresh": "b"}, {"user0": "c"}])
    assert store.apply_writes({"user1": "d", "other": "e"}) == {"user1": 2, "other": 1}
    assert store._versions == {"user0": 3, "user1": 2}
    assert store.current_versions(("user0", "user1", "user2", "fresh", "ghost")) == {
        "user0": 3,
        "user1": 2,
        "user2": 1,
        "fresh": 1,
        "ghost": 0,
    }
    assert len(store) == 6


def test_negative_load_rejected():
    with pytest.raises(StorageError):
        VersionedKVStore().load(-1)


def test_read_counts_tracked():
    store = VersionedKVStore()
    store.read("a")
    store.read_many(["b", "c"])
    assert store.read_count == 3


def test_storage_service_answers_read_requests_over_network():
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(base_delay=0.001, jitter=0.0), DeterministicRNG(1))
    store = VersionedKVStore()
    store.apply_writes({"k1": "v1", "k2": "v2"})
    service = StorageService(sim, network, store, name="storage", region="us-west-1")

    replies = []
    network.register("executor-0", "us-west-1", lambda msg, sender: replies.append((msg, sender)))
    request = StorageReadRequest(request_id="r1", keys=("k1", "k2", "missing"))
    network.send("executor-0", "storage", request, size_bytes=64)
    sim.run_until_idle()

    assert len(replies) == 1
    reply, sender = replies[0]
    assert sender == "storage"
    assert isinstance(reply, StorageReadReply)
    assert reply.request_id == "r1"
    assert reply.result.versions() == {"k1": 1, "k2": 1, "missing": 0}
    assert service.requests_served == 1


def test_storage_service_ignores_unrelated_messages():
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(), DeterministicRNG(1))
    service = StorageService(sim, network, VersionedKVStore())
    service.on_message("not-a-read-request", "someone")
    sim.run_until_idle()
    assert service.requests_served == 0


def test_store_history_spans_reads_in_flight():
    # The mutation log keeps the newest 16-32 mutations, and no cached read
    # outlives it: the oldest snapshot any workload proves fresh is far younger.
    store = VersionedKVStore()
    store.load(50)
    first = store.read_many(("user0", "user1"))
    for index in range(100):
        store.read_many((f"user{index % 50}",))
        store.apply_write_sets([{f"user{index % 50}": f"v{index}"}])
        assert len(store._mutation_log) <= 32
        assert all(
            read.snapshot_token >= store._mutation_log_base for read in store._read_cache.values()
        )
    assert len(store._mutation_log) >= 16
    # A token older than the window is "unknown", never a wrong "unchanged";
    # a read of its keys is exact again.
    assert store.keys_changed_since(first.snapshot_token, {"user0"}) == -1
    again = store.read_many(("user0", "user1"))
    assert again.plain_values() == {"user0": "v50", "user1": "v51"}
    assert again.versions_map() == store.current_versions(("user0", "user1"))
