"""Unit tests for the crash-fault-tolerant Paxos shim (SERVERLESSCFT baseline)."""

from typing import Dict, List

import pytest

from repro.consensus.messages import PaxosAcceptedMsg
from repro.consensus.paxos import PaxosConfig, PaxosReplica
from repro.crypto.costs import CryptoCostModel
from repro.errors import ProtocolViolation
from repro.sim.engine import Simulator


class _Host:
    def __init__(self, sim: Simulator) -> None:
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


class _Transport:
    def __init__(self, cluster, owner):
        self._cluster = cluster
        self._owner = owner

    def send(self, dst, message, size_bytes):
        self._cluster.route(self._owner, dst, message)

    def broadcast(self, message, size_bytes, targets=None):
        recipients = targets if targets is not None else [
            name for name in self._cluster.names if name != self._owner
        ]
        for dst in recipients:
            self._cluster.route(self._owner, dst, message)


class PaxosCluster:
    def __init__(self, n: int = 3, checkpoint_interval: int = 64) -> None:
        self.sim = Simulator()
        self.names = [f"node-{index}" for index in range(n)]
        self.committed: Dict[str, List] = {name: [] for name in self.names}
        self.crashed = set()
        self.replicas = {
            name: PaxosReplica(
                replica_id=name,
                replicas=self.names,
                config=PaxosConfig(checkpoint_interval=checkpoint_interval),
                transport=_Transport(self, name),
                cost_model=CryptoCostModel(),
                host=_Host(self.sim),
                on_committed=lambda entry, name=name: self.committed[name].append(entry),
            )
            for name in self.names
        }

    def route(self, src, dst, message):
        if dst in self.crashed or src in self.crashed:
            return
        self.sim.schedule(0.001, self.replicas[dst].handle, message, src)

    def leader(self) -> PaxosReplica:
        return self.replicas[self.names[0]]

    def run(self, until: float = 0.5) -> None:
        self.sim.run(until=until)


def test_leader_orders_batches_on_all_replicas():
    cluster = PaxosCluster(n=3)
    cluster.leader().propose("batch-1")
    cluster.leader().propose("batch-2")
    cluster.run()
    for name in cluster.names:
        assert [entry.seq for entry in cluster.committed[name]] == [1, 2]
        assert [entry.batch for entry in cluster.committed[name]] == ["batch-1", "batch-2"]


def test_commits_carry_no_certificate():
    cluster = PaxosCluster(n=3)
    cluster.leader().propose("batch-1")
    cluster.run()
    assert cluster.committed["node-1"][0].certificate == ()


def test_non_leader_cannot_propose():
    cluster = PaxosCluster(n=3)
    with pytest.raises(ProtocolViolation):
        cluster.replicas["node-1"].propose("rogue")


def test_majority_is_enough_despite_one_crash():
    cluster = PaxosCluster(n=3)
    cluster.crashed.add("node-2")
    cluster.leader().propose("batch-1")
    cluster.run()
    assert len(cluster.committed["node-0"]) == 1
    assert len(cluster.committed["node-1"]) == 1
    assert cluster.committed["node-2"] == []


def test_minority_cannot_commit():
    cluster = PaxosCluster(n=3)
    cluster.crashed.add("node-1")
    cluster.crashed.add("node-2")
    cluster.leader().propose("batch-1")
    cluster.run()
    assert cluster.committed["node-0"] == []


def test_quorum_sizes():
    cluster = PaxosCluster(n=5)
    replica = cluster.leader()
    assert replica.n == 5
    assert replica.majority == 3
    assert replica.is_primary
    assert not cluster.replicas["node-1"].is_primary


def test_accept_from_non_leader_is_ignored():
    from repro.consensus.messages import PaxosAcceptMsg

    cluster = PaxosCluster(n=3)
    replica = cluster.replicas["node-1"]
    replica.on_accept(
        PaxosAcceptMsg(ballot=0, seq=1, digest="d", batch="rogue"), sender="node-2"
    )
    cluster.run()
    assert cluster.committed["node-1"] == []


def test_log_truncates_at_the_stable_watermark():
    cluster = PaxosCluster(n=3, checkpoint_interval=4)
    for index in range(20):
        cluster.leader().propose(f"batch-{index}")
    cluster.run()
    for name, replica in cluster.replicas.items():
        assert [entry.seq for entry in cluster.committed[name]] == list(range(1, 21))
        log = replica.log
        assert log.committed_count() == 20 and log.is_committed(1)
        assert log.stable_seq >= 16
        assert log.slot_count <= 4
    # A late ACCEPTED for a truncated slot re-creates neither slot nor vote key.
    leader = cluster.leader()
    leader.handle(PaxosAcceptedMsg(ballot=0, seq=1, digest="late", replica="node-2"), "node-2")
    assert not leader.log.has_slot(1)
    assert all(key[1] > leader.log.stable_seq for key in leader._accepted_quorum.keys())
