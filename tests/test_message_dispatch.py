"""Type-table dispatch routes exactly as the ``isinstance`` chains it replaced.

``ShimNode.on_message``, ``ReplicatedNode.on_message`` and
``PBFTReplica.handle`` look a handler up by ``type(message)``; the table is
filled per concrete type by the first matching class in the chain's old
order.  So a *subclass* of a message type must still reach its base's
handler, a type matching nothing must fall through, and a crashed node or
replica must drop everything before any lookup.
"""

import pytest

from helpers import make_config, make_workload
from repro.api import build_system
from repro.baselines.pbft_replicated import ReplicatedNode
from repro.consensus.messages import (
    CheckpointMsg,
    CheckpointRequestMsg,
    CommitMsg,
    MessageRouter,
    NewViewMsg,
    PrePrepareMsg,
    PrepareMsg,
    ViewChangeMsg,
)
from repro.consensus.pbft import NetworkTransport, PBFTReplica
from repro.core.messages import (
    AckMsg,
    ClientRequestMsg,
    ErrorMsg,
    ReplaceMsg,
    ResponseMsg,
    VerifyMsg,
)
from repro.core.shim_node import ShimNode
from repro.sim.engine import Simulator
from repro.sim.network import Network, UniformLatencyModel
from repro.sim.rng import DeterministicRNG

PBFT_ROUTES = [
    (PrePrepareMsg, "on_preprepare"),
    (PrepareMsg, "on_prepare"),
    (CommitMsg, "on_commit"),
    (ViewChangeMsg, "on_view_change"),
    (NewViewMsg, "on_new_view"),
    (CheckpointMsg, "on_checkpoint"),
    (CheckpointRequestMsg, "on_checkpoint_request"),
]
SHIM_ROUTES = [
    (ClientRequestMsg, "_on_client_request"),
    (ErrorMsg, "_on_error"),
    (ReplaceMsg, "_on_replace"),
    (AckMsg, "_on_ack"),
    (ResponseMsg, "_on_verified_notice"),
]


def _subclass_instance(*bases):
    """A field-less instance of a fresh subclass (the spied handlers read nothing)."""
    subclass = type("Sub" + "".join(base.__name__ for base in bases), bases, {})
    return object.__new__(subclass)


def _spy(monkeypatch, cls, names):
    """Replace ``cls``'s handlers before any instance binds them into its table."""
    calls = []
    for name in names:
        monkeypatch.setattr(
            cls, name,
            lambda self, message, sender, name=name: calls.append((name, message, sender)),
        )
    return calls


def _isinstance_chain(routes, message, default):
    for base, name in routes:
        if isinstance(message, base):
            return name
    return default


# ------------------------------------------------------------ the router itself


def test_router_resolves_each_concrete_type_once_in_route_order():
    class Base:
        pass

    class Derived(Base):
        pass

    class Other:
        pass

    class Both(Other, Base):  # MRO says Other first; the route order says Base
        pass

    router = MessageRouter(((Base, "base"), (Other, "other")), default="fallback")
    assert router[Base] == router[Derived] == "base"
    assert router[Other] == "other"
    assert router[Both] == "base"
    assert router[int] == "fallback"
    assert set(router) == {Base, Derived, Other, Both, int}  # memoised, misses included
    assert MessageRouter(((Base, "base"),))[int] is None


# ------------------------------------------------------------ PBFTReplica.handle


def _pbft_replica(monkeypatch):
    calls = _spy(monkeypatch, PBFTReplica, [name for _base, name in PBFT_ROUTES])
    deployment = build_system("serverless_bft", make_config(), make_workload())
    return deployment.nodes[1].replica, calls


@pytest.mark.parametrize("base, handler", PBFT_ROUTES, ids=[name for _b, name in PBFT_ROUTES])
def test_pbft_handle_routes_a_subclass_to_its_bases_handler(monkeypatch, base, handler):
    replica, calls = _pbft_replica(monkeypatch)
    for message in (object.__new__(base), _subclass_instance(base)):
        assert replica.handle(message, "node-0") is True
        assert calls.pop() == (handler, message, "node-0") and not calls


def test_pbft_handle_keeps_the_chains_precedence_and_rejects_foreign_types(monkeypatch):
    replica, calls = _pbft_replica(monkeypatch)
    for bases in ((CommitMsg, PrepareMsg), (CheckpointRequestMsg, PrePrepareMsg, NewViewMsg)):
        message = _subclass_instance(*bases)
        assert replica.handle(message, "node-2") is True
        assert calls.pop()[0] == _isinstance_chain(PBFT_ROUTES, message, None)
    for foreign in ("a string", 7, None, object.__new__(ClientRequestMsg), object.__new__(VerifyMsg)):
        assert replica.handle(foreign, "node-2") is False
    assert not calls


def test_crashed_replica_consumes_everything_and_handles_nothing(monkeypatch):
    replica, calls = _pbft_replica(monkeypatch)
    replica.crash()
    for base, _handler in PBFT_ROUTES:
        assert replica.handle(object.__new__(base), "node-0") is True
    assert replica.handle("a string", "node-0") is True  # the crash check comes first
    assert not calls


# ------------------------------------------------------------ ShimNode.on_message


def _shim_node(monkeypatch):
    calls = _spy(monkeypatch, ShimNode, [name for _base, name in SHIM_ROUTES])
    calls_into_replica = _spy(monkeypatch, PBFTReplica, ["handle"])
    deployment = build_system("serverless_bft", make_config(), make_workload())
    return deployment.nodes[1], calls, calls_into_replica


@pytest.mark.parametrize("base, handler", SHIM_ROUTES, ids=[name for _b, name in SHIM_ROUTES])
def test_shim_node_routes_a_subclass_to_its_bases_handler(monkeypatch, base, handler):
    node, calls, calls_into_replica = _shim_node(monkeypatch)
    for message in (object.__new__(base), _subclass_instance(base)):
        node.on_message(message, "verifier")
        assert calls.pop() == (handler, message, "verifier") and not calls
    assert not calls_into_replica


def test_shim_node_hands_everything_else_to_its_replica(monkeypatch):
    node, calls, calls_into_replica = _shim_node(monkeypatch)
    mixed = _subclass_instance(ResponseMsg, ErrorMsg)
    node.on_message(mixed, "verifier")
    assert calls.pop()[0] == _isinstance_chain(SHIM_ROUTES, mixed, None) == "_on_error"
    others = [object.__new__(base) for base, _handler in PBFT_ROUTES]
    others += [_subclass_instance(PrepareMsg), object.__new__(VerifyMsg), "a string"]
    for message in others:
        node.on_message(message, "node-0")
    assert [call[1] for call in calls_into_replica] == others and not calls


def test_crashed_shim_node_drops_everything(monkeypatch):
    node, calls, calls_into_replica = _shim_node(monkeypatch)
    messages = [object.__new__(base) for base, _handler in SHIM_ROUTES + PBFT_ROUTES]
    node.crash()
    for message in messages:
        node.on_message(message, "verifier")
    assert not calls and not calls_into_replica
    node.recover()
    for message in messages:
        node.on_message(message, "verifier")
    assert len(calls) == len(SHIM_ROUTES) and len(calls_into_replica) == len(PBFT_ROUTES)


# ------------------------------------------------------------ ReplicatedNode.on_message


def test_replicated_node_routes_requests_and_hands_the_rest_to_its_replica(monkeypatch):
    calls = _spy(monkeypatch, ReplicatedNode, ["_on_client_request"])
    calls_into_replica = _spy(monkeypatch, PBFTReplica, ["handle"])
    deployment = build_system("pbft_replicated", make_config(), make_workload())
    node = deployment.nodes[1]
    request = _subclass_instance(ClientRequestMsg)
    commit = _subclass_instance(CommitMsg)
    response = object.__new__(ResponseMsg)  # not this node's to route: the replica's call
    node.on_message(request, "client-0")
    node.on_message(commit, "node-0")
    node.on_message(response, "node-0")
    assert calls == [("_on_client_request", request, "client-0")]
    assert [call[1:] for call in calls_into_replica] == [(commit, "node-0"), (response, "node-0")]


# ------------------------------------------------------------ the shared transport


def test_network_transport_holds_its_peers_and_goes_silent_when_crashed():
    sim = Simulator()
    network = Network(sim, UniformLatencyModel(), DeterministicRNG(1))
    names = ["node-0", "node-1", "node-2"]
    received = []
    for name in names:
        network.register(name, "r", lambda msg, src, name=name: received.append((name, msg, src)))
    transport = NetworkTransport(network, "node-1", names)

    transport.broadcast("to-peers", 10)
    transport.broadcast("to-targets", 10, targets=["node-2"])
    transport.send("node-0", "direct", 10)
    sim.run_until_idle()
    assert sorted(received) == [
        ("node-0", "direct", "node-1"),
        ("node-0", "to-peers", "node-1"),
        ("node-2", "to-peers", "node-1"),
        ("node-2", "to-targets", "node-1"),
    ]

    transport.crashed = True
    transport.broadcast("lost", 10)
    transport.send("node-0", "lost", 10)
    assert network.messages_sent == 4 and sim.pending_events == 0  # not even counted as sent


def test_a_crashed_shim_node_silences_its_transport(monkeypatch):
    node, _calls, _calls_into_replica = _shim_node(monkeypatch)
    sent_before = node.network.messages_sent
    node.crash()
    node.replica._transport.broadcast("late completion", 10)
    assert node.network.messages_sent == sent_before
    node.recover()  # announces itself with a CHECKPOINT-REQUEST once the MACs are paid for
    node.sim.run(until=0.01)
    assert node.network.messages_sent == sent_before + 3
