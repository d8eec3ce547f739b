"""Unit tests for the network model."""

import pytest

from repro.cloud.regions import GeoLatencyModel, RegionCatalog
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network, NetworkFaultPlan, UniformLatencyModel
from repro.sim.rng import DeterministicRNG


def build_network(fault_plan=None, base_delay=0.001, jitter=0.0, bandwidth=0.0):
    sim = Simulator()
    network = Network(
        sim,
        UniformLatencyModel(base_delay=base_delay, jitter=jitter, bandwidth_bytes_per_sec=bandwidth),
        DeterministicRNG(1),
        fault_plan=fault_plan,
    )
    return sim, network


def test_message_delivered_with_latency():
    sim, network = build_network(base_delay=0.005)
    received = []
    network.register("a", "us-west-1", lambda msg, sender: received.append((msg, sender, sim.now)))
    network.register("b", "us-west-1", lambda msg, sender: None)
    network.send("b", "a", "hello", size_bytes=10)
    sim.run_until_idle()
    assert received == [("hello", "b", pytest.approx(0.005))]
    assert network.messages_sent == 1
    assert network.messages_delivered == 1


def test_bandwidth_adds_serialisation_delay():
    sim, network = build_network(base_delay=0.0, bandwidth=1000.0)
    received = []
    network.register("a", "r", lambda msg, sender: received.append(sim.now))
    network.register("b", "r", lambda msg, sender: None)
    network.send("b", "a", "payload", size_bytes=500)
    sim.run_until_idle()
    assert received == [pytest.approx(0.5)]


def test_unknown_sender_rejected():
    _sim, network = build_network()
    network.register("a", "r", lambda msg, sender: None)
    with pytest.raises(SimulationError):
        network.send("ghost", "a", "boo")


def test_unknown_destination_counts_as_drop():
    sim, network = build_network()
    network.register("a", "r", lambda msg, sender: None)
    network.send("a", "ghost", "boo")
    sim.run_until_idle()
    assert network.messages_dropped == 1
    assert network.messages_delivered == 0


def test_drop_probability_one_drops_everything():
    sim, network = build_network(fault_plan=NetworkFaultPlan(drop_probability=1.0))
    received = []
    network.register("a", "r", lambda msg, sender: received.append(msg))
    network.register("b", "r", lambda msg, sender: None)
    for _ in range(5):
        network.send("b", "a", "x")
    sim.run_until_idle()
    assert received == []
    assert network.messages_dropped == 5


def test_duplicate_probability_duplicates_messages():
    sim, network = build_network(fault_plan=NetworkFaultPlan(duplicate_probability=1.0))
    received = []
    network.register("a", "r", lambda msg, sender: received.append(msg))
    network.register("b", "r", lambda msg, sender: None)
    network.send("b", "a", "x")
    sim.run_until_idle()
    assert received == ["x", "x"]


def test_partition_blocks_directed_traffic_and_heals():
    """A plan's partition is directed and lasts the whole run; a timeline's
    cut on top of it heals without lifting the plan's."""
    plan = NetworkFaultPlan(partitions={("a", "b")})
    sim, network = build_network(fault_plan=plan)
    received = {"a": [], "b": []}
    network.register("a", "r", lambda msg, sender: received["a"].append(msg))
    network.register("b", "r", lambda msg, sender: received["b"].append(msg))
    network.cut_links([("b", "a")])
    network.send("a", "b", "blocked")
    network.send("b", "a", "cut")
    sim.run_until_idle()
    assert received == {"a": [], "b": []}
    network.heal_links([("b", "a")])
    network.send("a", "b", "still-blocked")
    network.send("b", "a", "after-heal")
    sim.run_until_idle()
    assert received == {"a": ["after-heal"], "b": []}
    assert network.fault_plan.partitions == frozenset({("a", "b")})


def test_down_region_drops_traffic_of_endpoints_registered_later():
    """An outage names a region, so an endpoint that joins mid-run under a
    fresh name (a spawned executor) is cut in both directions."""
    sim, network = build_network(fault_plan=NetworkFaultPlan(down_regions={"us-east-2"}))
    received = []
    network.register("verifier", "us-west-1", lambda msg, sender: received.append(msg))
    network.register("executor-7", "us-east-2", lambda msg, sender: received.append(msg))
    network.register("executor-8", "eu-west-1", lambda msg, sender: received.append(msg))
    network.send("executor-7", "verifier", "from-outage")
    network.send("verifier", "executor-7", "into-outage")
    network.send("executor-8", "verifier", "healthy")
    sim.run_until_idle()
    assert received == ["healthy"]
    assert network.messages_dropped == 2


def test_broadcast_skips_sender():
    sim, network = build_network()
    received = {"a": [], "b": [], "c": []}
    for name in received:
        network.register(name, "r", lambda msg, sender, name=name: received[name].append(msg))
    network.broadcast("a", ["a", "b", "c"], "hello")
    sim.run_until_idle()
    assert received["a"] == []
    assert received["b"] == ["hello"]
    assert received["c"] == ["hello"]


def test_region_lookup_and_unregister():
    _sim, network = build_network()
    network.register("a", "eu-west-1", lambda msg, sender: None)
    assert network.region_of("a") == "eu-west-1"
    assert network.has_endpoint("a")
    network.unregister("a")
    assert not network.has_endpoint("a")
    with pytest.raises(SimulationError):
        network.region_of("a")


def test_bytes_accounted():
    sim, network = build_network()
    network.register("a", "r", lambda msg, sender: None)
    network.register("b", "r", lambda msg, sender: None)
    network.send("a", "b", "x", size_bytes=100)
    network.send("a", "b", "y", size_bytes=250)
    sim.run_until_idle()
    assert network.bytes_sent == 350


def test_down_endpoint_drops_both_directions_silently():
    sim, network = build_network()
    received = []
    network.register("a", "r", lambda msg, sender: received.append(msg))
    network.register("b", "r", lambda msg, sender: received.append(msg))
    network.set_endpoint_down("b")
    assert network.is_endpoint_down("b")
    network.send("a", "b", "to-down")  # into the crashed node
    network.send("b", "a", "from-down")  # late send out of it
    sim.run_until_idle()
    assert received == []
    assert network.messages_dropped == 2
    network.set_endpoint_down("b", down=False)
    network.send("a", "b", "after-recovery")
    sim.run_until_idle()
    assert received == ["after-recovery"]


def test_cut_links_are_directed_and_healable():
    sim, network = build_network()
    received = []
    network.register("a", "r", lambda msg, sender: received.append((msg, sender)))
    network.register("b", "r", lambda msg, sender: received.append((msg, sender)))
    network.cut_links([("a", "b")])
    network.send("a", "b", "cut")  # severed direction
    network.send("b", "a", "open")  # reverse stays open
    sim.run_until_idle()
    assert received == [("open", "b")]
    assert network.messages_dropped == 1
    network.heal_links([("a", "b")])
    network.send("a", "b", "healed")
    sim.run_until_idle()
    assert ("healed", "a") in received


# ------------------------------------------------------------ broadcast == loop of sends


class _HalfSecondModel(LatencyModel):
    """A model that implements only the interface method (no ``bind`` override)."""

    def one_way_delay(self, src_region, dst_region, size_bytes, rng):
        return 0.5 + rng.uniform(0.0, 0.1) + (0.25 if src_region != dst_region else 0.0)


def _geo_model():
    return GeoLatencyModel(RegionCatalog())


_FANOUT_CASES = {
    "plain": {},
    "drop": dict(plan=lambda: NetworkFaultPlan(drop_probability=0.4)),
    "duplicate": dict(plan=lambda: NetworkFaultPlan(duplicate_probability=0.4)),
    "extra-delay": dict(plan=lambda: NetworkFaultPlan(extra_delay=0.25)),
    "drop-duplicate-delay": dict(
        plan=lambda: NetworkFaultPlan(
            drop_probability=0.3, duplicate_probability=0.3, extra_delay=0.01
        )
    ),
    "static-partition": dict(plan=lambda: NetworkFaultPlan(partitions={("a", "c"), ("d", "a")})),
    "endpoint-down": dict(lifecycle=lambda network: network.set_endpoint_down("c")),
    "sender-down": dict(lifecycle=lambda network: network.set_endpoint_down("a")),
    "cut-links": dict(lifecycle=lambda network: network.cut_links([("a", "d"), ("b", "a")])),
    "healed-links": dict(
        lifecycle=lambda network: (
            network.cut_links([("a", "d")]), network.heal_links([("a", "d")])
        )
    ),
    "unregistered-destination": dict(dsts=["b", "ghost", "c", "d"]),
    "src-in-dsts": dict(dsts=["a", "b", "a", "c", "d"]),
    "region-outage-plan": dict(plan=lambda: NetworkFaultPlan(down_regions={"eu-west-1"})),
    "uniform-model": dict(model=lambda: UniformLatencyModel(jitter=0.002, bandwidth_bytes_per_sec=1e6)),
    "interface-only-model": dict(model=_HalfSecondModel),
    "no-destinations": dict(dsts=[]),
}


def _fanout_network(model=_geo_model, plan=None, lifecycle=None, **_):
    sim = Simulator()
    rng = DeterministicRNG(42)
    network = Network(sim, model(), rng, fault_plan=plan() if plan is not None else None)
    deliveries = []
    regions = {"a": "us-west-1", "b": "us-west-1", "c": "eu-west-1", "d": "ap-southeast-1"}
    for name, region in regions.items():
        network.register(
            name, region,
            lambda payload, src, name=name: deliveries.append((sim.now, name, src, payload)),
        )
    if lifecycle is not None:
        lifecycle(network)
    return sim, rng, network, deliveries


def _fanout_state(sim, rng, network, deliveries):
    sim.run_until_idle()
    return (
        deliveries,
        network.messages_sent,
        network.bytes_sent,
        network.messages_dropped,
        network.messages_delivered,
        sim.events_processed,
        rng.random(),
    )


@pytest.mark.parametrize("case", sorted(_FANOUT_CASES))
def test_broadcast_equals_a_loop_of_sends(case):
    """Same deliveries at the same times in the same order, same counters,
    and the RNG left at the same draw — under every gate a message passes."""
    params = _FANOUT_CASES[case]
    dsts = params.get("dsts", ["b", "c", "d"])
    rounds = [("a", 216, "prepare"), ("a", 0, "empty"), ("b", 5392, "preprepare")]

    one = _fanout_network(**params)
    for src, size, payload in rounds:
        one[2].broadcast(src, dsts, payload, size)

    other = _fanout_network(**params)
    for src, size, payload in rounds:
        for dst in dsts:
            if dst != src:
                other[2].send(src, dst, payload, size)

    broadcast_state = _fanout_state(*one)
    assert broadcast_state == _fanout_state(*other)
    assert broadcast_state[1] == sum(1 for src, _, _ in rounds for dst in dsts if dst != src)


def test_broadcast_from_an_unknown_sender_is_rejected():
    _sim, network = build_network()
    network.register("a", "r", lambda msg, sender: None)
    with pytest.raises(SimulationError):
        network.broadcast("ghost", ["a"], "boo")
    assert network.messages_sent == 0


def test_geo_delay_function_matches_the_interface_method():
    """``bind(rng)`` and ``one_way_delay(..., rng)`` are one function: same
    float, one draw per call, for every pair and size."""
    model = _geo_model()
    bound_rng, plain_rng = DeterministicRNG(3), DeterministicRNG(3)
    delay = model.bind(bound_rng)
    names = model.catalog.names[:4]
    for src in names:
        for dst in names:
            for size in (0, 216, 1_000_000):
                assert delay(src, dst, size) == model.one_way_delay(src, dst, size, plain_rng)
    assert bound_rng.random() == plain_rng.random()
