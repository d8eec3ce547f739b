"""Discrete-event simulation substrate.

The paper evaluates ServerlessBFT on Oracle Cloud VMs plus real AWS Lambda
functions.  This package replaces that testbed with a deterministic
discrete-event simulator: virtual time, an event queue, per-node CPU
resources (so multi-core pipelining matters), and a wide-area network model
with per-region latencies, bandwidth, and fault injection.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import DeterministicRNG
from repro.sim.process import CpuResource, SimProcess
from repro.sim.network import Endpoint, LatencyModel, Network, NetworkFaultPlan, UniformLatencyModel
from repro.sim.stats import LatencyRecorder, ThroughputRecorder

__all__ = [
    "CpuResource",
    "DeterministicRNG",
    "Endpoint",
    "Event",
    "LatencyModel",
    "LatencyRecorder",
    "Network",
    "NetworkFaultPlan",
    "SimProcess",
    "Simulator",
    "ThroughputRecorder",
    "UniformLatencyModel",
]
