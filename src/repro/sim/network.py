"""Wide-area network model.

Messages between components travel over a simulated network with:

* propagation latency taken from a per-region round-trip table
  (``repro.cloud.regions``) or any other :class:`LatencyModel`;
* serialisation delay proportional to the message size (the paper reports
  exact message sizes: PREPREPARE 5392 B, PREPARE 216 B, COMMIT 220 B,
  EXECUTE 3320 B, RESPONSE 2270 B);
* optional fault injection — drops, duplicates, partitions and region
  outages — named by the scenario presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG


class LatencyModel:
    """Interface for one-way latency between two endpoints."""

    def one_way_delay(
        self,
        src_region: str,
        dst_region: str,
        size_bytes: int,
        rng: DeterministicRNG,
    ) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def bind(self, rng: DeterministicRNG) -> Callable[[str, str, int], float]:
        """The delay function ``(src_region, dst_region, size_bytes)`` drawing from ``rng``.

        A :class:`Network` binds its model once and calls the result per
        message; a model overrides this to precompute what does not vary.
        """

        def delay(src_region: str, dst_region: str, size_bytes: int) -> float:
            return self.one_way_delay(src_region, dst_region, size_bytes, rng)

        return delay


class UniformLatencyModel(LatencyModel):
    """Flat latency model: a base delay plus jitter plus bandwidth delay.

    Useful for unit tests and for single-region deployments where all
    components sit in the same data centre.
    """

    def __init__(
        self,
        base_delay: float = 0.0005,
        jitter: float = 0.0001,
        bandwidth_bytes_per_sec: float = 1.25e9,
    ) -> None:
        self.base_delay = base_delay
        self.jitter = jitter
        self.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec

    def one_way_delay(
        self,
        src_region: str,
        dst_region: str,
        size_bytes: int,
        rng: DeterministicRNG,
    ) -> float:
        delay = self.base_delay
        if self.jitter > 0:
            delay += rng.uniform(0.0, self.jitter)
        if self.bandwidth_bytes_per_sec > 0 and size_bytes > 0:
            delay += size_bytes / self.bandwidth_bytes_per_sec
        return delay


@dataclass(frozen=True)
class NetworkFaultPlan:
    """The network-level faults of a run, fixed for its whole length.

    ``drop_probability`` / ``duplicate_probability`` apply to every message;
    ``partitions`` is a set of directed ``(src, dst)`` endpoint-name pairs
    whose messages are silently dropped, and ``down_regions`` drops every
    message to or from an endpoint hosted in one of those regions —
    executors spawned there mid-run included.
    Faults that start or heal mid-run belong to the fault timeline
    (:meth:`Network.cut_links`, :meth:`Network.set_endpoint_down`).
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    partitions: FrozenSet[Tuple[str, str]] = frozenset()
    down_regions: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", frozenset(self.partitions))
        object.__setattr__(self, "down_regions", frozenset(self.down_regions))


@dataclass
class Endpoint:
    """A network-attached component."""

    name: str
    region: str
    handler: Callable[[Any, str], None]


class Network:
    """Message transport between simulated endpoints."""

    #: Minimum extra delay of a fault-injected duplicate delivery beyond the
    #: original one.  Without it a zero-latency link would schedule the
    #: duplicate at exactly the original delivery time (``0 * 1.5 == 0``),
    #: making the "late duplicate" indistinguishable from a double-send.
    MIN_DUPLICATE_OFFSET = 1e-6

    def __init__(
        self,
        sim: Simulator,
        latency_model: LatencyModel,
        rng: DeterministicRNG,
        fault_plan: Optional[NetworkFaultPlan] = None,
    ) -> None:
        self._sim = sim
        self._schedule_fast = sim.schedule_fast
        self._rng = rng
        self._delay = latency_model.bind(rng)
        self._faults = fault_plan or NetworkFaultPlan()
        # Dynamic lifecycle faults (fault timelines): endpoints currently
        # down and directed links currently cut.  Kept separate from the
        # fault plan so crash/recover/partition-heal events can flip them
        # mid-run without perturbing a scenario's static plan.  The boolean
        # gate keeps the fault-free hot path to one falsy check per message.
        self._down: Set[str] = set()
        self._cut_links: Set[Tuple[str, str]] = set()
        self._lifecycle_faults = False
        self._endpoints: Dict[str, Endpoint] = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._bytes_sent = 0

    @property
    def fault_plan(self) -> NetworkFaultPlan:
        return self._faults

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        return self._messages_dropped

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    def register(self, name: str, region: str, handler: Callable[[Any, str], None]) -> Endpoint:
        """Attach an endpoint.  Re-registering a name replaces its handler."""
        endpoint = Endpoint(name=name, region=region, handler=handler)
        self._endpoints[name] = endpoint
        return endpoint

    def unregister(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def has_endpoint(self, name: str) -> bool:
        return name in self._endpoints

    def region_of(self, name: str) -> str:
        try:
            return self._endpoints[name].region
        except KeyError:
            raise SimulationError(f"unknown network endpoint {name!r}")

    def set_endpoint_down(self, name: str, down: bool = True) -> None:
        """Mark an endpoint down (crashed): all its traffic is dropped.

        Unlike :meth:`unregister`, the endpoint stays registered — late
        sends from its in-flight callbacks are silently dropped instead of
        raising, and flipping it back up restores connectivity instantly.
        """
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)
        self._lifecycle_faults = bool(self._down or self._cut_links)

    def is_endpoint_down(self, name: str) -> bool:
        return name in self._down

    def cut_links(self, pairs) -> None:
        """Cut the given directed ``(src, dst)`` links (dynamic partition)."""
        self._cut_links.update(pairs)
        self._lifecycle_faults = bool(self._down or self._cut_links)

    def heal_links(self, pairs) -> None:
        for pair in pairs:
            self._cut_links.discard(pair)
        self._lifecycle_faults = bool(self._down or self._cut_links)

    def send(self, src: str, dst: str, payload: Any, size_bytes: int = 0) -> None:
        """Send ``payload`` from ``src`` to ``dst`` applying the fault plan."""
        self._transmit(src, (dst,), payload, size_bytes, False)

    def broadcast(self, src: str, dsts, payload: Any, size_bytes: int = 0) -> None:
        """Send the same payload to every destination in ``dsts`` but ``src`` itself.

        Message for message a loop of :meth:`send`: the same counters, drops,
        duplicates and RNG draws in the same order.
        """
        self._transmit(src, dsts, payload, size_bytes, True)

    def _transmit(self, src: str, dsts, payload: Any, size_bytes: int, skip_src: bool) -> None:
        """One message per destination; the per-sender work is done once."""
        endpoints = self._endpoints
        sender = endpoints.get(src)
        if sender is None:
            raise SimulationError(f"unknown sender endpoint {src!r}")
        src_region = sender.region
        faults = self._faults
        # Fault checks are gated on the plan actually being active: the
        # gates draw nothing (``chance(0)`` never draws either), so the RNG
        # stream — and every simulated result — is unchanged.
        lifecycle = self._lifecycle_faults
        partitions = faults.partitions
        down_regions = faults.down_regions
        static_cuts = partitions or down_regions
        drop_probability = faults.drop_probability
        duplicate_probability = faults.duplicate_probability
        delay_of = self._delay
        schedule_fast = self._schedule_fast
        deliver = self._deliver
        sent = dropped = copies = 0
        for dst in dsts:
            if skip_src and dst == src:
                continue
            sent += 1
            receiver = endpoints.get(dst)
            # Lost when the destination crashed or was never registered, a
            # lifecycle fault or the plan separates the pair, or the plan's
            # drop draw says so — checked, and drawn, in that order.
            if (
                receiver is None
                or lifecycle and (
                    src in self._down or dst in self._down or (src, dst) in self._cut_links
                )
                or static_cuts and (
                    (src, dst) in partitions
                    or src_region in down_regions
                    or receiver.region in down_regions
                )
                or drop_probability and self._rng.chance(drop_probability)
            ):
                dropped += 1
                continue
            delay = delay_of(src_region, receiver.region, size_bytes)
            schedule_fast(delay, deliver, src, dst, payload)
            if duplicate_probability and self._rng.chance(duplicate_probability):
                # The duplicate travels the wire too: schedule it strictly
                # after the original delivery and account for its bytes.
                copies += 1
                schedule_fast(
                    max(delay * 1.5, delay + self.MIN_DUPLICATE_OFFSET),
                    deliver, src, dst, payload,
                )
        self._messages_sent += sent
        self._messages_dropped += dropped
        self._bytes_sent += (sent + copies) * size_bytes

    def _deliver(self, src: str, dst: str, payload: Any) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            self._messages_dropped += 1
            return
        self._messages_delivered += 1
        endpoint.handler(payload, src)
