"""Fault timelines: scheduled crash/recover/partition/slow events.

Unlike the static byzantine behaviours (:mod:`repro.faults.byzantine`) that
hold for a whole run, a fault timeline schedules *dynamic* events at
simulated times and drives a real node lifecycle: a crashed shim node drops
its volatile state and stops processing; on recovery it rejoins and catches
up from the latest stable checkpoint via the state-transfer path of
Section V-B.  This is what lets scenarios exercise the paper's availability
story — view changes (Section V-A4) and featherweight checkpoints — end to
end instead of merely crashing a node for the whole run.

Timelines are written in a compact DSL carried by
``ProtocolConfig.fault_timeline`` so they route through ``RunSpec``, sweep
grids, and ``--set`` like every other knob::

    crash:primary@0.3;recover:primary@1.0
    crash:node-1@0.2;recover:node-1@0.9;slow:node-2@0.3-0.8x4
    partition:node-3@0.3-0.9            # isolate node-3, heal at 0.9
    partition:node-0|node-1,node-2@0.5-1.0

Event grammar (times are simulated seconds):

* ``crash:SEL@T`` — node ``SEL`` crashes at ``T``.
* ``recover:SEL@T`` — node ``SEL`` restarts at ``T`` and catches up.
* ``slow:SEL@T1-T2xF`` — node ``SEL`` runs ``F``× slower in ``[T1, T2)``.
* ``partition:GROUP[|GROUP...]@T1-T2`` — cut links between the groups
  (comma-separated member lists) at ``T1``, heal at ``T2``.  A single
  group means "isolate these endpoints from everyone else".

Node selectors: a literal endpoint name, ``primary`` (the initial primary,
``node-0``), ``last`` (the highest-numbered shim node), or ``node-K``.

A run with an empty timeline builds no engine, schedules no events, and
draws no randomness — fault-free results stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "FaultEvent",
    "CrashEvent",
    "RecoverEvent",
    "SlowEvent",
    "PartitionEvent",
    "parse_timeline",
    "format_timeline",
    "LivenessWatchdog",
    "FaultTimelineEngine",
]


# ------------------------------------------------------------------ events


@dataclass(frozen=True)
class CrashEvent:
    node: str
    at: float

    def render(self) -> str:
        return f"crash:{self.node}@{_fmt(self.at)}"


@dataclass(frozen=True)
class RecoverEvent:
    node: str
    at: float

    def render(self) -> str:
        return f"recover:{self.node}@{_fmt(self.at)}"


@dataclass(frozen=True)
class SlowEvent:
    node: str
    at: float
    until: float
    factor: float

    def render(self) -> str:
        return f"slow:{self.node}@{_fmt(self.at)}-{_fmt(self.until)}x{_fmt(self.factor)}"


@dataclass(frozen=True)
class PartitionEvent:
    groups: Tuple[Tuple[str, ...], ...]
    at: float
    heal_at: float

    def render(self) -> str:
        groups = "|".join(",".join(group) for group in self.groups)
        return f"partition:{groups}@{_fmt(self.at)}-{_fmt(self.heal_at)}"


FaultEvent = object  # union marker for documentation; events share .at/.render()


def _fmt(value: float) -> str:
    """Render a number without a trailing ``.0`` (round-trip friendly)."""
    return f"{value:g}"


def _parse_time(text: str, clause: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"bad time {text!r} in fault clause {clause!r}")
    if value < 0:
        raise ConfigurationError(f"negative time in fault clause {clause!r}")
    return value


def parse_timeline(text: str) -> List[FaultEvent]:
    """Parse the timeline DSL into event objects (``;``-separated clauses)."""
    events: List[FaultEvent] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        kind = kind.strip()
        if not rest or "@" not in rest:
            raise ConfigurationError(f"malformed fault clause {clause!r} (expect kind:target@time)")
        target, _, timespec = rest.rpartition("@")
        target = target.strip()
        timespec = timespec.strip()
        if not target:
            raise ConfigurationError(f"missing target in fault clause {clause!r}")
        if kind in ("crash", "recover"):
            at = _parse_time(timespec, clause)
            cls = CrashEvent if kind == "crash" else RecoverEvent
            events.append(cls(node=target, at=at))
        elif kind == "slow":
            window, _, factor_text = timespec.partition("x")
            start_text, sep, end_text = window.partition("-")
            if not sep or not factor_text:
                raise ConfigurationError(
                    f"malformed slow clause {clause!r} (expect slow:node@t1-t2xF)"
                )
            at = _parse_time(start_text, clause)
            until = _parse_time(end_text, clause)
            try:
                factor = float(factor_text)
            except ValueError:
                raise ConfigurationError(f"bad slow factor {factor_text!r} in {clause!r}")
            if factor <= 0:
                raise ConfigurationError(f"slow factor must be positive in {clause!r}")
            if until <= at:
                raise ConfigurationError(f"slow window must end after it starts in {clause!r}")
            events.append(SlowEvent(node=target, at=at, until=until, factor=factor))
        elif kind == "partition":
            start_text, sep, end_text = timespec.partition("-")
            if not sep:
                raise ConfigurationError(
                    f"malformed partition clause {clause!r} (expect partition:g1|g2@t1-t2)"
                )
            at = _parse_time(start_text, clause)
            heal_at = _parse_time(end_text, clause)
            if heal_at <= at:
                raise ConfigurationError(f"partition must heal after it starts in {clause!r}")
            groups = tuple(
                tuple(member.strip() for member in group.split(",") if member.strip())
                for group in target.split("|")
            )
            if not groups or any(not group for group in groups):
                raise ConfigurationError(f"empty partition group in {clause!r}")
            events.append(PartitionEvent(groups=groups, at=at, heal_at=heal_at))
        else:
            raise ConfigurationError(
                f"unknown fault kind {kind!r} in {clause!r} "
                f"(expected crash/recover/slow/partition)"
            )
    events.sort(key=lambda event: event.at)
    return events


def format_timeline(events: List[FaultEvent]) -> str:
    """Inverse of :func:`parse_timeline` (canonical, time-sorted)."""
    return ";".join(event.render() for event in sorted(events, key=lambda e: e.at))


# ------------------------------------------------------------------ watchdog


class LivenessWatchdog:
    """Observes the commit stream and quantifies unavailability.

    ``unavailability_seconds`` sums every inter-commit gap longer than the
    stall threshold (including the tail gap at the end of the run);
    ``time_to_recovery_seconds`` is the worst time from a fault event to the
    first commit at or after it.  Both are virtual-time quantities, so they
    are exactly reproducible across hosts.
    """

    def __init__(self, stall_threshold: float = 0.25) -> None:
        self._threshold = stall_threshold
        self._last_commit: float = 0.0
        self._saw_commit = False
        self._unavailability = 0.0
        self._stalls = 0
        self._pending_faults: List[float] = []
        self._time_to_recovery = 0.0

    @property
    def unavailability_seconds(self) -> float:
        return self._unavailability

    @property
    def stall_count(self) -> int:
        return self._stalls

    @property
    def time_to_recovery_seconds(self) -> float:
        return self._time_to_recovery

    def note_fault(self, at: float) -> None:
        """Arm a recovery marker: resolved by the first commit at/after ``at``."""
        self._pending_faults.append(at)

    def on_commit(self, time: float, count: int = 1) -> None:
        gap = time - self._last_commit
        if gap > self._threshold:
            self._unavailability += gap
            self._stalls += 1
        self._last_commit = time
        self._saw_commit = True
        if self._pending_faults:
            resolved = [at for at in self._pending_faults if at <= time]
            if resolved:
                self._time_to_recovery = max(
                    self._time_to_recovery, max(time - at for at in resolved)
                )
                self._pending_faults = [at for at in self._pending_faults if at > time]

    def finalize(self, duration: float) -> None:
        """Close the books at the end of the run (tail gap, unresolved faults)."""
        tail = duration - self._last_commit
        if tail > self._threshold:
            self._unavailability += tail
            self._stalls += 1
        for at in self._pending_faults:
            # The cluster never committed again after this fault: the
            # recovery time is censored at the end of the run.
            self._time_to_recovery = max(self._time_to_recovery, duration - at)
        self._pending_faults = []


# ------------------------------------------------------------------ engine


class FaultTimelineEngine:
    """Schedules the timeline's events against a built deployment.

    Constructed by :class:`~repro.core.runner.ServerlessDeployment` when
    ``config.fault_timeline`` is non-empty.  Resolves node selectors against
    the deployment, schedules one simulator event per fault event (no
    polling, no RNG draws), and aggregates recovery metrics at collection
    time.
    """

    def __init__(self, runner, events: Optional[List[FaultEvent]] = None) -> None:
        self._runner = runner
        self._sim = runner.sim
        self._network = runner.network
        if events is None:
            events = parse_timeline(runner.config.fault_timeline)
        self._events = events
        self._nodes: Dict[str, object] = {node.name: node for node in runner.nodes}
        self.watchdog = LivenessWatchdog()
        self._crashes = 0
        self._recoveries = 0
        self._partitions = 0
        self._schedule_all()

    # -------------------------------------------------------------- selectors

    def _resolve_node(self, selector: str) -> str:
        names = [node.name for node in self._runner.nodes]
        if selector == "primary":
            return names[0]
        if selector == "last":
            return names[-1]
        if selector in self._nodes:
            return selector
        raise ConfigurationError(
            f"fault timeline names unknown shim node {selector!r} "
            f"(deployment has {names})"
        )

    def _resolve_group(self, group: Tuple[str, ...]) -> List[str]:
        """Partition groups may also name non-shim endpoints (verifier, ...)."""
        resolved = []
        for member in group:
            if member in ("primary", "last") or member in self._nodes:
                resolved.append(self._resolve_node(member))
            elif self._network.has_endpoint(member):
                resolved.append(member)
            else:
                raise ConfigurationError(
                    f"fault timeline partitions unknown endpoint {member!r}"
                )
        return resolved

    # -------------------------------------------------------------- scheduling

    def _schedule_all(self) -> None:
        for event in self._events:
            if isinstance(event, CrashEvent):
                node = self._resolve_node(event.node)
                self._sim.schedule(event.at, self._do_crash, node, event.at)
            elif isinstance(event, RecoverEvent):
                node = self._resolve_node(event.node)
                self._sim.schedule(event.at, self._do_recover, node)
            elif isinstance(event, SlowEvent):
                node = self._resolve_node(event.node)
                self._sim.schedule(event.at, self._do_slow, node, event.factor, event.at)
                self._sim.schedule(event.until, self._do_slow, node, 1.0, None)
            elif isinstance(event, PartitionEvent):
                pairs = self._partition_pairs(event)
                self._sim.schedule(event.at, self._do_partition, pairs, event.at)
                self._sim.schedule(event.heal_at, self._do_heal, pairs)

    def _partition_pairs(self, event: PartitionEvent) -> List[Tuple[str, str]]:
        groups = [self._resolve_group(group) for group in event.groups]
        pairs: List[Tuple[str, str]] = []
        if len(groups) == 1:
            # Isolation shorthand: cut the group off from every static
            # endpoint outside it (shim nodes, verifier, storage, clients).
            inside = set(groups[0])
            outside = [
                name
                for name in self._static_endpoints()
                if name not in inside
            ]
            for src in groups[0]:
                for dst in outside:
                    pairs.append((src, dst))
                    pairs.append((dst, src))
        else:
            for index, group in enumerate(groups):
                for other in groups[index + 1:]:
                    for src in group:
                        for dst in other:
                            pairs.append((src, dst))
                            pairs.append((dst, src))
        return pairs

    def _static_endpoints(self) -> List[str]:
        names = [node.name for node in self._runner.nodes]
        names.append("verifier")
        names.append("storage")
        names.extend(group.name for group in self._runner.clients)
        return names

    # -------------------------------------------------------------- actions

    def _do_crash(self, node_name: str, at: float) -> None:
        node = self._nodes[node_name]
        node.crash()
        self._network.set_endpoint_down(node_name, True)
        self.watchdog.note_fault(at)
        self._crashes += 1

    def _do_recover(self, node_name: str) -> None:
        node = self._nodes[node_name]
        # Reconnect before restarting: recovery immediately broadcasts a
        # checkpoint request, which must not be dropped as "endpoint down".
        self._network.set_endpoint_down(node_name, False)
        node.recover()
        self._recoveries += 1

    def _do_slow(self, node_name: str, factor: float, at: Optional[float]) -> None:
        node = self._nodes[node_name]
        if node.cpu is not None:
            node.cpu.set_speed_factor(factor)
        if at is not None:
            self.watchdog.note_fault(at)

    def _do_partition(self, pairs: List[Tuple[str, str]], at: float) -> None:
        self._network.cut_links(pairs)
        self.watchdog.note_fault(at)
        self._partitions += 1

    def _do_heal(self, pairs: List[Tuple[str, str]]) -> None:
        self._network.heal_links(pairs)

    # -------------------------------------------------------------- metrics

    def metrics(self, duration: float) -> Dict[str, float]:
        """Recovery metrics merged into ``SimulationResult.extra``."""
        self.watchdog.finalize(duration)
        checkpoints_sent = 0
        checkpoints_adopted = 0
        stable_seq = 0
        for node in self._runner.nodes:
            replica = node.replica
            checkpoints_sent += getattr(replica, "checkpoints_sent", 0)
            checkpoints_adopted += getattr(replica, "checkpoints_adopted", 0)
            log = getattr(replica, "log", None)
            if log is not None:
                stable_seq = max(stable_seq, getattr(log, "stable_seq", 0))
        return {
            "fault_events": float(len(self._events)),
            "fault_crashes": float(self._crashes),
            "fault_recoveries": float(self._recoveries),
            "fault_partitions": float(self._partitions),
            "unavailability_seconds": self.watchdog.unavailability_seconds,
            "liveness_stalls": float(self.watchdog.stall_count),
            "time_to_recovery_seconds": self.watchdog.time_to_recovery_seconds,
            "checkpoints_sent": float(checkpoints_sent),
            "checkpoints_adopted": float(checkpoints_adopted),
            "stable_checkpoint_seq": float(stable_seq),
        }
