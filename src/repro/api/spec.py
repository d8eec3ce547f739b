"""Declarative run specifications and the one home of dotted-key resolution.

:class:`RunSpec` describes one deployment run declaratively — which system
to build (resolved through :mod:`repro.api.registry`), a *list* of scenario
presets to compose (:mod:`repro.api.scenarios`, the only way faults enter a
run), dotted-key protocol/workload overrides, seed, and duration/warm-up.
A spec is pure data: it holds no live objects.  It is also the one
description of a sweep point: a :class:`repro.sweep.SweepSpec` is a tuple of
``RunSpec`` s.  :func:`resolve` turns a ``RunSpec`` into the plain-JSON dict
that determines the run, and :func:`repro.api.run` into a
:class:`~repro.core.result.SimulationResult`.

This module is also where dotted-key override resolution lives — the sweep
layer (grid axes, ``--set`` CLI overrides) and the facade route every key
through :func:`route_key` / :func:`split_overrides`, so there is exactly one
definition of what ``protocol.batch_size`` or a bare ``write_fraction``
means.

Scenario *composition* replaces the old one-``scenario``-per-point limit:
a spec may name several presets (``["region-outage", "skewed-ycsb"]``).
They are applied in list order; config/workload/runner-knob contributions
merge, and any two scenarios writing *different values to the same key*
raise :class:`ScenarioConflictError` instead of silently shadowing each
other.  (Point-level overrides still apply on top of whatever the composed
scenarios contributed.)
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.api.scenarios import get_scenario, validate_seed_label
from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.sim.rng import derive_seed
from repro.workload.config import YCSBConfig, follow_clients

#: Bumped whenever the resolved-run layout changes incompatibly, so stale
#: result-store entries can never be mistaken for current ones.
#: (2: scenario lists — resolved runs carry a ``scenarios`` array.)
SPEC_SCHEMA_VERSION = 2


class ScenarioConflictError(ConfigurationError):
    """Two composed scenarios disagree about the same key."""


# ------------------------------------------------------------------ jsonify


def jsonify(value: Any) -> Any:
    """Rewrite ``value`` into pure JSON types (dicts/lists/str/num/bool/None).

    Enum members collapse to their values and tuples to lists so that a
    resolved run hashes identically before and after a JSONL round-trip.
    """
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonify(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ------------------------------------------------------------------ dotted-key routing

_CONFIG_FIELDS = frozenset(ProtocolConfig.__dataclass_fields__)
_WORKLOAD_FIELDS = frozenset(YCSBConfig.__dataclass_fields__)

#: Run-level keys (RunSpec fields, not config or workload knobs).  ``seed``
#: is deliberately absent: a bare ``seed`` routes to the protocol config,
#: which the per-point seed derivation has always honoured.
_RUN_FIELDS = frozenset(
    {
        "system",
        "scenario",
        "scenarios",
        "execution_threads",
        "duration",
        "warmup",
        "replicates",
    }
)

#: Accepted dotted prefixes for explicit routing.
_PREFIX_TARGETS = {"protocol": "config", "config": "config", "workload": "workload"}


def route_key(key: str) -> Tuple[str, str]:
    """Classify one override key: ``(target, field)``.

    ``target`` is ``"config"`` (protocol), ``"workload"``, or ``"run"``.
    Keys may be explicitly prefixed (``protocol.batch_size``,
    ``workload.write_fraction``); bare names are routed by field membership —
    run-level names first, then :class:`ProtocolConfig`, then
    :class:`YCSBConfig` (``seed`` exists in both configs and routes to the
    protocol config, matching the historical sweep-axis behaviour).
    """
    if "." in key:
        prefix, fieldname = key.split(".", 1)
        target = _PREFIX_TARGETS.get(prefix)
        if target is None:
            raise ConfigurationError(
                f"unknown override prefix {prefix!r} in {key!r} "
                f"(expected 'protocol.', 'config.', or 'workload.')"
            )
        known = _CONFIG_FIELDS if target == "config" else _WORKLOAD_FIELDS
        if fieldname not in known:
            kind = "ProtocolConfig" if target == "config" else "YCSBConfig"
            raise ConfigurationError(f"{key!r}: {kind} has no field {fieldname!r}")
        return target, fieldname
    if key in _RUN_FIELDS:
        return "run", "scenarios" if key == "scenario" else key
    if key in _CONFIG_FIELDS:
        return "config", key
    if key in _WORKLOAD_FIELDS:
        return "workload", key
    raise ConfigurationError(
        f"unknown override key {key!r}: not a run-level field, a ProtocolConfig "
        f"field, or a YCSBConfig field (prefix with 'protocol.' or 'workload.' "
        f"to route explicitly)"
    )


def split_overrides(
    overrides: Mapping[str, object],
) -> Tuple[Dict[str, object], Dict[str, object], Dict[str, object]]:
    """Split dotted-key overrides into ``(config, workload, run)`` dicts."""
    config: Dict[str, object] = {}
    workload: Dict[str, object] = {}
    run: Dict[str, object] = {}
    buckets = {"config": config, "workload": workload, "run": run}
    for key, value in overrides.items():
        target, fieldname = route_key(str(key))
        buckets[target][fieldname] = value
    return config, workload, run


def dotted_overrides(
    config: Mapping[str, object], workload: Mapping[str, object]
) -> Dict[str, object]:
    """Spell config and workload fields as one explicitly prefixed mapping.

    The inverse of :func:`split_overrides` for the two config targets: every
    key comes out as ``protocol.<field>`` or ``workload.<field>``, so a
    ``workload.seed`` can never be routed to the protocol config.
    """
    dotted = {f"protocol.{key}": value for key, value in config.items()}
    dotted.update((f"workload.{key}", value) for key, value in workload.items())
    return dotted


def parse_set_overrides(pairs: Sequence[str], flag: str = "--set") -> Dict[str, object]:
    """Parse repeated ``--set key=value`` flags; values are JSON when possible.

    ``--set batch_size=25`` yields an int, ``--set scenario='["a","b"]'`` a
    list, and anything that is not valid JSON stays a plain string
    (``--set system=noshim``).  Every ``key=value`` flag reads through
    here: ``--set`` of ``repro.sweep`` and ``repro.obs``, and ``--where``
    of ``repro.store query`` (``flag`` names it in the error).
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ConfigurationError(f"{flag} expects key=value, got {pair!r}")
        try:
            value: object = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


# ------------------------------------------------------------------ scenario composition

#: What callers may pass wherever a scenario is expected: nothing (the
#: baseline), one preset name, or an ordered list of presets to compose.
ScenarioSelector = Union[None, str, Sequence[str]]


def normalize_scenarios(scenario: ScenarioSelector) -> Tuple[str, ...]:
    """Canonicalise a scenario selector: str | sequence -> non-empty tuple.

    Scenario names feed per-point seed derivation (via the canonical
    scenario key), so names containing ``/`` are rejected — see
    :func:`validate_seed_label`.
    """
    if scenario is None:
        return ("baseline",)
    if isinstance(scenario, str):
        names: Tuple[str, ...] = (scenario,) if scenario else ("baseline",)
    else:
        names = tuple(str(name) for name in scenario) or ("baseline",)
    for name in names:
        validate_seed_label(name, "scenario name")
    return names


def scenario_key(scenario: ScenarioSelector) -> str:
    """The canonical string form of a scenario selector.

    Single scenarios keep their plain name (so derived per-point seeds are
    unchanged from the one-scenario era); compositions join with ``+`` in
    application order.
    """
    return "+".join(normalize_scenarios(scenario))


@dataclass(frozen=True)
class ComposedScenarios:
    """The merged config/workload contributions of a scenario list."""

    names: Tuple[str, ...]
    config_overrides: Dict[str, object] = field(default_factory=dict)
    workload_overrides: Dict[str, object] = field(default_factory=dict)


def _merge_scenario_layer(
    merged: Dict[str, object],
    sources: Dict[str, str],
    contribution: Mapping[str, object],
    scenario_name: str,
    layer: str,
) -> None:
    for key, value in contribution.items():
        if key in merged and merged[key] != value:
            raise ScenarioConflictError(
                f"scenarios {sources[key]!r} and {scenario_name!r} both set "
                f"{layer} key {key!r} to different values "
                f"({merged[key]!r} vs {value!r}); drop one of them or move the "
                f"knob into an explicit point override"
            )
        merged[key] = value
        sources[key] = scenario_name
    return None


def compose_scenarios(scenario: ScenarioSelector) -> ComposedScenarios:
    """Merge the config/workload overrides of a scenario list, in list order.

    Overlapping keys are allowed only when every contributing scenario
    agrees on the value; otherwise :class:`ScenarioConflictError` names the
    two scenarios and the key.
    """
    names = normalize_scenarios(scenario)
    config: Dict[str, object] = {}
    workload: Dict[str, object] = {}
    config_sources: Dict[str, str] = {}
    workload_sources: Dict[str, str] = {}
    for name in names:
        preset = get_scenario(name)
        _merge_scenario_layer(config, config_sources, preset.config_overrides, name, "config")
        _merge_scenario_layer(
            workload, workload_sources, preset.workload_overrides, name, "workload"
        )
    return ComposedScenarios(
        names=names, config_overrides=config, workload_overrides=workload
    )


def compose_runner_kwargs(
    scenario: ScenarioSelector, resolved: Mapping[str, object]
) -> Dict[str, object]:
    """Build and merge the runner knobs of every scenario in the list.

    Each scenario's ``runner_kwargs_factory`` runs in the executing process
    (behaviour objects carry state).  ``node_behaviours`` dicts merge when
    they target disjoint nodes; any other overlap — two network fault
    plans, two executor behaviour factories, two behaviours for the same
    node — is a :class:`ScenarioConflictError`.
    """
    merged: Dict[str, object] = {}
    sources: Dict[str, str] = {}
    for name in normalize_scenarios(scenario):
        for key, value in get_scenario(name).runner_kwargs(resolved).items():
            if key not in merged:
                merged[key] = value
                sources[key] = name
                continue
            if key != "node_behaviours":
                raise ScenarioConflictError(
                    f"scenarios {sources[key]!r} and {name!r} both set runner "
                    f"knob {key!r}; compose scenarios that inject disjoint faults"
                )
            existing: Dict[str, object] = dict(merged[key])  # type: ignore[arg-type]
            overlap = sorted(set(existing) & set(value))  # type: ignore[arg-type]
            if overlap:
                raise ScenarioConflictError(
                    f"scenarios {sources[key]!r} and {name!r} both assign "
                    f"behaviours to nodes {overlap}"
                )
            existing.update(value)  # type: ignore[arg-type]
            merged[key] = existing
    return merged


# ------------------------------------------------------------------ base configs

#: The three deployment bases a spec resolves on top of: ``ProtocolConfig``
#: defaults per base, overridden by scenarios and then by the spec's own keys.
#: ``"scale"`` is the scaled-down deployment every simulated point runs in
#: seconds of wall-clock; ``"paper"`` is Section IX's setup (SERVBFT-8, 3
#: executors in 3 regions, batches of 100, 80 k clients, YCSB over 600 k
#: records) — evaluated by the analytical model, and simulated at about
#: 25 s of host time per virtual second; ``"default"`` is the library's own
#: dataclass defaults.
_BASE_PROTOCOL: Dict[str, Dict[str, object]] = {
    "scale": {
        "shim_nodes": 4,
        "batch_size": 25,
        "num_clients": 200,
        "client_groups": 8,
        "num_executors": 3,
        "num_executor_regions": 3,
    },
    "paper": {
        "shim_nodes": 8,
        "shim_cores": 16,
        "batch_size": 100,
        "num_executors": 3,
        "num_executor_regions": 3,
        "num_clients": 80_000,
        "client_groups": 32,
    },
    "default": {},
}

#: ``YCSBConfig`` defaults per base (same keys as :data:`_BASE_PROTOCOL`).
_BASE_WORKLOAD: Dict[str, Dict[str, object]] = {
    "scale": {
        "num_records": 5_000,
        "operations_per_transaction": 4,
        "write_fraction": 0.5,
    },
    "paper": {
        "num_records": 600_000,
        "operations_per_transaction": 4,
        "write_fraction": 0.5,
        "conflict_fraction": 0.0,
    },
    "default": {},
}


def validate_base(base: str) -> str:
    if base not in _BASE_PROTOCOL:
        known = ", ".join(repr(name) for name in _BASE_PROTOCOL)
        raise ConfigurationError(f"unknown base {base!r} (expected one of {known})")
    return base


# ------------------------------------------------------------------ RunSpec

#: RunSpec fields captured by :func:`resolve_run` — they enter the resolved
#: dict and therefore the content address.  Together with
#: :data:`NON_ADDRESSED_RUNSPEC_FIELDS` this must partition the dataclass
#: exactly: the DIG002 lint rule cross-checks both lists against the class
#: body, so adding a field forces an explicit decision about whether it
#: changes the content address (``tests/test_lint.py`` also asserts the
#: partition against ``dataclasses.fields`` at runtime).
ADDRESSED_RUNSPEC_FIELDS = (
    "system",
    "scenarios",
    "overrides",
    "base",
    "seed",
    "duration",
    "warmup",
    "execution_threads",
    "labels",
)

#: RunSpec fields deliberately *outside* the content address, each with its
#: reason: ``replicates`` is expansion-only (every expanded replicate pins a
#: derived seed, which *is* addressed); ``tracer_enabled`` is a collection
#: flag — traced and untraced runs of the same point must share one digest.
NON_ADDRESSED_RUNSPEC_FIELDS = ("replicates", "tracer_enabled")


@dataclass(frozen=True)
class RunSpec:
    """One deployment run, declaratively.

    ``overrides`` accepts dotted keys (``protocol.batch_size``,
    ``workload.write_fraction``) or bare field names routed automatically
    (see :func:`route_key`); run-level knobs (system, duration, ...) are
    proper fields of this class and are rejected inside ``overrides``.

    ``scenarios`` composes any number of presets in order, and is the only
    way faults enter a spec: every field is plain data, so every spec is
    addressable and ships to a pool worker.  A custom fault object is not
    a spec: pass it to :func:`repro.api.build_system` as a constructor knob.

    ``seed=None`` leaves the seed unpinned.  Resolved on its own
    (:func:`resolve`), the run takes the ``seed`` override if one was given,
    else 1; as a sweep point it takes the seed derived from the sweep (see
    :func:`repro.sweep.spec.point_seed`).  Either way the materialised seed
    ends up in the resolved run, so resolution is always fully pinned.

    ``replicates`` declares how many statistically independent repetitions
    of this run the caller wants: :func:`replicate_specs` expands the spec
    into that many single-replicate specs with per-replicate derived seeds.
    ``replicates=1`` (the default) is the spec itself — resolution and
    content address are bit-identical to a spec without the field.
    """

    system: str = "serverless_bft"
    scenarios: Tuple[str, ...] = ()
    overrides: Mapping[str, object] = field(default_factory=dict)
    base: str = "scale"
    seed: Optional[int] = None
    duration: float = 2.0
    warmup: float = 0.4
    execution_threads: int = 16
    replicates: int = 1
    labels: Mapping[str, object] = field(default_factory=dict)
    tracer_enabled: bool = False

    def __post_init__(self) -> None:
        from repro.api.registry import get_system

        get_system(self.system)  # raises with the known-system list
        object.__setattr__(self, "scenarios", normalize_scenarios(self.scenarios))
        validate_base(self.base)
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.warmup < 0 or self.warmup >= self.duration:
            raise ConfigurationError("warmup must be inside [0, duration)")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        _config_ov, _workload_ov, run_ov = split_overrides(self.overrides)
        if run_ov:
            raise ConfigurationError(
                f"run-level keys {sorted(run_ov)} belong in RunSpec fields, "
                f"not in overrides"
            )


def run_seed(spec: RunSpec) -> int:
    """The seed a spec resolves with on its own: pinned, else the ``seed``
    override, else 1."""
    if spec.seed is not None:
        return spec.seed
    config_ov, _workload_ov, _run_ov = split_overrides(spec.overrides)
    return int(config_ov.get("seed", 1))  # type: ignore[arg-type]


def replicate_specs(spec: RunSpec) -> Tuple[RunSpec, ...]:
    """Expand a spec into its per-seed replicate runs.

    ``replicates=1`` returns the spec itself unchanged, so resolution and
    content address stay bit-identical to the single-run era.  For
    ``replicates=N`` each replicate ``i`` pins the seed
    ``derive_seed(run_seed(spec), "replicate", i)`` — the spec's own seed
    chain extended with the replicate index — and records the index in
    ``labels`` so result-store records and report tables can group the
    family back together.  Every replicate is a plain ``replicates=1`` spec:
    it resolves, digests, and caches like any other run.  Facade runs and
    sweep points (:func:`repro.sweep.spec.expand_replicates`) both expand
    here, so a replicate has one content address whichever ran it.
    """
    if spec.replicates == 1:
        return (spec,)
    base_seed = run_seed(spec)
    return tuple(
        dataclasses.replace(
            spec,
            replicates=1,
            seed=derive_seed(base_seed, "replicate", index),
            labels={**dict(spec.labels), "replicate": index},
        )
        for index in range(spec.replicates)
    )


# ------------------------------------------------------------------ resolution


def resolve_run(
    *,
    base: str,
    system: str,
    scenarios: ScenarioSelector,
    execution_threads: int,
    duration: float,
    warmup: float,
    seed: int,
    config_overrides: Mapping[str, object],
    workload_overrides: Mapping[str, object],
    labels: Mapping[str, object],
) -> Dict[str, object]:
    """Expand a run into the plain-JSON dict that fully determines it.

    Composed scenarios contribute config/workload defaults *underneath* the
    explicit overrides, and the seed is materialised into both configs, so
    the resolved dict — and therefore its content address — captures
    everything the simulation will see.
    """
    composed = compose_scenarios(scenarios)

    config_ov: Dict[str, object] = dict(_BASE_PROTOCOL[validate_base(base)])
    config_ov.update(composed.config_overrides)
    config_ov.update(config_overrides)
    config_ov["seed"] = seed

    workload_ov: Dict[str, object] = dict(_BASE_WORKLOAD[base])
    workload_ov.update(composed.workload_overrides)
    workload_ov.update(workload_overrides)
    workload_ov.setdefault("seed", derive_seed(seed, "workload"))

    config = ProtocolConfig(**config_ov)  # type: ignore[arg-type]
    workload = follow_clients(YCSBConfig(**workload_ov), config.num_clients)  # type: ignore[arg-type]

    return {
        "schema": SPEC_SCHEMA_VERSION,
        "system": system,
        "scenario": "+".join(composed.names),
        "scenarios": list(composed.names),
        "execution_threads": execution_threads,
        "duration": duration,
        "warmup": warmup,
        "config": jsonify(dataclasses.asdict(config)),
        "workload": jsonify(dataclasses.asdict(workload)),
        "labels": jsonify(dict(labels)),
    }


def resolve(spec: RunSpec) -> Dict[str, object]:
    """Expand a :class:`RunSpec` into the plain-JSON dict that determines it.

    The one resolution path of facade runs and sweep points alike, so
    ``repro.sweep.point_digest`` of the result is the run's cache key
    wherever it ran.  An unpinned seed resolves by :func:`run_seed`.
    """
    config_overrides, workload_overrides, _run = split_overrides(spec.overrides)
    return resolve_run(
        base=spec.base,
        system=spec.system,
        scenarios=spec.scenarios,
        execution_threads=spec.execution_threads,
        duration=spec.duration,
        warmup=spec.warmup,
        seed=run_seed(spec),
        config_overrides=config_overrides,
        workload_overrides=workload_overrides,
        labels=spec.labels,
    )
