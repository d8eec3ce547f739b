"""Declarative sweep specifications.

A sweep is described *declaratively* — a :class:`GridSpec` names the axes
and their values, a :class:`PointSpec` pins one combination down, and a
:class:`SweepSpec` bundles the points with a name, a base deployment scale,
and a root seed.  Resolution turns each point into a plain-JSON dict that
fully determines one simulation run (every ``ProtocolConfig`` and
``YCSBConfig`` field, the system variant, the composed scenario presets,
duration and warm-up), and the SHA-256 digest of that resolved dict is the
point's *content address*: the result store keys on it, so any change to a
knob — including library-default changes that alter the resolved config —
yields a new address and a fresh simulation, while an unchanged point is
served from the store.

Per-point seeds are *derived*, not positional: unless a point pins a seed
explicitly, its seed is ``derive_seed(sweep.seed, sweep.name, labels)``, so
the same point gets the same RNG streams no matter which worker runs it or
in which order — the property the parallel-determinism tests lock down.

Since the ``repro.api`` facade landed, this module owns only the sweep
shapes (grids, points, per-point seed derivation); systems come from the
pluggable registry (:mod:`repro.api.registry` — runtime-registered systems
validate like built-ins), dotted-key override routing and scenario
composition live in :mod:`repro.api.spec`, and :func:`resolve_point`
delegates to the same :func:`repro.api.spec.resolve_run` the facade uses.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.spec import (
    SPEC_SCHEMA_VERSION,
    ScenarioSelector,
    jsonify as _jsonify,
    normalize_scenarios,
    replicate_fields,
    resolve_run,
    route_key,
    scenario_key,
    split_overrides,
    validate_base,
)
from repro.crypto.hashing import digest
from repro.errors import ConfigurationError
from repro.sim.rng import derive_seed

@dataclass(frozen=True)
class GridSpec:
    """An ordered parameter grid: axis name -> sequence of values.

    ``combinations()`` expands the grid in row-major order (first axis
    outermost), matching the nested ``for`` loops the per-figure experiment
    sweeps historically used, so refactoring onto grids preserves row order.
    """

    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]

    def __init__(
        self,
        axes: Union[
            Mapping[str, Sequence[object]],
            Iterable[Tuple[str, Sequence[object]]],
        ],
    ) -> None:
        if isinstance(axes, Mapping):
            pairs = tuple((name, tuple(values)) for name, values in axes.items())
        else:
            pairs = tuple((name, tuple(values)) for name, values in axes)
        seen = set()
        for name, values in pairs:
            if name in seen:
                raise ConfigurationError(f"duplicate grid axis {name!r}")
            if not values:
                raise ConfigurationError(f"grid axis {name!r} has no values")
            seen.add(name)
        object.__setattr__(self, "axes", pairs)

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _values in self.axes)

    def __len__(self) -> int:
        total = 1
        for _name, values in self.axes:
            total *= len(values)
        return total

    def combinations(self) -> List[Dict[str, object]]:
        """Expand to one ``{axis: value}`` dict per point, row-major."""
        names = self.axis_names
        value_lists = [values for _name, values in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]


@dataclass(frozen=True)
class PointSpec:
    """One individually addressable simulation point of a sweep.

    ``labels`` carry the human-facing axis values for tables and progress
    lines.  They never enter the content address directly, but for a point
    without a pinned ``seed`` they determine the *derived* seed — which is
    materialised into the resolved config and therefore the digest.  So
    relabelling shares cache entries only for pinned-seed points; for
    derived-seed points different labels deliberately mean different RNG
    streams (two identically-configured points with different labels are
    independent replicates, not duplicates).  ``config`` / ``workload`` are
    overrides applied on top of the sweep's base deployment scale; scenario
    presets may contribute further defaults underneath them.

    ``scenario`` names one preset or a *list* of presets to compose (see
    :func:`repro.api.spec.compose_scenarios` for the merge/conflict rules);
    ``system`` may name any system in the registry, including ones
    registered at runtime.

    ``replicates`` asks for N statistically independent repetitions of this
    point: :func:`expand_replicates` (applied automatically by
    :func:`repro.sweep.runner.run_sweep`) expands the point into N per-seed
    points, each content-addressed individually so the result store caches
    and resumes them like any other point.  ``replicates=1`` leaves the
    point — and therefore its digest — bit-identical to the pre-replicate
    era.
    """

    labels: Mapping[str, object] = field(default_factory=dict)
    config: Mapping[str, object] = field(default_factory=dict)
    workload: Mapping[str, object] = field(default_factory=dict)
    system: str = "serverless_bft"
    consensus_engine: str = "pbft"
    scenario: ScenarioSelector = "baseline"
    execution_threads: int = 16
    duration: float = 2.0
    warmup: float = 0.4
    seed: Optional[int] = None
    replicates: int = 1

    def __post_init__(self) -> None:
        from repro.api.registry import get_system

        get_system(self.system)  # raises with the known-system list
        normalize_scenarios(self.scenario)  # fail fast on malformed selectors
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.warmup < 0 or self.warmup >= self.duration:
            raise ConfigurationError("warmup must be inside [0, duration)")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")

    @property
    def scenario_names(self) -> Tuple[str, ...]:
        """The scenario selector as a canonical tuple of preset names."""
        return normalize_scenarios(self.scenario)

    @property
    def scenario_label(self) -> str:
        """Canonical string form (single name, or ``a+b`` for compositions)."""
        return scenario_key(self.scenario)


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of points sharing a base scale and a root seed."""

    name: str
    points: Tuple[PointSpec, ...]
    base: str = "scale"
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep needs a name")
        if not self.points:
            raise ConfigurationError(f"sweep {self.name!r} has no points")
        validate_base(self.base)
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)


# ------------------------------------------------------------------ resolution


def point_seed(sweep: SweepSpec, point: PointSpec) -> int:
    """The point's root RNG seed: pinned, or derived from sweep seed + labels.

    Deriving from the (sorted, canonical) labels rather than the point's
    position keeps the seed stable under reordering, filtering, or parallel
    execution of the sweep.  Single-scenario points derive exactly the seed
    they did before scenario lists existed (the canonical scenario key of
    ``"x"`` is ``"x"``).
    """
    if point.seed is not None:
        return point.seed
    if "seed" in point.config:
        return int(point.config["seed"])  # type: ignore[arg-type]
    label_blob = json.dumps(_jsonify(dict(point.labels)), sort_keys=True)
    return derive_seed(
        sweep.seed, sweep.name, point.scenario_label, point.system, label_blob
    )


def resolve_point(sweep: SweepSpec, point: PointSpec) -> Dict[str, object]:
    """Expand one point into the plain-JSON dict that fully determines a run.

    Delegates to the facade's :func:`repro.api.spec.resolve_run` — the sweep
    layer and ``repro.api.run`` share one resolution path, so a point
    simulated by either is the same simulation.
    """
    return resolve_run(
        base=sweep.base,
        system=point.system,
        consensus_engine=point.consensus_engine,
        scenarios=point.scenario_names,
        execution_threads=point.execution_threads,
        duration=point.duration,
        warmup=point.warmup,
        seed=point_seed(sweep, point),
        config_overrides=point.config,
        workload_overrides=point.workload,
        labels=point.labels,
    )


def point_digest(resolved: Mapping[str, object]) -> str:
    """Content address of a resolved point.

    Labels are excluded: everything they can influence (the derived seed,
    see :func:`point_seed`) is already materialised into the resolved
    config, so the address covers exactly what the simulation will see and
    nothing presentational.
    """
    addressed = {key: value for key, value in resolved.items() if key != "labels"}
    return digest(addressed)


# ------------------------------------------------------------------ replication


def expand_replicates(sweep: SweepSpec) -> SweepSpec:
    """Expand every ``replicates=N`` point into N per-seed single points.

    Replicate ``i`` of a point pins the seed
    ``derive_seed(point_seed(sweep, point), "replicate", i)`` — the point's
    existing seed chain (sweep seed, sweep name, scenario, system, labels,
    or a pinned seed) extended with the replicate index — and adds a
    ``replicate`` label so store records and report tables can group the
    family.  The expansion itself comes from the same
    :func:`repro.api.spec.replicate_fields` the facade uses, so sweep and
    facade replicates of one configuration share content addresses.  Each
    expanded point is an ordinary pinned-seed point: it resolves and
    content-addresses individually, so the result store caches and resumes
    replicates exactly like any other point.  A sweep whose points all have
    ``replicates=1`` is returned unchanged (same object, so digests are
    bit-identical to the pre-replicate era).
    """
    if all(point.replicates == 1 for point in sweep.points):
        return sweep
    expanded: List[PointSpec] = []
    for point in sweep.points:
        if point.replicates == 1:
            expanded.append(point)
            continue
        base_seed = point_seed(sweep, point)
        expanded.extend(
            dataclasses.replace(
                point, **replicate_fields(point.labels, base_seed, index)
            )
            for index in range(point.replicates)
        )
    return dataclasses.replace(sweep, points=tuple(expanded))


def with_replicates(sweep: SweepSpec, replicates: int) -> SweepSpec:
    """Set every point's replicate count (the CLI ``--replicates`` flag)."""
    if replicates < 1:
        raise ConfigurationError("replicates must be >= 1")
    if all(point.replicates == replicates for point in sweep.points):
        return sweep
    points = tuple(
        dataclasses.replace(point, replicates=replicates) for point in sweep.points
    )
    return dataclasses.replace(sweep, points=points)


# ------------------------------------------------------------------ overrides


def apply_overrides(sweep: SweepSpec, overrides: Mapping[str, object]) -> SweepSpec:
    """Apply dotted-key overrides to every point (the CLI ``--set`` flag).

    Keys route through :func:`repro.api.spec.route_key`: config/workload
    keys land in the per-point override dicts (on top of whatever the point
    already pins), run-level keys (``system``, ``scenario``, ``duration``,
    ...) replace the point fields.  Returns a new sweep; digests change
    accordingly, so overridden runs are fresh cache entries.
    """
    if not overrides:
        return sweep
    config_ov, workload_ov, run_ov = split_overrides(overrides)
    points = tuple(
        dataclasses.replace(
            point,
            config={**point.config, **config_ov},
            workload={**point.workload, **workload_ov},
            **run_ov,
        )
        for point in sweep.points
    )
    return dataclasses.replace(sweep, points=points)


# ------------------------------------------------------------------ file-defined sweeps


def sweep_from_grid(
    name: str,
    grid: GridSpec,
    base: str = "scale",
    seed: int = 1,
    duration: float = 2.0,
    warmup: float = 0.4,
    config: Optional[Mapping[str, object]] = None,
    workload: Optional[Mapping[str, object]] = None,
    scenario: ScenarioSelector = "baseline",
    system: str = "serverless_bft",
    replicates: int = 1,
) -> SweepSpec:
    """Expand a grid into a :class:`SweepSpec`, routing each axis by name.

    Axes route through the facade's dotted-key resolver: ``ProtocolConfig``
    fields become protocol overrides, ``YCSBConfig`` fields workload
    overrides, and run-level names (``scenario`` / ``system`` /
    ``consensus_engine`` / ``execution_threads`` / ``duration`` /
    ``warmup`` / ``replicates``) select the point variant.  ``config`` /
    ``workload`` supply grid-wide constants; ``scenario`` may be a preset
    name or a list of presets to compose; ``replicates`` asks for N
    independent seeds per grid point.
    """
    shared_config = dict(config or {})
    shared_workload = dict(workload or {})
    # Overlap between shared constants and a grid axis would silently shadow;
    # surface it instead.
    for axis in grid.axis_names:
        if axis in shared_config or axis in shared_workload:
            raise ConfigurationError(f"axis {axis!r} also given as a sweep constant")
    points = []
    for combo in grid.combinations():
        point_fields: Dict[str, object] = {
            "scenario": scenario,
            "system": system,
            "duration": duration,
            "warmup": warmup,
            "replicates": replicates,
        }
        config_overrides = dict(shared_config)
        workload_overrides = dict(shared_workload)
        for axis, value in combo.items():
            target, fieldname = route_key(axis)
            if target == "run":
                point_fields[fieldname] = value
            elif target == "config":
                config_overrides[fieldname] = value
            else:
                workload_overrides[fieldname] = value
        points.append(
            PointSpec(
                labels=combo,
                config=config_overrides,
                workload=workload_overrides,
                **point_fields,
            )
        )
    return SweepSpec(name=name, points=tuple(points), base=base, seed=seed)


def sweep_from_dict(payload: Mapping[str, object]) -> SweepSpec:
    """Build a sweep from a JSON-style dict (the ``--file`` CLI format).

    Expected shape::

        {"name": "my-sweep", "base": "scale", "seed": 3,
         "duration": 1.0, "warmup": 0.2,
         "scenario": "baseline",              # or a list to compose
         "system": "serverless_bft",
         "replicates": 1,                     # N seeds per grid point

         "config": {"crypto_backend": "fast"},
         "workload": {"write_fraction": 0.5},
         "grid": {"batch_size": [5, 25], "num_executors": [3, 5]}}
    """
    if "grid" not in payload or not payload["grid"]:
        raise ConfigurationError("a sweep file needs a non-empty 'grid' mapping")
    if "name" not in payload:
        raise ConfigurationError("a sweep file needs a 'name'")
    grid = GridSpec(payload["grid"])  # type: ignore[arg-type]
    scenario = payload.get("scenarios", payload.get("scenario", "baseline"))
    return sweep_from_grid(
        name=str(payload["name"]),
        grid=grid,
        base=str(payload.get("base", "scale")),
        seed=int(payload.get("seed", 1)),  # type: ignore[arg-type]
        duration=float(payload.get("duration", 2.0)),  # type: ignore[arg-type]
        warmup=float(payload.get("warmup", 0.4)),  # type: ignore[arg-type]
        config=payload.get("config"),  # type: ignore[arg-type]
        workload=payload.get("workload"),  # type: ignore[arg-type]
        scenario=scenario,
        system=str(payload.get("system", "serverless_bft")),
        replicates=int(payload.get("replicates", 1)),  # type: ignore[arg-type]
    )
