"""Declarative sweep specifications.

A sweep is described *declaratively* — a :class:`GridSpec` names the axes
and their values, each point is a :class:`~repro.api.spec.RunSpec` (the
same object :func:`repro.api.run` takes), and a :class:`SweepSpec` bundles
the points with a name and a root seed.  Resolution turns each point into a
plain-JSON dict that fully determines one simulation run (every
``ProtocolConfig`` and ``YCSBConfig`` field, the system variant, the
composed scenario presets, duration and warm-up), and the SHA-256 digest of
that resolved dict is the point's *content address*: the result store keys
on it, so any change to a knob — including library-default changes that
alter the resolved config — yields a new address and a fresh simulation,
while an unchanged point is served from the store.

Per-point seeds are *derived*, not positional: unless a point pins a seed
explicitly, its seed is ``derive_seed(sweep.seed, sweep.name, scenarios,
system, labels)``, so the same point gets the same RNG streams no matter
which worker runs it or in which order — the property the
parallel-determinism tests lock down.

This module owns only the sweep shapes: grids, the tuple of points,
per-point seed derivation, and the sweep-wide replicate expansion and
``--set`` overrides.  What a point is, how its dotted keys route and how it
resolves live in :mod:`repro.api.spec` — :func:`resolve_point` is
:func:`repro.api.spec.resolve` with the derived seed pinned — and systems
and scenarios come from the registries in :mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.spec import (
    RunSpec,
    ScenarioSelector,
    dotted_overrides,
    jsonify as _jsonify,
    normalize_scenarios,
    replicate_specs,
    resolve,
    scenario_key,
    split_overrides,
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
class SweepSpec:
    """A named collection of points sharing a root seed.

    Every point is a :class:`~repro.api.spec.RunSpec` — the same object
    :func:`repro.api.run` takes, carrying its own deployment ``base``.
    """

    name: str
    points: Tuple[RunSpec, ...]
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a sweep needs a name")
        if not self.points:
            raise ConfigurationError(f"sweep {self.name!r} has no points")
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)


# ------------------------------------------------------------------ resolution


def point_seed(sweep: SweepSpec, point: RunSpec) -> int:
    """The point's root RNG seed: pinned, or derived from sweep seed + labels.

    A pinned ``seed`` (or a ``seed`` override) wins; otherwise the seed is
    derived from the (sorted, canonical) labels rather than the point's
    position, which keeps it stable under reordering, filtering, or parallel
    execution of the sweep.  Single-scenario points derive exactly the seed
    they did before scenario lists existed (the canonical scenario key of
    ``"x"`` is ``"x"``).
    """
    if point.seed is not None:
        return point.seed
    config_overrides, _workload, _run = split_overrides(point.overrides)
    if "seed" in config_overrides:
        return int(config_overrides["seed"])  # type: ignore[arg-type]
    label_blob = json.dumps(_jsonify(dict(point.labels)), sort_keys=True)
    return derive_seed(
        sweep.seed, sweep.name, scenario_key(point.scenarios), point.system, label_blob
    )


def resolve_point(sweep: SweepSpec, point: RunSpec) -> Dict[str, object]:
    """Expand one point into the plain-JSON dict that fully determines a run.

    The point's seed is pinned to :func:`point_seed` and the rest is the
    facade's :func:`repro.api.spec.resolve` — the sweep layer and
    ``repro.api.run`` share one resolution path, so a point simulated by
    either is the same simulation.
    """
    return resolve(dataclasses.replace(point, seed=point_seed(sweep, point)))


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

    Each such point is pinned to its :func:`point_seed` — its existing seed
    chain (sweep seed, sweep name, scenario, system, labels, or a pinned
    seed) — and expanded by the facade's own
    :func:`repro.api.spec.replicate_specs`, so sweep and facade replicates of
    one configuration share content addresses.  Each expanded point is an
    ordinary pinned-seed point: it resolves and content-addresses
    individually, so the result store caches and resumes replicates exactly
    like any other point.  A sweep whose points all have ``replicates=1`` is
    returned unchanged (same object, so digests are bit-identical to the
    pre-replicate era).
    """
    if all(point.replicates == 1 for point in sweep.points):
        return sweep
    expanded: List[RunSpec] = []
    for point in sweep.points:
        if point.replicates > 1:
            point = dataclasses.replace(point, seed=point_seed(sweep, point))
        expanded.extend(replicate_specs(point))
    return dataclasses.replace(sweep, points=tuple(expanded))


# ------------------------------------------------------------------ overrides


def apply_overrides(sweep: SweepSpec, overrides: Mapping[str, object]) -> SweepSpec:
    """Apply dotted-key overrides to every point (the CLI ``--set`` flag).

    Keys route through :func:`repro.api.spec.route_key`: config/workload
    keys win over the point's own value for the same field however either
    is spelled (``batch_size`` or ``protocol.batch_size``), and run-level
    keys (``system``, ``scenario``/``scenarios``, ``duration``,
    ``replicates``, ...) replace the point fields.  Returns a new sweep;
    digests change accordingly, so overridden runs are fresh cache entries.
    """
    if not overrides:
        return sweep
    config_ov, workload_ov, run_ov = split_overrides(overrides)
    points = []
    for point in sweep.points:
        point_config, point_workload, _run = split_overrides(point.overrides)
        merged = dotted_overrides(
            {**point_config, **config_ov}, {**point_workload, **workload_ov}
        )
        points.append(dataclasses.replace(point, overrides=merged, **run_ov))
    return dataclasses.replace(sweep, points=tuple(points))


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
    fields become ``protocol.`` overrides, ``YCSBConfig`` fields
    ``workload.`` overrides, and run-level names (``scenario`` / ``system``
    / ``consensus_engine`` / ``execution_threads`` / ``duration`` /
    ``warmup`` / ``replicates``) select the point variant.  ``config`` /
    ``workload`` supply grid-wide constants; ``scenario`` may be a preset
    name or a list of presets to compose; ``replicates`` asks for N
    independent seeds per grid point; ``base`` is every point's deployment
    base.
    """
    shared_config = dict(config or {})
    shared_workload = dict(workload or {})
    # Overlap between shared constants and a grid axis would silently shadow;
    # surface it instead.
    for axis in grid.axis_names:
        if axis in shared_config or axis in shared_workload:
            raise ConfigurationError(f"axis {axis!r} also given as a sweep constant")
    template = RunSpec(
        system=system,
        scenarios=normalize_scenarios(scenario),
        base=base,
        duration=duration,
        warmup=warmup,
        replicates=replicates,
    )
    points = []
    for combo in grid.combinations():
        axis_config, axis_workload, axis_run = split_overrides(combo)
        overrides = dotted_overrides(
            {**shared_config, **axis_config}, {**shared_workload, **axis_workload}
        )
        points.append(
            dataclasses.replace(template, labels=combo, overrides=overrides, **axis_run)
        )
    return SweepSpec(name=name, points=tuple(points), seed=seed)


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
