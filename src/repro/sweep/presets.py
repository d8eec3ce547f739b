"""Named sweeps, runnable by name from the CLI — and the one definition of
each figure of the paper's evaluation.

Each preset is a function returning a :class:`~repro.sweep.spec.SweepSpec`;
``build_sweep(name, ...)`` looks one up and lets the CLI override duration,
warm-up, and seed.

The eleven figures of Section IX (Figures 5–8 plus the spawning and
conflict-avoidance ablations) are each registered once and carry their grid
at two scales, selected by ``base`` (every point carries it): ``"scale"`` is
the scaled-down grid small enough to simulate message by message
(``python -m repro.sweep run fig6-batching``), ``"paper"`` the paper's own
axis values, answered by the analytical model
(``repro.perfmodel.evaluate_sweep(build_sweep(name, base="paper"))``, or
``python -m repro.report --model-presets`` for all eleven).  Simulated
grids use the fast crypto backend — the determinism suite proves it
simulates bit-identical runs at a fraction of the host CPU, which is
exactly what large sweeps want.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.api.spec import RunSpec
from repro.sweep.spec import GridSpec, SweepSpec, sweep_from_grid

_REGISTRY: Dict[str, Callable[..., SweepSpec]] = {}

#: The figures among the registered sweeps, in the paper's order.
_FIGURES: List[str] = []

#: Large sweeps default to the fast crypto backend (identical simulated
#: results, much less host CPU); byzantine drills override this to "real".
_FAST = {"crypto_backend": "fast"}


def register_sweep(name: str):
    """Decorator: register a ``(duration, warmup, seed) -> SweepSpec`` factory."""

    def decorate(factory: Callable[..., SweepSpec]) -> Callable[..., SweepSpec]:
        if name in _REGISTRY:
            raise ConfigurationError(f"sweep {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def sweep_names() -> List[str]:
    return sorted(_REGISTRY)


def figure_names() -> List[str]:
    """The sweeps that are figures of the paper (they also have a paper grid)."""
    return list(_FIGURES)


def build_sweep(
    name: str,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    seed: Optional[int] = None,
    base: Optional[str] = None,
) -> SweepSpec:
    """Build a named sweep; non-None duration/warmup/seed override it.

    ``base="paper"`` asks a figure for the paper's grid instead of the
    simulable one (see the module docstring).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sweep_names())
        raise ConfigurationError(f"unknown sweep {name!r} (known: {known})")
    if base is not None and name not in _FIGURES:
        raise ConfigurationError(
            f"sweep {name!r} is not a figure: it has no {base!r} grid"
        )
    kwargs = {
        key: value
        for key, value in (
            ("duration", duration), ("warmup", warmup), ("seed", seed), ("base", base)
        )
        if value is not None
    }
    return factory(**kwargs)


@register_sweep("smoke")
def smoke(duration: float = 0.5, warmup: float = 0.1, seed: int = 1) -> SweepSpec:
    """4-point batching x executors grid — the CI smoke sweep."""
    return sweep_from_grid(
        name="smoke",
        grid=GridSpec({"batch_size": (5, 25), "num_executors": (3, 5)}),
        config={**_FAST, "num_clients": 60, "client_groups": 4},
        workload={"clients": 60},
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


# ------------------------------------------------------------------ figures


def _grid(
    axes: Mapping[str, Sequence[object]],
    config: Optional[Mapping[str, object]] = None,
    workload: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """One block of a figure's points: grid axes plus block-wide constants."""
    return {
        "grid": GridSpec(axes),
        "config": {**_FAST, **(config or {})},
        "workload": dict(workload or {}),
    }


def _figure(
    name: str,
    doc: str,
    scale: Sequence[Mapping[str, object]],
    paper: Sequence[Mapping[str, object]],
    duration: float = 2.0,
    warmup: float = 0.4,
) -> None:
    """Register one figure: its blocks of points at the two scales.

    A scale is a sequence of :func:`_grid` blocks whose points concatenate —
    one block for a plain grid, several where a knob is tied to an axis value
    (Figure 6(i)'s regions follow the executor count) or the series do not
    share their axes (Figure 8's edge-only baseline sweeps execution threads).
    """
    grids = {"scale": scale, "paper": paper}

    def build(
        base: str = "scale",
        duration: float = duration,
        warmup: float = warmup,
        seed: int = 1,
    ) -> SweepSpec:
        if base not in grids:
            raise ConfigurationError(
                f"figure {name!r} has no {base!r} grid (known: {', '.join(grids)})"
            )
        points: List[RunSpec] = []
        for block in grids[base]:
            points.extend(
                sweep_from_grid(
                    name=name, base=base, seed=seed, duration=duration, warmup=warmup,
                    **block,
                ).points
            )
        return SweepSpec(name=name, points=tuple(points), seed=seed)

    build.__doc__ = doc
    register_sweep(name)(build)
    _FIGURES.append(name)


#: SERVBFT-8 and SERVBFT-32 — the two shim sizes Figures 5 and 6 plot.
_SHIMS = (8, 32)

#: Figure 7's comparison set (registry names).
_SYSTEMS = ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim")

#: Figure 8's per-batch execution lengths (0–2000 ms).
_OFFLOAD_SECONDS = (0.0, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0)


def _conflict_modes(fractions: Sequence[float]) -> List[Dict[str, object]]:
    """Both conflict modes over ``fractions`` (the lock map needs known rw-sets)."""
    return [
        _grid(
            {"conflict_mode": (mode,), "conflict_fraction": fractions},
            workload={"rw_sets_known": known},
        )
        for mode, known in (("optimistic", False), ("conflict_avoidance", True))
    ]


_figure(
    "fig5-clients",
    "Figure 5: latency vs throughput while the client population grows.",
    scale=[_grid({"shim_nodes": (4, 8)})],
    paper=[_grid({
        "shim_nodes": _SHIMS,
        # Doubling for five points, then +8 k.
        "num_clients": (2_000, 4_000, 8_000, 16_000, 32_000, 40_000, 48_000,
                        56_000, 64_000, 72_000, 80_000, 88_000),
    })],
)
_figure(
    "fig6-executors",
    "Figure 6(i,ii): impact of the number of spawned executors.",
    scale=[_grid(
        {"shim_nodes": (4, 7), "num_executors": (3, 5, 7, 11)},
        config={"num_executor_regions": 3},
    )],
    paper=[
        _grid(
            {"shim_nodes": _SHIMS, "num_executors": (executors,)},
            config={"num_executor_regions": min(7, executors)},
        )
        for executors in (3, 5, 11, 15, 21)
    ],
)
_figure(
    "fig6-batching",
    "Figure 6(iii,iv): impact of the client-request batch size.",
    scale=[_grid({"shim_nodes": (4, 7), "batch_size": (5, 10, 25, 50)})],
    paper=[_grid({
        "shim_nodes": _SHIMS, "batch_size": (10, 100, 200, 1_000, 5_000, 8_000),
    })],
)
_figure(
    "fig6-execution",
    "Figure 6(v,vi): impact of compute-intensive transactions.",
    scale=[_grid({"execution_seconds": (0.0, 0.2)})],
    paper=[_grid({
        "shim_nodes": _SHIMS, "execution_seconds": (0.0, 1.0, 2.0, 4.0, 8.0),
    })],
)
_figure(
    "fig6-regions",
    "Figure 6(vii,viii): a fixed number of executors spread over more regions.",
    scale=[_grid({"num_executor_regions": (1, 5)}, config={"num_executors": 5})],
    paper=[_grid(
        {"shim_nodes": _SHIMS, "num_executor_regions": (5, 7, 9, 11)},
        config={"num_executors": 11},
    )],
)
_figure(
    "fig6-cores",
    "Figure 6(ix,x): impact of the shim nodes' compute resources.",
    # Enough load (2 000 clients, batches of 100) for the cores to matter.
    scale=[_grid(
        {"shim_cores": (2, 16)},
        config={"num_clients": 2_000, "client_groups": 8, "batch_size": 100},
        workload={"clients": 2_000},
    )],
    paper=[_grid({"shim_nodes": _SHIMS, "shim_cores": (2, 4, 8, 12, 16)})],
)
_figure(
    "fig6-conflicts",
    "Figure 6(xi,xii): conflicting transactions under optimistic execution.",
    scale=[_grid(
        {"conflict_fraction": (0.0, 0.1, 0.3, 0.5)}, workload={"rw_sets_known": False}
    )],
    paper=[_grid(
        {"shim_nodes": _SHIMS, "conflict_fraction": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)},
        workload={"rw_sets_known": False},
    )],
)
_figure(
    "fig7-baselines",
    "Figure 7: ServerlessBFT vs SERVERLESSCFT vs PBFT vs NOSHIM, 4–128 replicas.",
    # Smaller than the usual simulated scale: four full deployments back to back.
    scale=[_grid(
        {"system": _SYSTEMS},
        config={"num_clients": 100, "client_groups": 4},
        workload={"clients": 100},
    )],
    paper=[_grid({"system": _SYSTEMS, "shim_nodes": (4, 8, 16, 32, 64, 128)})],
    duration=1.0,
    warmup=0.2,
)
_figure(
    "fig8-offloading",
    "Figure 8: serverless offloading vs edge-only PBFT (throughput and cost).",
    scale=[_grid({
        "execution_seconds": (0.0, 0.1), "system": ("serverless_bft", "pbft_replicated"),
    })],
    paper=[
        _grid(
            {"execution_seconds": _OFFLOAD_SECONDS, "system": ("serverless_bft",)},
            config={"shim_nodes": 32},
        ),
        _grid(
            {
                "execution_seconds": _OFFLOAD_SECONDS,
                "system": ("pbft_replicated",),
                "execution_threads": (1, 8, 16),
            },
            config={"shim_nodes": 32},
        ),
    ],
)
_figure(
    "ablation-spawning",
    "Primary vs decentralized spawning (Section VI-B, Equation 1).",
    scale=[_grid({"spawn_policy": ("primary", "decentralized")})],
    paper=[_grid({
        "num_executors": (3, 5, 11), "spawn_policy": ("primary", "decentralized"),
    })],
)
_figure(
    "ablation-conflict-avoidance",
    "Optimistic execution (unknown rw-sets) vs best-effort conflict avoidance.",
    scale=_conflict_modes((0.4,)),
    paper=_conflict_modes((0.0, 0.1, 0.3, 0.5)),
)


# ------------------------------------------------------------------ drills


@register_sweep("chaos-drills")
def chaos_drills(
    duration: float = 2.5, warmup: float = 0.0, seed: int = 1
) -> SweepSpec:
    """Crash–recovery timelines x BFT/CFT shim: the fault-timeline presets
    with checkpoint catch-up, view-change escalation, and the liveness
    watchdog's recovery metrics (rendered as extra report columns).

    No warmup: the watchdog's unavailability accounting covers the whole
    run, and the fault events land in the first second.
    """
    return sweep_from_grid(
        name="chaos-drills",
        grid=GridSpec(
            {
                "system": ("serverless_bft", "serverless_cft"),
                "scenario": (
                    "primary-crash",
                    "rolling-restart",
                    "view-change-storm",
                    "checkpoint-lag",
                    "region-outage-heal",
                ),
            }
        ),
        config={"num_clients": 60, "client_groups": 4},
        workload={"clients": 60},
        duration=duration,
        warmup=warmup,
        seed=seed,
    )


@register_sweep("scenario-drills")
def scenario_drills(
    duration: float = 1.0, warmup: float = 0.2, seed: int = 1
) -> SweepSpec:
    """One point per fault/workload scenario preset (real crypto: byzantine
    drills depend on signature verification actually failing)."""
    return sweep_from_grid(
        name="scenario-drills",
        grid=GridSpec(
            {
                "scenario": (
                    "baseline",
                    "lossy-network",
                    "network-partition",
                    "region-outage",
                    "byzantine-executors",
                    "silent-executors",
                    "shim-crash",
                    "skewed-ycsb",
                    "write-heavy",
                    "conflict-heavy",
                    # node-level byzantine drills
                    "request-suppression",
                    "fewer-executors",
                    "duplicate-spawning",
                    "verify-flooding",
                )
            }
        ),
        config={"num_clients": 60, "client_groups": 4},
        workload={"clients": 60},
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
