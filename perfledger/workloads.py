"""The five named workloads (why each exists is in README.md).

Pure data plus the two helpers that turn it into ``repro`` objects; nothing
here imports ``repro`` at module level, so the parent driver can read the
names and kernel variants without loading the simulator.
"""

from __future__ import annotations

from typing import Dict, List

SINGLE_POINT = ("default-point", "default-point-c", "wide-shim", "geo-faults")
SWEEP = "sweep-pipeline"
NAMES = SINGLE_POINT + (SWEEP,)

#: ``REPRO_KERNEL`` each workload's child process is pinned to.
KERNEL = {name: "py" for name in NAMES}
KERNEL["default-point-c"] = "c"

_DEFAULT_POINT = dict(
    base="default",
    overrides={"protocol.crypto_backend": "fast"},
    duration=3.0,
    warmup=0.5,
)

_GEO_TIMELINE = (
    "crash:primary@2;recover:primary@5;crash:last@8;recover:last@10;"
    "partition:node-1@12-14"
)
#: The same five faults squeezed into a 4 s run for ``--quick``.
_GEO_TIMELINE_QUICK = (
    "crash:primary@0.4;recover:primary@1.0;crash:last@1.6;recover:last@2.0;"
    "partition:node-1@2.4-2.8"
)

_SPECS: Dict[str, dict] = {
    "default-point": _DEFAULT_POINT,
    "default-point-c": _DEFAULT_POINT,
    "wide-shim": dict(
        base="scale",
        overrides={"protocol.shim_nodes": 16, "protocol.crypto_backend": "fast"},
        duration=3.0,
        warmup=0.5,
    ),
    "geo-faults": dict(
        base="scale",
        scenarios=["conflict-heavy", "write-heavy", "primary-crash"],
        overrides={
            "protocol.num_executors": 11,
            "protocol.num_executor_regions": 11,
            "protocol.fault_timeline": _GEO_TIMELINE,
        },
        duration=16.0,
        warmup=0.5,
    ),
}

#: Virtual time of the last fault's heal, after which commits must resume.
LAST_HEAL = {"geo-faults": 14.0}
LAST_HEAL_QUICK = {"geo-faults": 2.8}

#: Seeds tried for one ``--seed`` (``seed``, ``seed + STRIDE``, ...) until the
#: warm-up rep keeps its closed loop busy; see README "Seeds".
SEED_STRIDE = 1000
SEED_TRIES = 12


def run_spec(name: str, seed: int, quick: bool = False):
    """The workload's ``RunSpec`` for one (already chosen) seed."""
    from repro.api import RunSpec

    fields = dict(_SPECS[name])
    fields["overrides"] = dict(fields["overrides"])
    if quick:
        if name == "geo-faults":
            fields["overrides"]["protocol.fault_timeline"] = _GEO_TIMELINE_QUICK
            fields["duration"] = 4.0
        else:
            fields["duration"] = 1.0
        fields["warmup"] = 0.2
    return RunSpec(seed=seed, **fields)


def last_heal(name: str, quick: bool = False):
    return (LAST_HEAL_QUICK if quick else LAST_HEAL).get(name)


def sweeps(seed: int, quick: bool = False) -> List[object]:
    """``sweep-pipeline``'s point set: a four-system grid plus two presets."""
    from repro.api import system_names
    from repro.sweep import GridSpec, build_sweep, sweep_from_grid

    grid = sweep_from_grid(
        name="perfledger-grid",
        grid=GridSpec(
            {
                "system": tuple(system_names()),
                "batch_size": (5,) if quick else (5, 25),
                "num_executors": (3,) if quick else (3, 5),
            }
        ),
        base="scale",
        seed=seed,
        duration=0.5,
        warmup=0.1,
        config={"num_clients": 60, "client_groups": 4, "crypto_backend": "fast"},
        workload={"clients": 60},
        replicates=2,
    )
    chaos = build_sweep("chaos-drills", duration=0.5, warmup=0.0, seed=seed)
    if quick:
        return [grid, chaos]
    return [grid, chaos, build_sweep("scenario-drills", duration=0.5, warmup=0.1, seed=seed)]


def floor_sweep(seed: int) -> List[object]:
    """The fixed 4-point sweep the single-point workloads time ``sweep.*`` on."""
    from repro.sweep import build_sweep

    return [build_sweep("smoke", duration=0.5, warmup=0.1, seed=seed)]
