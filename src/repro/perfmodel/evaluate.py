"""The analytical model as an evaluator of a resolved point.

``evaluate_point`` takes the same plain-JSON dict
:func:`repro.api.build_deployment` takes and answers it in closed form, under
the result dict's own key paths — so one ``(column, path)`` metrics tuple
reads a simulated outcome and a modelled one alike, and a figure preset
(:mod:`repro.sweep.presets`) yields both through one table path.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.api.facade import protocol_config_from_dict, workload_config_from_dict
from repro.api.registry import get_system
from repro.core.config import SpawnPolicyName
from repro.core.spawning import executors_per_node
from repro.perfmodel.model import AnalyticalModel, SystemKind
from repro.report.tables import ExperimentTable
from repro.sweep.runner import PointOutcome, SweepReport
from repro.sweep.spec import SweepSpec, point_digest, resolve_point

#: Table columns of a modelled sweep: ``column name -> evaluate_point path``
#: (the first four are result-dict paths a simulated outcome answers too).
MODEL_METRICS: Tuple[Tuple[str, str], ...] = (
    ("throughput_txn_s", "throughput_txn_per_sec"),
    ("latency_s", "latency.mean"),
    ("cents_per_ktxn", "cents_per_kilo_txn"),
    ("abort_rate", "abort_rate"),
    ("bottleneck", "bottleneck"),
    ("executors_per_batch", "executors_per_batch"),
)


def evaluate_point(resolved: Mapping[str, object]) -> Dict[str, object]:
    """The model's answer for one resolved run, keyed like a result dict.

    ``executors_per_batch`` is what the shim spawns for one committed batch:
    ``n_E`` under primary spawning, Equation (1)'s ``e × n_R`` under
    decentralized spawning, nothing for a system that executes at the edge.
    """
    adapter = get_system(str(resolved["system"]))
    config = adapter.effective_config(
        protocol_config_from_dict(resolved["config"])  # type: ignore[arg-type]
    )
    model = AnalyticalModel(
        config,
        workload_config_from_dict(resolved["workload"]),  # type: ignore[arg-type]
        system=SystemKind(resolved["system"]),
        execution_threads=int(resolved["execution_threads"]),  # type: ignore[call-overload]
    )
    throughput, latency = model.throughput_latency()
    if model.system is SystemKind.PBFT_REPLICATED:
        spawned = 0
    elif config.spawn_policy is SpawnPolicyName.DECENTRALIZED:
        spawned = config.shim_nodes * executors_per_node(
            config.num_executors, config.shim_nodes, config.shim_faults
        )
    else:
        spawned = config.num_executors
    return {
        "throughput_txn_per_sec": throughput,
        "latency": {"mean": latency},
        "cents_per_kilo_txn": model.cost_cents_per_kilo_txn(),
        "abort_rate": model.abort_fraction(),
        "bottleneck": model.breakdown().bottleneck,
        "executors_per_batch": spawned,
    }


def evaluate_sweep(sweep: SweepSpec) -> ExperimentTable:
    """Model every point of ``sweep``: its labels plus :data:`MODEL_METRICS`."""
    outcomes = []
    for point in sweep.points:
        resolved = resolve_point(sweep, point)
        outcomes.append(
            PointOutcome(
                point=point,
                resolved=resolved,
                digest=point_digest(resolved),
                result_dict=evaluate_point(resolved),
            )
        )
    return SweepReport(sweep=sweep, outcomes=outcomes).table(metrics=MODEL_METRICS)
