"""Analytical performance model.

The paper's evaluation sweeps parameters (up to 88 k clients, 128 shim
nodes, 8 k-transaction batches) that are far beyond what a message-level
Python discrete-event simulation can cover in reasonable time.  This package
provides a closed-form pipeline/queueing model of the same deployment —
using the *same* cost constants as the simulator — and exposes it as an
evaluator of a resolved point: ``evaluate_point(resolved)`` answers the dict
``build_deployment`` would simulate, ``evaluate_sweep(sweep)`` tabulates a
whole figure preset (``build_sweep(name, base="paper")`` for the paper's
grids), so Figures 5–8 regenerate in milliseconds and model and simulator
can be compared on the same point.
"""

from repro.perfmodel.evaluate import MODEL_METRICS, evaluate_point, evaluate_sweep
from repro.perfmodel.model import AnalyticalModel, PipelineBreakdown, SystemKind

__all__ = [
    "MODEL_METRICS",
    "AnalyticalModel",
    "PipelineBreakdown",
    "SystemKind",
    "evaluate_point",
    "evaluate_sweep",
]
