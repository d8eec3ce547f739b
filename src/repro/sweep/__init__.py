"""Parallel sweep orchestration.

The paper's evaluation is a family of parameter sweeps; this package turns
them into declarative, cacheable, multi-core experiment runs:

* :mod:`repro.sweep.spec` — :class:`GridSpec` / :class:`SweepSpec` describe
  a sweep declaratively; every point is a :class:`repro.api.RunSpec` and
  resolves to a content-addressed spec (SHA-256 of the fully resolved
  configuration).
* :mod:`repro.sweep.runner` — :func:`run_sweep` executes points in-process
  or across CPU cores with bit-identical simulated results either way.  It
  is the one executor: ``repro.api.run(store=...)`` and
  ``repro.api.run_replicates`` go through it too.
* :mod:`repro.store` — the result warehouse: backends keyed by point
  digest (append-only JSONL, indexed sqlite, per-worker shards with a
  deterministic merge) behind one :class:`~repro.store.ResultBackend`
  protocol, so re-runs skip simulated points and interrupted sweeps
  resume no matter which backend holds the records.
* :mod:`repro.sweep.presets` — named sweeps, among them the paper's eleven
  figures (``fig6-executors``, ...; each also carries the paper's own grid,
  which :mod:`repro.perfmodel` evaluates) for the CLI:
  ``python -m repro.sweep run fig6-executors --workers 4``.

Scenario presets (region outage, partitions, byzantine executors, skewed
YCSB, ...) live beside the system registry in :mod:`repro.api.scenarios`.
"""

from repro.sweep.presets import (
    build_sweep,
    figure_names,
    register_sweep,
    sweep_names,
)
from repro.sweep.runner import PointOutcome, SweepReport, run_sweep
from repro.sweep.serialization import (
    result_from_dict,
    result_to_dict,
    simulated_fingerprint,
)
from repro.sweep.spec import (
    GridSpec,
    SweepSpec,
    apply_overrides,
    expand_replicates,
    point_digest,
    resolve_point,
    sweep_from_dict,
    sweep_from_grid,
)

__all__ = [
    "GridSpec",
    "PointOutcome",
    "SweepReport",
    "SweepSpec",
    "apply_overrides",
    "build_sweep",
    "expand_replicates",
    "figure_names",
    "point_digest",
    "register_sweep",
    "resolve_point",
    "result_from_dict",
    "result_to_dict",
    "run_sweep",
    "simulated_fingerprint",
    "sweep_from_dict",
    "sweep_from_grid",
    "sweep_names",
]
