"""Sweep-results reporting: honest error bars from replicated runs.

The paper's figures are means over repeated runs; this package turns a
content-addressed result store (written by ``python -m repro.sweep run
... --replicates N`` or :func:`repro.api.run_replicates`) into
``EXPERIMENTS.md`` tables with error bars — without re-simulating:

* :mod:`repro.report.aggregate` — group store records into replicate
  families; mean ± std for scalars, exactly-pooled latency means, and
  across-seed percentile *spreads* (percentiles are never averaged).
* :mod:`repro.report.render` — byte-stable ``EXPERIMENTS.md`` rendering.
* :mod:`repro.report.tables` — :class:`ExperimentTable` and the shared
  markdown-table primitive (sweep tables and the analytical model's figure
  tables render through it too).
* :mod:`repro.report.cli` — ``python -m repro.report``.
"""

from repro.report.aggregate import (
    DEFAULT_SCALAR_METRICS,
    LatencyStats,
    MetricStats,
    PercentileSpread,
    SeriesPoint,
    aggregate_records,
    latency_stats,
    load_store_points,
    metric_stats,
    pooled_mean,
    pooled_percentile,
)
from repro.report.render import (
    format_error_bar,
    format_spread,
    render_markdown,
    render_sweep_section,
)
from repro.report.tables import markdown_table

__all__ = [
    "DEFAULT_SCALAR_METRICS",
    "LatencyStats",
    "MetricStats",
    "PercentileSpread",
    "SeriesPoint",
    "aggregate_records",
    "format_error_bar",
    "format_spread",
    "latency_stats",
    "load_store_points",
    "markdown_table",
    "metric_stats",
    "pooled_mean",
    "pooled_percentile",
    "render_markdown",
    "render_sweep_section",
]
