"""Benchmark harness.

One experiment definition per figure of the paper's evaluation (Section IX),
each returning the same rows/series the paper plots.  The large parameter
sweeps use the analytical performance model (same cost constants as the
simulator); the pytest-benchmark files under ``benchmarks/`` additionally
time message-level simulation points for the configurations small enough to
simulate, and EXPERIMENTS.md records both against the paper's claims.
"""

from repro.bench.defaults import PaperSetup
from repro.bench.harness import ExperimentTable, format_table
from repro.bench import experiments

__all__ = [
    "ExperimentTable",
    "PaperSetup",
    "experiments",
    "format_table",
]
