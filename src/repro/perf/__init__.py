"""Process-global hot-path counters.

Deliberately tiny and dependency-free (``repro.crypto.hashing``, near the
bottom of the dependency graph, imports it): :data:`PERF` is the one
:class:`PerfCounters` instance the hot paths increment (digest cache hits,
memoised batch executions, heap compaction).  Counter increments are plain
attribute adds, cheap enough to leave enabled permanently.
"""

from repro.perf.counters import PERF, PerfCounters

__all__ = ["PERF", "PerfCounters"]
