"""``profile_run`` — one-call cProfile wrapper for hot-path inventories.

Usage (the recipe documented in ``PERFORMANCE.md``)::

    from repro.api import build_system
    from repro.perf import profile_run
    deployment = build_system("serverless_bft", config)
    report = profile_run(deployment.run, duration=1.0, warmup=0.2)
    print(report.top(25))        # hottest functions by cumulative time
    result = report.result       # the wrapped call's return value
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class ProfileReport:
    """The return value and profiler of one profiled call."""

    result: Any
    profiler: cProfile.Profile

    def top(self, count: int = 25, sort: str = "cumulative") -> str:
        """Render the ``count`` hottest functions as text."""
        stream = io.StringIO()
        pstats.Stats(self.profiler, stream=stream).sort_stats(sort).print_stats(count)
        return stream.getvalue()


def profile_run(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> ProfileReport:
    """Run ``fn(*args, **kwargs)`` under cProfile and return result + stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return ProfileReport(result=result, profiler=profiler)
