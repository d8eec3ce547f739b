"""Helpers for attaching byzantine behaviours to a deployment.

The runner accepts an ``executor_behaviour_factory`` callback invoked for
every spawned executor; these helpers implement the common policies used in
tests and experiments (e.g. "the first ``f_E`` executors of every batch are
byzantine").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.messages import ExecuteMsg
from repro.faults.byzantine import ExecutorBehaviour


class PerBatchExecutorFaults:
    """Make the first ``count`` executors spawned for every sequence byzantine."""

    def __init__(
        self,
        count: int,
        behaviour_factory: Callable[[], ExecutorBehaviour],
    ) -> None:
        self._count = count
        self._behaviour_factory = behaviour_factory
        self._seen_per_seq: Dict[int, int] = {}

    def __call__(self, executor_id: str, execute: ExecuteMsg) -> Optional[ExecutorBehaviour]:
        seen = self._seen_per_seq.get(execute.seq, 0)
        self._seen_per_seq[execute.seq] = seen + 1
        if seen < self._count:
            return self._behaviour_factory()
        return None
