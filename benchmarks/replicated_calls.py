"""Exact-count gate on the replicated-execution path.

Profiles one fixed-seed ``pbft_replicated`` point — the batch-5 point of
perfledger's ``sweep-pipeline`` grid: the ``scale`` base with 60 clients in
4 groups, batch size 5, fast crypto, 0.5 s with a 0.1 s warm-up, seed 1 —
on the pure-Python kernel, and fails unless

* the run processes exactly ``EVENTS`` events, and
* the profiled Python calls per event (deployment build and run) stay
  within 3 % of ``CALLS_PER_EVENT``.

Both are counts of a fixed-seed run, so no host drift moves them; the 3 %
leaves room for a CPython patch release.  A replica that reads its store
and executes the batch again, where applying the batch's write sets is the
whole state transition, reads 22.85 calls per event here::

    REPRO_KERNEL=py PYTHONPATH=src python benchmarks/replicated_calls.py
"""

from __future__ import annotations

import cProfile
import pstats

from repro import kernel
from repro.api import RunSpec
from repro.api.facade import build_deployment, resolve

#: The point's exact event count (seed 1).
EVENTS = 141_213
#: Its profiled Python calls per event.
CALLS_PER_EVENT = 20.38

SPEC = RunSpec(
    system="pbft_replicated",
    base="scale",
    seed=1,
    duration=0.5,
    warmup=0.1,
    overrides={
        "protocol.num_clients": 60,
        "protocol.client_groups": 4,
        "protocol.batch_size": 5,
        "protocol.crypto_backend": "fast",
        "workload.clients": 60,
    },
)


def main() -> None:
    assert kernel.active_variant() == "py", "run with REPRO_KERNEL=py: C calls are not profiled"
    profile = cProfile.Profile()
    profile.enable()
    deployment = build_deployment(resolve(SPEC))
    result = deployment.run(duration=SPEC.duration, warmup=SPEC.warmup)
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    events = result.events_processed
    print(
        f"pbft_replicated batch-5 point: {calls / events:.2f} calls per event "
        f"over {events} events, {result.committed_txns} committed"
    )
    assert result.committed_txns > 0
    assert events == EVENTS, "the event count of a fixed-seed run moved"
    assert calls / events <= CALLS_PER_EVENT * 1.03, "the replicated path grew calls again"


if __name__ == "__main__":
    main()
