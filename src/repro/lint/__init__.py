"""``repro.lint`` — the repo's own AST-based determinism & invariant linter.

Every guarantee this reproduction sells — bit-identical digests across
crypto backends, serial-vs-pool sweeps, obs-on/obs-off runs — is enforced
dynamically by A/B suites that cannot see a nondeterminism bug until it
fires.  This package is the static layer: a small rule engine that parses
each file once, runs every registered rule over the shared tree, and
rejects whole bug classes at review time.

The rule catalog targets this codebase's *real* failure modes (each rule's
docstring names the incident or invariant it guards):

* :data:`DET001 <repro.lint.rules.determinism.DeterminismRule>` —
  nondeterminism sources (builtin ``hash()``, wall-clock ``time.*``,
  unseeded global ``random``, ``os.urandom``/``uuid``/``secrets``,
  ``id()`` in ordering/digest contexts, set iteration without ``sorted``).
* :data:`DIG002 <repro.lint.rules.digest.DigestDriftRule>` — content-address
  drift: ``RunSpec``/``SimulationResult`` fields that are neither declared
  addressed nor declared host-speed.
* :data:`OBS003 <repro.lint.rules.obs.ObsGuardRule>` — instrumentation
  calls on an obs component without the ``is not None`` guard.
* :data:`MUT004 <repro.lint.rules.mutation.FrozenMutationRule>` — frozen
  message mutation outside constructors (the digest memo's soundness).
* :data:`EXC005 <repro.lint.rules.excepts.ExceptionSwallowRule>` — bare
  ``except`` and silent ``except Exception: pass`` swallows.

Suppression is explicit and reviewable: an inline ``# lint: ignore[RULE]``
comment (same line or the line above) with a justification.  There is no
baseline file.

Run it with ``python -m repro.lint check src`` (see :mod:`repro.lint.cli`).
The linter reads source text only; it imports nothing it scans and cannot
affect runtime digests.
"""

from __future__ import annotations

from repro.lint.engine import Finding, LintResult, iter_python_files, run_lint
from repro.lint.rules import RULES, Rule, get_rules
from repro.lint.suppress import parse_ignores

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "get_rules",
    "iter_python_files",
    "parse_ignores",
    "run_lint",
]
