"""Rule registry: every lint rule is a small class registered in one table.

Adding a rule is three steps (see API.md "Static analysis"):

1. Write a class deriving :class:`FileRule` (one file at a time, gets the
   parsed tree) or :class:`ProjectRule` (cross-file invariants, gets every
   parsed tree at once), with a ``code``, a one-line ``summary``, and a
   docstring explaining *why the rule exists* — which incident or invariant
   it guards.  The docstring is user-facing: ``python -m repro.lint rules``
   prints it.
2. Decorate it with :func:`register`.
3. Check in a fixture pair ``tests/lint_fixtures/<code>_bad.py`` /
   ``<code>_good.py`` — ``tests/test_lint.py`` parametrises over the
   registry, so an unregistered or fixture-less rule fails CI.

The engine parses each file exactly once and hands the same tree to every
file rule, so the whole tree lints in seconds regardless of rule count.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Type


@dataclass(frozen=True)
class RawFinding:
    """A rule's output before engine bookkeeping (path/status attach later)."""

    line: int
    col: int
    message: str
    #: Project rules report against arbitrary files; file rules leave this
    #: empty and the engine fills in the file being scanned.
    path: str = ""


class Rule:
    """Base for all rules; concrete rules derive File/ProjectRule."""

    #: Stable identifier, e.g. ``"DET001"`` — what inline ignores name.
    code: str = ""
    #: One-line human summary for the ``rules`` listing.
    summary: str = ""

    @classmethod
    def rationale(cls) -> str:
        return (cls.__doc__ or "").strip()


class FileRule(Rule):
    """A rule that inspects one parsed file at a time."""

    def check(self, path: str, tree: ast.AST, source: str) -> Iterator[RawFinding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that inspects the whole parsed file set (cross-file invariants)."""

    def check_project(
        self, trees: Mapping[str, ast.AST]
    ) -> Iterator[RawFinding]:
        raise NotImplementedError


#: code -> rule class.  Populated by :func:`register` at import time.
RULES: Dict[str, Type[Rule]] = {}


def register(rule: Type[Rule]) -> Type[Rule]:
    if not rule.code:
        raise ValueError(f"rule {rule.__name__} has no code")
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule


def get_rules(codes: List[str] | None = None) -> List[Rule]:
    """Instantiate the requested rules (all of them by default)."""
    if codes is None:
        selected = sorted(RULES)
    else:
        selected = []
        for code in codes:
            normalized = code.strip().upper()
            if normalized not in RULES:
                raise KeyError(
                    f"unknown rule {code!r} (known: {', '.join(sorted(RULES))})"
                )
            selected.append(normalized)
    return [RULES[code]() for code in selected]


# Import rule modules for their @register side effects (order = catalog order).
from repro.lint.rules import determinism as _determinism  # noqa: E402,F401
from repro.lint.rules import digest as _digest  # noqa: E402,F401
from repro.lint.rules import obs as _obs  # noqa: E402,F401
from repro.lint.rules import mutation as _mutation  # noqa: E402,F401
from repro.lint.rules import excepts as _excepts  # noqa: E402,F401
from repro.lint.rules import kernel as _kernel  # noqa: E402,F401
