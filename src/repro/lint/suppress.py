"""Suppression: inline ``# lint: ignore[RULE]`` comments.

The one sanctioned way to silence a finding, reviewable in the diff that
adds it: a comment on the offending line (or on a comment-only line
directly above it)::

    started = time.perf_counter()  # lint: ignore[DET001] host wall-clock

Multiple codes separate with commas: ``# lint: ignore[DET001,EXC005]``.
"""

from __future__ import annotations

import re
from typing import Dict, Set

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


def parse_ignores(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule codes ignored on that line.

    A ``# lint: ignore[...]`` on a comment-only line also covers the next
    line, so a justification too long for a trailing comment can sit on
    its own line above the finding.
    """
    ignores: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if match is None:
            continue
        codes = {code.strip().upper() for code in match.group(1).split(",")}
        codes.discard("")
        if not codes:
            continue
        ignores.setdefault(lineno, set()).update(codes)
        if _COMMENT_ONLY_RE.match(line):
            ignores.setdefault(lineno + 1, set()).update(codes)
    return ignores


def is_suppressed(ignores: Dict[int, Set[str]], rule: str, line: int) -> bool:
    """Whether an inline ignore covers ``rule`` at ``line``."""
    return rule.upper() in ignores.get(line, ())
