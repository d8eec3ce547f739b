"""The lint engine: one parse per file, every rule over the shared tree.

:func:`run_lint` is the single entry point the CLI and tests use.  It

1. expands the requested paths into ``.py`` files (skipping
   ``__pycache__`` and hidden directories),
2. parses each file exactly once (a syntax error becomes a ``SYNTAX``
   finding, not a crash),
3. runs every file rule over each tree and every project rule over the
   whole tree set,
4. classifies each finding as ``error`` or ``suppressed`` (an inline
   ``# lint: ignore[RULE]`` covers it).

The engine reads source text only — nothing it scans is imported, so
linting can never execute simulation code or perturb runtime digests.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import FileRule, ProjectRule, RawFinding, Rule, get_rules
from repro.lint.suppress import is_suppressed, parse_ignores

#: Pseudo-rule code attached to files the parser rejects.
SYNTAX_RULE = "SYNTAX"


@dataclass
class Finding:
    """One lint finding, fully attributed."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line.
    snippet: str = ""
    #: ``error`` | ``suppressed``.
    status: str = "error"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "status": self.status,
        }


@dataclass
class LintResult:
    """Everything one ``run_lint`` call produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.status == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> Dict[str, int]:
        counts = {"error": 0, "suppressed": 0}
        for finding in self.findings:
            counts[finding.status] = counts.get(finding.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """The JSON-output schema (version 1; see tests/test_lint.py)."""
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into ``.py`` paths, deterministically sorted."""
    seen: Set[str] = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
                collected.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name != "__pycache__" and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if full not in seen:
                    seen.add(full)
                    collected.append(full)
    return iter(sorted(collected))


def _normalise(path: str) -> str:
    """Stable, cwd-relative-when-possible posix path for reports."""
    relative = os.path.relpath(path)
    chosen = relative if not relative.startswith("..") else os.path.abspath(path)
    return chosen.replace(os.sep, "/")


def _snippet(source_lines: Sequence[str], line: int) -> str:
    if 1 <= line <= len(source_lines):
        return source_lines[line - 1].strip()
    return ""


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint ``paths`` with the requested rules (all registered by default)."""
    selected: List[Rule] = get_rules(list(rules) if rules is not None else None)
    file_rules = [rule for rule in selected if isinstance(rule, FileRule)]
    project_rules = [rule for rule in selected if isinstance(rule, ProjectRule)]

    result = LintResult()
    raw: List[Tuple[str, RawFinding]] = []  # (rule code, finding w/ path set)
    trees: Dict[str, ast.AST] = {}
    sources: Dict[str, List[str]] = {}
    ignores: Dict[str, Dict[int, Set[str]]] = {}

    for filepath in iter_python_files(paths):
        norm = _normalise(filepath)
        result.files_scanned += 1
        try:
            with open(filepath, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            result.findings.append(
                Finding(SYNTAX_RULE, norm, 0, 0, f"cannot read file: {exc}")
            )
            continue
        try:
            tree = ast.parse(source, filename=filepath)
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    SYNTAX_RULE,
                    norm,
                    exc.lineno or 0,
                    exc.offset or 0,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        trees[norm] = tree
        sources[norm] = source.splitlines()
        ignores[norm] = parse_ignores(source)
        for rule in file_rules:
            for finding in rule.check(norm, tree, source):
                raw.append((rule.code, RawFinding(
                    finding.line, finding.col, finding.message, path=norm
                )))

    for rule in project_rules:
        for finding in rule.check_project(trees):
            raw.append((rule.code, finding))

    for code, item in raw:
        path = item.path
        finding = Finding(
            rule=code,
            path=path,
            line=item.line,
            col=item.col,
            message=item.message,
            snippet=_snippet(sources.get(path, []), item.line),
        )
        if is_suppressed(ignores.get(path, {}), code, item.line):
            finding.status = "suppressed"
        result.findings.append(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
