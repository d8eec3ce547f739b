"""DIG002 — content-address drift in ``RunSpec`` / ``SimulationResult`` /
``StoreRecord``.

Why this rule exists: the result store, sweep resumption, and every A/B
bit-identity suite key on content addresses — the SHA-256 of a resolved run
spec — and on ``simulated_fingerprint``, the result dict minus its declared
host-speed fields.  Both break *silently* when a field is added without
deciding which side of the line it lives on.  PR 7 had to design around
exactly this: attaching the observability payload to ``SimulationResult``
would have changed traced-vs-untraced fingerprints unless ``obs`` was
simultaneously declared in ``HOST_SPEED_FIELDS``.

The rule makes that decision mandatory and machine-checked.  Every field
must appear in exactly one declared partition:

* ``RunSpec`` fields (``src/repro/api/spec.py``) partition into
  ``ADDRESSED_RUNSPEC_FIELDS`` (captured by ``resolve_run`` → in the
  content address) and ``NON_ADDRESSED_RUNSPEC_FIELDS`` (deliberately
  outside it — collection flags and expansion-only counts, each justified
  at the declaration site).
* ``SimulationResult`` fields (``src/repro/core/result.py``) partition
  into ``SIMULATED_RESULT_FIELDS`` and ``HOST_SPEED_FIELDS`` (both in
  ``src/repro/sweep/serialization.py``).
* ``StoreRecord`` fields (``src/repro/store/record.py``) partition into
  ``ADDRESSED_RECORD_FIELDS`` (pure functions of the point's content
  address — a shard merge treats same-digest disagreement here as a
  determinism violation) and ``HOST_SIDE_RECORD_FIELDS`` (run provenance,
  resolved by deterministic tie-break).  A new warehouse field cannot
  land without deciding whether merges must agree on it.

Adding a field without extending a declaration, leaving a stale name in a
declaration, or listing a field in both partitions is an error at the
offending line.  ``tests/test_lint.py`` additionally asserts at runtime
that the declarations match ``dataclasses.fields``, so the AST view and
the live classes cannot drift apart either.

This is a *project* rule: it needs the class definitions and the
declaration constants in the scanned file set, so run ``check`` on
``src`` (or a directory containing all anchors), not on a single file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.lint.rules import ProjectRule, RawFinding, register

#: class name -> (addressed-declaration name, non-addressed-declaration name).
_PARTITIONS = {
    "RunSpec": ("ADDRESSED_RUNSPEC_FIELDS", "NON_ADDRESSED_RUNSPEC_FIELDS"),
    "SimulationResult": ("SIMULATED_RESULT_FIELDS", "HOST_SPEED_FIELDS"),
    "StoreRecord": ("ADDRESSED_RECORD_FIELDS", "HOST_SIDE_RECORD_FIELDS"),
}


@dataclass
class _FoundClass:
    path: str
    line: int
    fields: Dict[str, int]  # field name -> line


@dataclass
class _FoundDecl:
    path: str
    line: int
    names: Tuple[str, ...]


def _dataclass_fields(node: ast.ClassDef) -> Dict[str, int]:
    """The annotated instance fields of a (data)class body, with lines."""
    fields: Dict[str, int] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = ast.unparse(stmt.annotation) if stmt.annotation else ""
        if "ClassVar" in annotation:
            continue
        fields[name] = stmt.lineno
    return fields


def _string_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    names: List[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


@register
class DigestDriftRule(ProjectRule):
    __doc__ = __doc__

    code = "DIG002"
    summary = (
        "RunSpec/SimulationResult/StoreRecord field not declared addressed "
        "or host-side (content-address drift)"
    )

    def check_project(
        self, trees: Mapping[str, ast.AST]
    ) -> Iterator[RawFinding]:
        classes: Dict[str, _FoundClass] = {}
        decls: Dict[str, _FoundDecl] = {}
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name in _PARTITIONS:
                    classes.setdefault(
                        node.name,
                        _FoundClass(path, node.lineno, _dataclass_fields(node)),
                    )
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and any(
                        target.id in pair for pair in _PARTITIONS.values()
                    ):
                        names = _string_tuple(node.value)
                        if names is not None:
                            decls.setdefault(
                                target.id, _FoundDecl(path, node.lineno, names)
                            )

        for class_name, (addressed_name, host_name) in _PARTITIONS.items():
            found = classes.get(class_name)
            if found is None:
                continue
            yield from self._check_partition(
                class_name,
                found,
                decls.get(addressed_name),
                addressed_name,
                decls.get(host_name),
                host_name,
            )

    def _check_partition(
        self,
        class_name: str,
        found: _FoundClass,
        addressed: Optional[_FoundDecl],
        addressed_name: str,
        non_addressed: Optional[_FoundDecl],
        non_addressed_name: str,
    ) -> Iterator[RawFinding]:
        missing_decls = [
            name
            for name, decl in ((addressed_name, addressed), (non_addressed_name, non_addressed))
            if decl is None
        ]
        if missing_decls:
            yield RawFinding(
                found.line,
                0,
                f"{class_name} found but its field partition "
                f"declaration(s) {', '.join(missing_decls)} are not in the "
                "scanned file set — run check on src/ (or declare them)",
                path=found.path,
            )
            return
        assert addressed is not None and non_addressed is not None
        addressed_set = set(addressed.names)
        non_addressed_set = set(non_addressed.names)

        for name in sorted(addressed_set & non_addressed_set):
            yield RawFinding(
                non_addressed.line,
                0,
                f"{class_name}.{name} is declared in both {addressed_name} "
                f"and {non_addressed_name}; a field is addressed or it is "
                "not — pick one",
                path=non_addressed.path,
            )
        declared = addressed_set | non_addressed_set
        for name, line in sorted(found.fields.items()):
            if name not in declared:
                yield RawFinding(
                    line,
                    0,
                    f"{class_name}.{name} is neither in {addressed_name} nor "
                    f"in {non_addressed_name}: decide whether it enters the "
                    "content address / simulated fingerprint and declare it",
                    path=found.path,
                )
        for name in sorted(declared - set(found.fields)):
            decl = addressed if name in addressed_set else non_addressed
            decl_name = addressed_name if name in addressed_set else non_addressed_name
            yield RawFinding(
                decl.line,
                0,
                f"{decl_name} lists {name!r} but {class_name} has no such "
                "field (stale declaration)",
                path=decl.path,
            )
