"""``python -m repro.lint`` — check / rules.

Exit codes (stable; CI depends on them):

* ``0`` — clean: no error findings.
* ``1`` — findings.
* ``2`` — usage error (unknown rule, bad arguments).

``check`` prints one ``path:line:col CODE message`` line per error (the
format editors and CI annotators already parse); ``--json`` emits the
machine-readable document described in ``tests/test_lint.py`` instead.
``rules`` prints the catalog with each rule's why-it-exists rationale.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import LintResult, run_lint
from repro.lint.rules import RULES


def _print_human(result: LintResult, show_suppressed: bool) -> None:
    for finding in result.findings:
        if finding.status == "error":
            print(
                f"{finding.path}:{finding.line}:{finding.col}: "
                f"{finding.rule} {finding.message}"
            )
        elif show_suppressed:
            print(
                f"{finding.path}:{finding.line}:{finding.col}: "
                f"{finding.rule} [{finding.status}] {finding.message}"
            )
    counts = result.counts()
    print(
        f"[lint] {result.files_scanned} files, "
        f"{counts['error']} error(s), {counts['suppressed']} suppressed"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        result = run_lint(args.paths, rules=args.rules)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        _print_human(result, show_suppressed=args.show_suppressed)
    return 0 if result.ok else 1


def _cmd_rules(args: argparse.Namespace) -> int:
    if args.json:
        payload = [
            {
                "code": code,
                "summary": RULES[code].summary,
                "rationale": RULES[code].rationale(),
            }
            for code in sorted(RULES)
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for code in sorted(RULES):
        rule = RULES[code]
        print(f"{code}: {rule.summary}")
        rationale = rule.rationale()
        if rationale:
            first_paragraph = rationale.split("\n\n")[0]
            for line in first_paragraph.splitlines():
                print(f"    {line.strip()}")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism & invariant linter for this repo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="lint paths; exit 1 on findings")
    check.add_argument("paths", nargs="*", default=["src"], help="files/dirs")
    check.add_argument("--json", action="store_true", help="machine output")
    check.add_argument(
        "--rules",
        type=lambda value: [code for code in value.split(",") if code],
        default=None,
        metavar="CODE[,CODE...]",
        help="run only these rules",
    )
    check.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings",
    )
    check.set_defaults(func=_cmd_check)

    rules = sub.add_parser("rules", help="print the rule catalog")
    rules.add_argument("--json", action="store_true")
    rules.set_defaults(func=_cmd_rules)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalise.
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
