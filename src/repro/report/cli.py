"""Command-line entry point: ``python -m repro.report``.

Loads a content-addressed result store, aggregates its records across
replicate seeds, and renders ``EXPERIMENTS.md`` tables — without running a
single simulation.

Typical flow::

    python -m repro.sweep run smoke --replicates 3 --store results.jsonl
    python -m repro.report --store results.jsonl --output EXPERIMENTS.md

``--model-presets`` appends the analytical model's answer for the paper
grid of every figure preset (``repro.sweep.figure_names()`` — evaluated
instantly in closed form, so the no-simulation guarantee holds).
``--fail-empty`` makes an empty render a hard error — CI uses it to prove
the store fed the tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.report.render import render_markdown
from repro.report.tables import markdown_table
from repro.store.url import open_store


def _model_preset_sections() -> str:
    """Every figure's paper grid, answered by the analytical model."""
    # Imported lazily: a plain store render needs neither the model nor the
    # figure presets.
    from repro.perfmodel import evaluate_sweep
    from repro.sweep import build_sweep, figure_names

    lines = [
        "# Analytical model (paper scale)",
        "",
        "Closed-form sweeps of the calibrated performance model — "
        "evaluated directly, no simulation involved.",
    ]
    for name in figure_names():
        table = evaluate_sweep(build_sweep(name, base="paper"))
        lines += ["", f"## {table.name}", "", markdown_table(table)]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--store",
        required=True,
        help="result-store URL to aggregate: a JSONL path, sqlite://path.db, "
        "or shard://dir (see python -m repro.sweep run)",
    )
    parser.add_argument(
        "--output",
        default="-",
        help="markdown output path ('-' for stdout, the default)",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        metavar="NAME",
        help="only render the named sweep(s) (repeatable; default: all in store)",
    )
    parser.add_argument(
        "--model-presets",
        action="store_true",
        help="append the analytical-model tables for the figure presets' paper grids",
    )
    parser.add_argument(
        "--fail-empty",
        action="store_true",
        help="exit non-zero if no store records produced a table row (CI check)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        store = open_store(args.store)
        document = render_markdown(store, sweeps=args.sweep)
        # --fail-empty judges the *measured* document: the always-populated
        # model-preset tables must not be able to mask an empty store render.
        if args.fail_empty and len(store) == 0:
            print(
                f"error: --fail-empty but store {args.store!r} holds no "
                f"renderable records",
                file=sys.stderr,
            )
            return 4
        if args.fail_empty and "| " not in document:
            print(
                "error: --fail-empty but no table rows were rendered "
                "(does the --sweep filter match anything in the store?)",
                file=sys.stderr,
            )
            return 4
        if args.model_presets:
            document += "\n" + _model_preset_sections()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output == "-":
        print(document, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"[report] wrote {args.output} ({len(store)} store records)")

    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
