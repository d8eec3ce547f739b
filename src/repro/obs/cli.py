"""``python -m repro.obs`` — inspect a run's flight-recorder data.

Four subcommands:

* ``summary`` — run a (default) point with observability on and print the
  per-phase latency breakdown, per-run perf-counter deltas, and drop
  counts; or summarise an existing JSONL export via ``--input``.
* ``spans`` — list individual spans (filter with ``--phase``).
* ``export`` — run a point and write the schema-versioned JSONL export.
* ``validate`` — structurally validate a JSONL export (CI's obs-smoke
  gate); exits non-zero on any problem.

Run-defining flags mirror the sweep CLI: ``--system``, repeatable
``--scenario``, ``--duration``/``--warmup``/``--seed``, and repeatable
dotted-key ``--set key=value`` overrides.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.export import (
    read_jsonl,
    records_to_payload,
    validate_records,
    write_jsonl,
)

#: Cell layout of the summary's phase table.
_PHASE_COLUMNS = ("count", "mean", "p50", "p95", "p99")


def _traced_payload(args: argparse.Namespace) -> Tuple[Dict[str, object], Optional[object]]:
    """The obs payload for the subcommand: from ``--input`` or a fresh run."""
    if getattr(args, "input", None):
        records = read_jsonl(args.input)
        errors = validate_records(records)
        if errors:
            raise ConfigurationError(
                f"{args.input} is not a valid obs export: {errors[0]}"
            )
        return records_to_payload(records), None
    from repro.api import RunSpec, run
    from repro.api.spec import parse_set_overrides

    spec = RunSpec(
        system=args.system,
        scenarios=tuple(args.scenario or []),
        overrides=parse_set_overrides(args.set or []),
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
        tracer_enabled=True,
    )
    result = run(spec)
    if result.obs is None:
        raise ConfigurationError(
            f"system {args.system!r} produced no observability payload"
        )
    return result.obs, result


def _format_float(value: float) -> str:
    return f"{value:.6f}"


def _print_phase_table(phases: Dict[str, Dict[str, float]]) -> None:
    if not phases:
        print("no completed spans (run too short or observability was off)")
        return
    width = max(len(name) for name in phases) + 2
    header = "phase".ljust(width) + "".join(
        column.rjust(12) for column in _PHASE_COLUMNS
    )
    print(header)
    for name, summary in phases.items():
        cells = []
        for column in _PHASE_COLUMNS:
            value = summary[column]
            cells.append(
                (str(int(value)) if column == "count" else _format_float(value)).rjust(12)
            )
        print(name.ljust(width) + "".join(cells))


def _cmd_summary(args: argparse.Namespace) -> int:
    payload, result = _traced_payload(args)
    if result is not None:
        print(
            f"[obs] committed={result.committed_txns} "
            f"throughput={result.throughput_txn_per_sec:.1f} txn/s "
            f"latency_mean={result.latency.mean:.4f}s"
        )
    trace = payload.get("trace", {})
    print(
        f"[obs] schema={payload.get('schema')} "
        f"spans={len(payload.get('spans', []))} "
        f"(open={payload.get('spans_open', 0)}, "
        f"dropped={payload.get('spans_dropped', 0)}) "
        f"events={len(trace.get('events', []))} "
        f"(dropped={trace.get('dropped', 0)})"
    )
    print()
    print("per-phase latency decomposition (virtual seconds):")
    _print_phase_table(payload.get("phases", {}))
    counters = payload.get("metrics", {}).get("counters", {})
    perf = {name: value for name, value in counters.items() if name.startswith("perf.")}
    if perf and not args.no_perf:
        print()
        print("per-run perf-counter deltas:")
        for name, value in perf.items():
            print(f"  {name:40s} {int(value):>12,}")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    payload, _result = _traced_payload(args)
    spans = payload.get("spans", [])
    if args.phase:
        spans = [span for span in spans if span.get("name") == args.phase]
    shown = spans[: args.limit] if args.limit else spans
    for span in shown:
        end = span.get("end")
        duration = "open" if end is None else _format_float(end - span["start"])
        print(
            f"{span['name']:<12} key={span['key']!s:<24} actor={span['actor']:<16} "
            f"start={_format_float(span['start'])} duration={duration}"
        )
    if len(shown) < len(spans):
        print(f"... {len(spans) - len(shown)} more (raise --limit)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    payload, _result = _traced_payload(args)
    count = write_jsonl(payload, args.output)
    print(f"[obs] wrote {count} records to {args.output}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    records = read_jsonl(args.path)
    errors = validate_records(records)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    print(f"valid: {len(records)} records (schema {records[0]['schema']})")
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser, with_input: bool) -> None:
    if with_input:
        parser.add_argument(
            "--input",
            metavar="FILE",
            help="read an existing JSONL export instead of running a point",
        )
    parser.add_argument("--system", default="serverless_bft", help="system name (see list-systems)")
    parser.add_argument(
        "--scenario", action="append", metavar="NAME", help="scenario preset (repeatable)"
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted-key override, e.g. --set protocol.batch_size=25 (repeatable)",
    )
    parser.add_argument("--duration", type=float, default=2.0, help="virtual duration")
    parser.add_argument("--warmup", type=float, default=0.4, help="virtual warm-up")
    parser.add_argument("--seed", type=int, default=None, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="inspect a run's metrics/span/trace flight-recorder data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", help="per-phase latency breakdown of a point")
    _add_run_arguments(summary, with_input=True)
    summary.add_argument(
        "--no-perf", action="store_true", help="omit the perf-counter delta section"
    )
    summary.set_defaults(func=_cmd_summary)

    spans = sub.add_parser("spans", help="list individual spans")
    _add_run_arguments(spans, with_input=True)
    spans.add_argument("--phase", help="only spans of this phase (e.g. consensus)")
    spans.add_argument("--limit", type=int, default=50, help="max spans to print (0: all)")
    spans.set_defaults(func=_cmd_spans)

    export = sub.add_parser("export", help="run a point and write the JSONL export")
    _add_run_arguments(export, with_input=False)
    export.add_argument("--output", required=True, metavar="FILE", help="JSONL output path")
    export.set_defaults(func=_cmd_export)

    validate = sub.add_parser("validate", help="validate a JSONL export's schema")
    validate.add_argument("path", help="JSONL export to check")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
