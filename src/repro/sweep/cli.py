"""Command-line entry point: ``python -m repro.sweep``.

Subcommands::

    list                     named sweeps and their point counts
    scenarios                scenario presets and their descriptions
    list-systems             the four systems and the knobs each accepts
    run NAME_OR_FILE         run a named or file-defined (JSON) sweep

``run`` resolves every point to its content address, serves cached points
from the result store (``--store``), simulates the rest with ``--workers``
processes, prints per-point progress and the aggregated experiment table,
and exits non-zero on failed points.  ``--expect-all-cached`` additionally
fails the run if any point had to be simulated — CI uses it to prove the
store actually caches.  Repeatable ``--set key=value`` flags apply ad-hoc
dotted-key overrides (``--set protocol.batch_size=25 --set system=noshim``)
on top of whatever the named sweep pins.  ``--replicates N`` runs every
point under N derived seeds (each an individually cached store entry) so
``python -m repro.report`` can put error bars on the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from repro.api.registry import all_systems
from repro.api.scenarios import all_scenarios
from repro.api.spec import parse_set_overrides
from repro.errors import ConfigurationError
from repro.report.tables import markdown_table
from repro.sweep.presets import build_sweep, sweep_names
from repro.sweep.runner import print_progress, run_sweep
from repro.store.url import open_store
from repro.sweep.spec import SweepSpec, apply_overrides, expand_replicates, sweep_from_dict


def _load_sweep(
    target: str,
    duration: Optional[float],
    warmup: Optional[float],
    seed: Optional[int],
) -> SweepSpec:
    if os.path.exists(target) or target.endswith(".json"):
        with open(target, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for key, value in (("duration", duration), ("warmup", warmup), ("seed", seed)):
            if value is not None:
                payload[key] = value
        return sweep_from_dict(payload)
    return build_sweep(target, duration=duration, warmup=warmup, seed=seed)


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sweep_names():
        sweep = build_sweep(name)
        bases = ",".join(sorted({point.base for point in sweep.points}))
        print(f"{name:<28} {len(sweep):>3} points  base={bases}")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    for scenario in all_scenarios():
        print(f"{scenario.name:<22} {scenario.description}")
    return 0


def _cmd_list_systems(_args: argparse.Namespace) -> int:
    for adapter in all_systems():
        knobs = ",".join(sorted(adapter.knobs))
        print(f"{adapter.name:<18} {adapter.description}")
        print(f"{'':<18} knobs: {knobs}")
    return 0


def _grid_shard(sweep: SweepSpec, index: int, count: int) -> SweepSpec:
    """This host's slice of the grid: every ``count``-th expanded point.

    Replicates are expanded *before* slicing, so the replicate axis spreads
    across hosts too; each expanded point is an ordinary pinned-seed point
    whose digest is independent of the slicing, which is what lets the
    merged shards serve the full grid back as 100% cache hits.
    """
    expanded = expand_replicates(sweep)
    points = expanded.points[index::count]
    if not points:
        raise ConfigurationError(
            f"grid shard {index}/{count} of sweep {sweep.name!r} is empty "
            f"({len(expanded.points)} points total)"
        )
    return dataclasses.replace(expanded, points=points)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        sweep = _load_sweep(args.sweep, args.duration, args.warmup, args.seed)
        sweep = apply_overrides(sweep, parse_set_overrides(args.set or []))
        if args.replicates is not None:
            sweep = apply_overrides(sweep, {"replicates": args.replicates})
        # Checked for every run, one shard included: a stray --shard-index
        # (or --shard-count 0) must not silently run the whole grid.
        if not 0 <= args.shard_index < args.shard_count:
            raise ConfigurationError(
                f"--shard-index must be in [0, {args.shard_count}), got {args.shard_index}"
            )
        if args.shard_count > 1:
            sweep = _grid_shard(sweep, args.shard_index, args.shard_count)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    store = open_store(args.store) if args.store else None
    report = run_sweep(
        sweep,
        workers=args.workers,
        store=store,
        timeout=args.timeout,
        progress=None if args.quiet else print_progress,
        tracer_enabled=args.trace,
    )
    print()
    print(markdown_table(report.table()))
    print()
    print(report.summary())

    if report.failed:
        return 1
    if args.expect_all_cached and report.simulated:
        print(
            f"error: --expect-all-cached but {report.simulated} points were "
            f"simulated (store miss)",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="named sweeps").set_defaults(func=_cmd_list)
    sub.add_parser("scenarios", help="scenario presets").set_defaults(
        func=_cmd_scenarios
    )
    sub.add_parser(
        "list-systems", help="the four systems and the knobs each accepts"
    ).set_defaults(func=_cmd_list_systems)

    run = sub.add_parser("run", help="run a named or file-defined sweep")
    run.add_argument("sweep", help="sweep name (see 'list') or path to a JSON file")
    run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted-key override applied to every point (repeatable), e.g. "
        "--set protocol.batch_size=25 --set system=noshim",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (<=1: in-process serial execution)",
    )
    run.add_argument(
        "--store",
        default="",
        help="result-store URL (enables caching and resume): a JSONL path, "
        "sqlite://path.db, or shard://dir for per-worker shards",
    )
    run.add_argument(
        "--shard-index",
        type=int,
        default=0,
        metavar="I",
        help="with --shard-count N: run this host's slice of the grid "
        "(every N-th expanded point, offset I)",
    )
    run.add_argument(
        "--shard-count",
        type=int,
        default=1,
        metavar="N",
        help="split the grid across N hosts (pair with a shard:// store; "
        "merge the shards with 'python -m repro.store merge')",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="stall budget in seconds: fail still-running points if no point "
        "completes for this long (parallel runs only)",
    )
    run.add_argument(
        "--duration", type=float, default=None, help="override virtual duration"
    )
    run.add_argument(
        "--warmup", type=float, default=None, help="override virtual warm-up"
    )
    run.add_argument("--seed", type=int, default=None, help="override the sweep seed")
    run.add_argument(
        "--replicates",
        type=int,
        default=None,
        metavar="N",
        help="run every point under N derived seeds (error bars via "
        "'python -m repro.report'); "
        "each replicate is an individually cached store entry",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="run every simulated point with the flight recorder on "
        "(observability payload stored per point; digests are unchanged)",
    )
    run.add_argument(
        "--expect-all-cached",
        action="store_true",
        help="fail if any point had to be simulated (CI cache check)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    run.set_defaults(func=_cmd_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
