"""Command-line entry point: ``python -m repro.store``.

The query/maintenance half of the result warehouse::

    stat URL                      record counts, skip diagnostics, shards
    query URL [--where P=V ...]   stream matching records (table or JSONL)
    merge DIR --output OUT        deterministic shard merge -> canonical JSONL
    compact DIR                   merge a shard directory in place
    migrate SRC DST               copy every loadable record between backends

URLs select the backend: ``results.jsonl``, ``sqlite://results.db``,
``shard://results/`` (see :mod:`repro.store.url`).  Nothing here ever
simulates: every subcommand is a pure read except ``merge``/``compact``/
``migrate``, which rewrite records byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.api.spec import parse_set_overrides
from repro.store.query import resolve_record_path
from repro.store.sharded import compact_shards, merge_shards
from repro.store.url import open_store


def _cmd_stat(args: argparse.Namespace) -> int:
    stat = open_store(args.store).stat()
    print(f"store:         {stat.url}")
    print(f"backend:       {stat.backend}")
    print(f"records:       {stat.records}")
    print(f"schema-skips:  {stat.schema_skips}  (stale result_schema -> cache misses)")
    print(f"torn-skips:    {stat.torn_skips}  (corrupt/truncated lines)")
    for name, count in stat.sweeps.items():
        print(f"  sweep {name or '(unnamed)'!s:<24} {count:>6} records")
    for name, count in stat.shards.items():
        print(f"  shard {name:<24} {count:>6} records")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    where = parse_set_overrides(args.where or [], flag="--where")
    records = list(store.select(where=where, sweeps=args.sweep or None))
    if args.count:
        print(len(records))
        return 0
    if args.jsonl:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    metrics = args.metric or ["result.throughput_txn_per_sec", "result.committed_txns"]
    for record in records:
        labels = " ".join(
            f"{key}={value}"
            for key, value in dict(record.get("labels", {})).items()
        )
        values = " ".join(
            f"{path.rsplit('.', 1)[-1]}={resolve_record_path(record, path)}"
            for path in metrics
        )
        print(
            f"{str(record.get('digest'))[:12]} sweep={record.get('sweep') or '-'} "
            f"{labels or '-'} {values}"
        )
    print(f"[store] {len(records)} record(s)", file=sys.stderr)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    stats = merge_shards(args.directory, args.output)
    print(
        f"[store] merged {stats.shards} shard(s) -> {args.output}: "
        f"{stats.records} records ({stats.duplicates} duplicate(s) folded, "
        f"{stats.schema_skips} stale-schema and {stats.torn_skips} torn "
        f"line(s) dropped)"
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    stats, target = compact_shards(args.directory)
    print(
        f"[store] compacted {stats.shards} shard(s) -> {target}: "
        f"{stats.records} records ({stats.duplicates} duplicate(s) folded, "
        f"{stats.schema_skips} stale-schema and {stats.torn_skips} torn "
        f"line(s) dropped)"
    )
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    source = open_store(args.source)
    destination = open_store(args.destination)
    count = 0
    for record in source.iter_records():
        destination.put_record(record)
        count += 1
    print(
        f"[store] migrated {count} record(s): {args.source} -> {args.destination}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stat = sub.add_parser("stat", help="record counts and skip diagnostics")
    stat.add_argument("store", help="store URL (path.jsonl, sqlite://db, shard://dir)")
    stat.set_defaults(func=_cmd_stat)

    query = sub.add_parser("query", help="stream records matching a where clause")
    query.add_argument("store", help="store URL")
    query.add_argument(
        "--where",
        action="append",
        metavar="PATH=VALUE",
        help="dotted-path equality filter (repeatable), e.g. "
        "--where sweep=smoke --where labels.batch_size=25",
    )
    query.add_argument(
        "--sweep", action="append", metavar="NAME", help="filter to the named sweep(s)"
    )
    query.add_argument(
        "--metric",
        action="append",
        metavar="PATH",
        help="result-dict path to print per record (repeatable)",
    )
    query.add_argument(
        "--count", action="store_true", help="print only the matching record count"
    )
    query.add_argument(
        "--jsonl", action="store_true", help="print full records as canonical JSONL"
    )
    query.set_defaults(func=_cmd_query)

    merge = sub.add_parser(
        "merge", help="merge a shard directory into one canonical JSONL file"
    )
    merge.add_argument("directory", help="shard directory (as in shard://dir)")
    merge.add_argument("--output", required=True, help="canonical JSONL output path")
    merge.set_defaults(func=_cmd_merge)

    compact = sub.add_parser(
        "compact", help="merge a shard directory in place (shards -> one file)"
    )
    compact.add_argument("directory", help="shard directory")
    compact.set_defaults(func=_cmd_compact)

    migrate = sub.add_parser(
        "migrate", help="copy every loadable record from one backend to another"
    )
    migrate.add_argument("source", help="source store URL")
    migrate.add_argument("destination", help="destination store URL")
    migrate.set_defaults(func=_cmd_migrate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
