"""Result-warehouse tests: backend neutrality, sharded merge, query layer.

The load-bearing guarantees (ISSUE 9 acceptance criteria):

* the same sweep produces identical digests and 100% cache hits whether
  the store is JSONL, sqlite, or merged shards — backend choice is
  host-side, never content-addressed;
* a shard merge's output bytes are a pure function of the record set,
  independent of which worker wrote what in which order, and same-digest
  records disagreeing on *addressed* fields are a hard error;
* ``get`` hands out copies (mutating a cache hit cannot corrupt later
  hits), stale-schema skips are counted and surfaced, and two processes
  appending to one store (JSONL under ``flock``, sqlite under WAL) lose
  no records.
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import StoreError
from repro.store import (
    JsonlBackend,
    ShardedStore,
    SqliteBackend,
    canonical_line,
    compact_shards,
    make_record,
    merge_shards,
    open_store,
)
from repro.store.cli import main as store_cli
from repro.api import RunSpec
from repro.sweep import SweepSpec, run_sweep


def _tiny_sweep(name="warehouse"):
    """Two fast points (fast crypto, 60 clients, 0.4 s virtual)."""
    shared = {"crypto_backend": "fast", "num_clients": 60, "client_groups": 4}
    return SweepSpec(
        name=name,
        points=tuple(
            RunSpec(
                labels={"batch_size": batch_size},
                overrides={**shared, "batch_size": batch_size},
                duration=0.4,
                warmup=0.1,
            )
            for batch_size in (5, 20)
        ),
    )


def _fake_record(digest, sweep="smoke", batch=5, throughput=100.0):
    """A well-formed synthetic record (current schema tag, no simulation)."""
    point = {
        "labels": {"batch_size": batch},
        "system": "serverless",
        "scenario": "baseline",
        "config": {"batch_size": batch},
    }
    result = {
        "throughput_txn_per_sec": throughput,
        "committed_txns": 10,
        "aborted_txns": 0,
        "latency": {
            "count": 10,
            "mean": 0.5,
            "p50": 0.5,
            "p95": 0.6,
            "p99": 0.7,
            "minimum": 0.4,
            "maximum": 0.8,
        },
    }
    return make_record(digest, point, result, sweep_name=sweep)


def _backends(tmp_path):
    return {
        "jsonl": JsonlBackend(str(tmp_path / "store.jsonl")),
        "sqlite": SqliteBackend(str(tmp_path / "store.db")),
        "shard": ShardedStore(str(tmp_path / "shards"), shard="t0"),
    }


# ------------------------------------------------------------------ protocol


@pytest.mark.parametrize("kind", ["jsonl", "sqlite", "shard"])
def test_get_returns_a_copy_not_the_cache(tmp_path, kind):
    """Regression: mutating a cache hit must not corrupt later hits."""
    store = _backends(tmp_path)[kind]
    store.put_record(_fake_record("d" * 64))
    first = store.get("d" * 64)
    first["result"]["throughput_txn_per_sec"] = -1.0
    first["labels"]["edited"] = True
    second = store.get("d" * 64)
    assert second["result"]["throughput_txn_per_sec"] == 100.0
    assert "edited" not in second["labels"]


@pytest.mark.parametrize("kind", ["jsonl", "sqlite", "shard"])
def test_backend_protocol_surface(tmp_path, kind):
    store = _backends(tmp_path)[kind]
    a, b = "a" * 64, "b" * 64
    store.put_record(_fake_record(a, sweep="one", batch=5))
    store.put_record(_fake_record(b, sweep="two", batch=20))
    assert len(store) == 2
    assert a in store and "f" * 64 not in store
    assert sorted(store.digests()) == [a, b]
    assert store.get("f" * 64) is None
    assert [r["digest"] for r in store.iter_records(sweeps=["two"])] == [b]
    hits = list(store.select(where={"labels.batch_size": 5}))
    assert [r["digest"] for r in hits] == [a]
    assert list(store.select(where={"labels.batch_size": 99})) == []
    stat = store.stat()
    assert stat.records == 2 and stat.sweeps == {"one": 1, "two": 1}


def test_select_semantics_identical_across_backends(tmp_path):
    """The shared matcher defines the result set; SQL only narrows."""
    stores = _backends(tmp_path)
    records = [
        _fake_record("a" * 64, sweep="one", batch=5),
        _fake_record("b" * 64, sweep="one", batch=20),
        _fake_record("c" * 64, sweep="two", batch=5, throughput=50.0),
    ]
    for store in stores.values():
        for record in records:
            store.put_record(record)
    for where in (
        None,
        {"sweep": "one"},
        {"labels.batch_size": 5},
        {"sweep": "one", "labels.batch_size": 5},
        {"point.system": "serverless"},
        {"result.throughput_txn_per_sec": 50.0},  # not an indexed column
        {"labels.batch_size": "5"},  # string never equals int 5
    ):
        results = {
            kind: sorted(r["digest"] for r in store.select(where=where))
            for kind, store in stores.items()
        }
        assert results["jsonl"] == results["sqlite"] == results["shard"], where


# ------------------------------------------------------------------ schema skips


def test_schema_skips_are_counted_and_surfaced(tmp_path, capsys):
    """Satellite: stale-schema records are countable, not a silent cold cache."""
    path = tmp_path / "store.jsonl"
    good = _fake_record("a" * 64)
    stale = _fake_record("b" * 64)
    stale["result_schema"] = "0" * 12
    stale2 = dict(stale, digest="c" * 64)
    with open(path, "w", encoding="utf-8") as handle:
        for record in (good, stale, stale2):
            handle.write(canonical_line(record) + "\n")
    store = JsonlBackend(str(path))
    assert len(store) == 1
    assert store.schema_skips == 2
    assert store.stat().schema_skips == 2

    # The sqlite backend keeps stale rows in the table but hides and counts them.
    db = SqliteBackend(str(tmp_path / "store.db"))
    for record in (good, stale, stale2):
        db.put_record(record)
    assert len(db) == 1 and "b" * 64 not in db
    assert db.stat().schema_skips == 2

    # And `repro.store stat` surfaces the count.
    assert store_cli(["stat", str(path)]) == 0
    out = capsys.readouterr().out
    assert "schema-skips:  2" in out


def test_stale_schema_records_are_cache_misses_not_crashes(tmp_path):
    path = tmp_path / "store.jsonl"
    store = JsonlBackend(str(path))
    record = _fake_record("a" * 64)
    record["result_schema"] = "deadbeefcafe"
    store.put_record(record)
    assert "a" * 64 not in JsonlBackend(str(path))


# ------------------------------------------------------------------ concurrency

_WRITERS = 2
_RECORDS_PER_WRITER = 20


def _append_records(url, writer_index):
    """Worker for the multi-process append tests (must be module level)."""
    store = open_store(url)
    for i in range(_RECORDS_PER_WRITER):
        digest = f"{writer_index}{i:02d}".ljust(64, "e")
        store.put_record(_fake_record(digest, sweep=f"w{writer_index}"))


@pytest.mark.parametrize(
    "url_for",
    [
        pytest.param(lambda d: str(d / "conc.jsonl"), id="jsonl-flock"),
        pytest.param(lambda d: "sqlite://" + str(d / "conc.db"), id="sqlite-wal"),
    ],
)
def test_two_processes_appending_lose_no_records(tmp_path, url_for):
    """Satellite: concurrent writers interleave whole records, never bytes."""
    url = url_for(tmp_path)
    processes = [
        multiprocessing.Process(target=_append_records, args=(url, index))
        for index in range(_WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    store = open_store(url)
    assert len(store) == _WRITERS * _RECORDS_PER_WRITER
    stat = store.stat()
    assert stat.torn_skips == 0 and stat.schema_skips == 0


# ------------------------------------------------------------------ sharded merge


def test_merge_bytes_independent_of_write_order(tmp_path):
    """The tentpole determinism claim: merge output is a pure function of
    the record set — shard names, assignment, and write order are invisible."""
    records = [_fake_record(ch * 64, batch=i) for i, ch in enumerate("abcd")]
    twin = dict(records[1], sweep="other-host")  # host-side-only duplicate

    dir_one = tmp_path / "one"
    store_a = ShardedStore(str(dir_one), shard="host-a")
    store_b = ShardedStore(str(dir_one), shard="host-b")
    for record in records[:2]:
        store_a.put_record(record)
    for record in records[2:]:
        store_b.put_record(record)
    store_b.put_record(twin)

    dir_two = tmp_path / "two"
    store_c = ShardedStore(str(dir_two), shard="zz-completely-different")
    store_d = ShardedStore(str(dir_two), shard="aa")
    store_c.put_record(twin)
    for record in reversed(records):
        (store_c if record["digest"][0] in "ad" else store_d).put_record(record)

    out_one, out_two = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    stats_one = merge_shards(str(dir_one), str(out_one))
    stats_two = merge_shards(str(dir_two), str(out_two))
    assert out_one.read_bytes() == out_two.read_bytes()
    assert stats_one.records == stats_two.records == 4
    assert stats_one.duplicates == stats_two.duplicates == 1

    # The open-time union view agrees with the merge byte-for-byte.
    merged = JsonlBackend(str(out_one))
    union = ShardedStore(str(dir_one), shard="reader")
    assert [r for r in merged.iter_records()] == [r for r in union.iter_records()]


def test_merge_refuses_addressed_field_conflicts(tmp_path):
    directory = tmp_path / "shards"
    ShardedStore(str(directory), shard="a").put_record(
        _fake_record("a" * 64, throughput=100.0)
    )
    # Write the conflicting shard file directly: opening a ShardedStore on the
    # directory would already refuse (its union view applies the same rule).
    JsonlBackend(str(directory / "shard-b.jsonl")).put_record(
        _fake_record("a" * 64, throughput=999.0)  # result differs: nondeterminism
    )
    with pytest.raises(StoreError, match="disagree on addressed fields"):
        merge_shards(str(directory), str(tmp_path / "out.jsonl"))
    with pytest.raises(StoreError, match="disagree on addressed fields"):
        ShardedStore(str(directory), shard="reader")
    # Host-side disagreement (sweep name) is a tie, not a conflict.
    directory2 = tmp_path / "shards2"
    ShardedStore(str(directory2), shard="a").put_record(_fake_record("a" * 64))
    ShardedStore(str(directory2), shard="b").put_record(
        _fake_record("a" * 64, sweep="re-run")
    )
    stats = merge_shards(str(directory2), str(tmp_path / "out2.jsonl"))
    assert stats.records == 1 and stats.duplicates == 1


def test_compact_collapses_shards_idempotently(tmp_path):
    directory = tmp_path / "shards"
    for token, digest in (("a", "a" * 64), ("b", "b" * 64)):
        ShardedStore(str(directory), shard=token).put_record(_fake_record(digest))
    stats, target = compact_shards(str(directory))
    assert stats.records == 2
    assert sorted(os.listdir(directory)) == ["shard-compacted.jsonl"]
    first = open(target, "rb").read()
    compact_shards(str(directory))
    assert open(target, "rb").read() == first
    # Compacted shard is an ordinary peer for later writers.
    store = ShardedStore(str(directory), shard="later")
    assert len(store) == 2


# ------------------------------------------------------------------ URL scheme


def test_open_store_url_scheme(tmp_path):
    assert isinstance(open_store(str(tmp_path / "r.jsonl")), JsonlBackend)
    assert isinstance(open_store("jsonl://" + str(tmp_path / "r2.db")), JsonlBackend)
    assert isinstance(open_store(str(tmp_path / "r.db")), SqliteBackend)
    assert isinstance(open_store("sqlite://" + str(tmp_path / "r2.db")), SqliteBackend)
    sharded = open_store("shard://" + str(tmp_path / "dir"), shard="t")
    assert isinstance(sharded, ShardedStore)
    # A bare path naming an existing directory selects sharding too.
    assert isinstance(open_store(str(tmp_path / "dir"), shard="t"), ShardedStore)


# ------------------------------------------------------------------ migrate / CLI


def test_migrate_round_trips_between_backends(tmp_path, capsys):
    jsonl_path = tmp_path / "src.jsonl"
    source = JsonlBackend(str(jsonl_path))
    for i, ch in enumerate("abc"):
        source.put_record(_fake_record(ch * 64, batch=i))
    db_url = "sqlite://" + str(tmp_path / "dst.db")
    assert store_cli(["migrate", str(jsonl_path), db_url]) == 0
    back_path = tmp_path / "back.jsonl"
    assert store_cli(["migrate", db_url, str(back_path)]) == 0
    capsys.readouterr()
    assert list(JsonlBackend(str(back_path)).iter_records()) == list(
        source.iter_records()
    )


def test_store_cli_query_and_stat(tmp_path, capsys):
    path = tmp_path / "store.jsonl"
    store = JsonlBackend(str(path))
    store.put_record(_fake_record("a" * 64, batch=5))
    store.put_record(_fake_record("b" * 64, batch=20))
    assert store_cli(["query", str(path), "--where", "labels.batch_size=5",
                      "--count"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert store_cli(["query", str(path), "--jsonl"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [json.loads(l)["digest"] for l in lines] == ["a" * 64, "b" * 64]
    assert store_cli(["query", str(tmp_path / "missing-dir") + "/x.jsonl",
                      "--count"]) == 0  # empty store, not an error
    assert store_cli(["stat", str(path)]) == 0


# ------------------------------------------------------------------ A/B neutrality


@pytest.fixture(scope="module")
def warehouse_run(tmp_path_factory):
    """One real sweep persisted to a JSONL store, shared by the A/B tests."""
    path = tmp_path_factory.mktemp("warehouse") / "baseline.jsonl"
    report = run_sweep(_tiny_sweep(), store=JsonlBackend(str(path)))
    assert report.simulated == 2 and report.failed == 0
    return str(path), [outcome.digest for outcome in report.outcomes]


def test_backend_neutrality_digests_and_cache_hits(warehouse_run, tmp_path):
    """The same sweep yields identical digests and 100% cache hits on every
    backend — store choice is host-side, never content-addressed."""
    jsonl_path, digests = warehouse_run
    sqlite_store = SqliteBackend(str(tmp_path / "ab.db"))
    shard_store = ShardedStore(str(tmp_path / "ab-shards"), shard="ab")

    report_db = run_sweep(_tiny_sweep(), store=sqlite_store)
    report_shard = run_sweep(_tiny_sweep(), store=shard_store)
    assert [o.digest for o in report_db.outcomes] == digests
    assert [o.digest for o in report_shard.outcomes] == digests

    for store in (JsonlBackend(jsonl_path), sqlite_store, shard_store):
        rerun = run_sweep(_tiny_sweep(), store=store)
        assert rerun.cached == 2 and rerun.simulated == 0

    # Migrating never changes hits either: jsonl -> sqlite serves the same runs.
    migrated = SqliteBackend(str(tmp_path / "migrated.db"))
    for record in JsonlBackend(jsonl_path).iter_records():
        migrated.put_record(record)
    rerun = run_sweep(_tiny_sweep(), store=migrated)
    assert rerun.cached == 2 and rerun.simulated == 0


def test_sharded_grid_split_merges_to_full_cache(warehouse_run, tmp_path):
    """Two hosts each run half the grid into their own shard; the merged
    store serves the whole grid back as 100% cache hits."""
    from repro.sweep.cli import _grid_shard

    _, digests = warehouse_run
    directory = str(tmp_path / "split")
    sweep = _tiny_sweep()
    for index, token in ((0, "host-a"), (1, "host-b")):
        half = _grid_shard(sweep, index, 2)
        assert len(half.points) == 1
        report = run_sweep(half, store=ShardedStore(directory, shard=token))
        assert report.failed == 0
    merged_path = str(tmp_path / "merged.jsonl")
    stats = merge_shards(directory, merged_path)
    assert stats.records == 2 and stats.torn_skips == 0
    rerun = run_sweep(sweep, store=JsonlBackend(merged_path))
    assert rerun.cached == 2 and rerun.simulated == 0
    assert sorted(o.digest for o in rerun.outcomes) == sorted(digests)


def test_report_bytes_identical_across_backends(warehouse_run, tmp_path, capsys):
    """repro.report renders byte-identical markdown from JSONL and sqlite."""
    from repro.report.cli import main as report_cli

    jsonl_path, _ = warehouse_run
    db_url = "sqlite://" + str(tmp_path / "report.db")
    assert store_cli(["migrate", jsonl_path, db_url]) == 0
    capsys.readouterr()
    assert report_cli(["--store", jsonl_path, "--fail-empty"]) == 0
    from_jsonl = capsys.readouterr().out
    assert report_cli(["--store", db_url, "--fail-empty"]) == 0
    from_sqlite = capsys.readouterr().out
    assert from_jsonl == from_sqlite
    assert "| " in from_jsonl  # actually rendered table rows


def test_facade_run_accepts_any_backend_url(warehouse_run, tmp_path):
    """repro.api.run(store=...) speaks the same URL scheme as the CLIs."""
    from repro.api import RunSpec, run

    spec = RunSpec(
        overrides={
            "crypto_backend": "fast",
            "num_clients": 40,
            "client_groups": 2,
        },
        duration=0.4,
        warmup=0.1,
    )
    url = "sqlite://" + str(tmp_path / "facade.db")
    first = run(spec, store=url)
    store = open_store(url)
    assert len(store) == 1
    again = run(spec, store=url)
    assert again == first
