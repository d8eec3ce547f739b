"""One workload, measured inside the pinned environment.

``run.py`` starts this file in a fresh interpreter with ``PYTHONHASHSEED``,
``REPRO_KERNEL`` and ``PYTHONPATH`` fixed, and reads the JSON object it
prints last.  It drives the program strictly from outside: ``repro.api``,
``deployment.run``, ``repro.sweep``, ``repro.store``, ``repro.report`` and
each layer's public functions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

WORKERS = 2
#: Timed reps of a single-point workload: at least this many, however slow.
MIN_REPS = 7
MAX_REPS = 40
#: Untraced reps of the traced pass (its timings only locate the profile).
TRACE_REPS = 3
MIN_PASSES = 2
MAX_PASSES = 5
#: Records in the synthesised store the store/report floors run on.
FLOOR_RECORDS = 500


def preload_extension(path: str) -> None:
    """Load the harness-built ``_impl`` so the chooser finds it, not ``src/``."""
    import importlib.machinery
    import importlib.util

    name = "repro._ckernel._impl"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module


def rss_mb() -> float:
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def worker_peak_rss_mb() -> float:
    """Largest high-water mark among this process's live pool workers."""
    import multiprocessing

    peak = 0.0
    for process in multiprocessing.active_children():
        try:
            with open(f"/proc/{process.pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024)
        except OSError:
            continue  # the worker exited between the listing and the read
    return peak


def open_store(path: str):
    """``repro.store.open_store``: a ``.db`` path is sqlite, any other JSONL."""
    from repro.store import open_store as open_backend

    return open_backend(path)


def median(values) -> float:
    return float(statistics.median(values))


class Recorder:
    """Spans, samples, counts and violations of one child run."""

    def __init__(self, workload: str, origin: float) -> None:
        self.workload = workload
        self.origin = origin
        self.spans = []
        self.samples = {}
        self.metrics = {}
        self.violations = []
        self.attempted = 0
        self.failed = 0

    def span(self, rep, name: str, start: float, end: float, parent=None) -> None:
        self.spans.append(
            {
                "workload": self.workload,
                "rep": rep,
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
            }
        )

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def operation(self, violations) -> None:
        """Count one attempted operation; any violation fails it."""
        self.attempted += 1
        if violations:
            self.failed += 1
            self.violations.extend(violations)

    def medians(self, names) -> None:
        for name in names:
            self.metrics[name] = median(self.samples[name])


# ---------------------------------------------------------------- one point

STAGES = (
    "api.resolve_s", "api.build_s", "sim.run_s", "sweep.collect_s",
    "store.put_s", "report.render_s",
)


class Rep:
    """One pass of a point through the whole pipeline, with its boundaries."""

    def __init__(self, spec, workdir: str, label: str) -> None:
        from repro.api import build_deployment, resolve, result_digest
        from repro.perf import PERF
        from repro.report import render_markdown
        from repro.sweep import point_digest, result_to_dict

        path = os.path.join(workdir, f"point-{label}.db")
        gc.collect()  # outside the timed window, see README "Back-to-back runs"
        baseline = PERF.snapshot()
        marks = [time.perf_counter()]
        self.resolved = resolve(spec)
        marks.append(time.perf_counter())
        self.deployment = build_deployment(self.resolved)
        marks.append(time.perf_counter())
        self.result = self.deployment.run(
            duration=float(self.resolved["duration"]), warmup=float(self.resolved["warmup"])
        )
        marks.append(time.perf_counter())
        result_dict = result_to_dict(self.result)
        self.digest = result_digest(self.result)
        marks.append(time.perf_counter())
        store = open_store(path)
        self.record = store.put(
            point_digest(self.resolved), self.resolved, result_dict, sweep_name="perfledger"
        )
        marks.append(time.perf_counter())
        self.document = render_markdown(store)
        marks.append(time.perf_counter())
        self.marks = marks
        self.perf = PERF.delta_since(baseline)
        store.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)

    @property
    def point_s(self) -> float:
        return self.marks[-1] - self.marks[0]

    def stage_seconds(self):
        return {
            name: self.marks[index + 1] - self.marks[index]
            for index, name in enumerate(STAGES)
        }

    def record_spans(self, recorder: Recorder, rep) -> None:
        recorder.span(rep, "point", self.marks[0], self.marks[-1])
        for index, name in enumerate(STAGES):
            recorder.span(rep, name, self.marks[index], self.marks[index + 1], parent="point")

    def safety(self):
        violations = oracle.safety_violations(
            self.deployment, int(self.resolved["config"]["checkpoint_interval"])
        )
        if "| " not in self.document:
            violations.append("render: the point's store rendered no table row")
        return violations

    def liveness(self, name: str, quick: bool):
        return oracle.liveness_violations(
            self.deployment,
            self.result,
            int(self.resolved["config"]["num_clients"]),
            workloads.last_heal(name, quick),
        )


def simulated_metrics(results) -> dict:
    """The ``sim_*`` end-to-end metrics: medians over the given results."""
    def availability(result):
        return 1.0 - result.extra.get("unavailability_seconds", 0.0) / result.duration

    return {
        "sim_throughput_txn_s": median(r.throughput_txn_per_sec for r in results),
        "sim_latency_p50_ms": median(r.latency.p50 for r in results) * 1e3,
        "sim_latency_mean_ms": median(r.latency.mean for r in results) * 1e3,
        "sim_commit_share": median(1.0 - r.abort_rate for r in results),
        "sim_cents_per_ktxn": median(r.cents_per_kilo_txn for r in results),
        "sim_availability": median(availability(r) for r in results),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def exact_counts(results, perf: dict, checkpoints) -> dict:
    """Per-layer counts of one rep (or summed over one sweep pass)."""
    events = sum(r.events_processed for r in results)
    commits = sum(r.committed_txns for r in results)
    aborted = sum(r.aborted_txns for r in results)
    sent = sum(r.messages_sent for r in results)
    spawned = sum(r.spawned_executors for r in results)
    return {
        "sim.engine.events": events,
        "sim.engine.events_per_commit": ratio(events, commits),
        "sim.engine.coalesced_ratio": ratio(perf["events_coalesced"], events),
        "sim.network.messages_sent": sent,
        "sim.network.messages_per_commit": ratio(sent, commits),
        "sim.network.bytes_per_commit": ratio(sum(r.bytes_sent for r in results), commits),
        "sim.network.messages_dropped": sum(r.messages_dropped for r in results),
        "consensus.view_changes": sum(r.view_changes for r in results),
        "consensus.checkpoints_sent": checkpoints[0],
        "consensus.checkpoints_adopted": checkpoints[1],
        "cloud.spawned_executors": spawned,
        "core.verifier.aborted_txns": aborted,
        "core.verifier.abort_rate": ratio(aborted, commits + aborted),
        "core.verifier.ignored_verify": sum(r.verifier_ignored_verify for r in results),
        "core.client.retransmissions": sum(r.client_retransmissions for r in results),
        "core.client.latency_p95_ms": median(r.latency.p95 for r in results) * 1e3,
        "core.client.latency_p99_ms": median(r.latency.p99 for r in results) * 1e3,
        "faults.unavailability_s": sum(
            r.extra.get("unavailability_seconds", 0.0) for r in results
        ),
        "crypto.digest_cache_hit_ratio": ratio(
            perf["digest_cache_hits"], perf["digest_cache_hits"] + perf["digests_computed"]
        ),
        # COMMIT and VERIFY signature checks answered from the per-message
        # memo; the checks that missed are not counted anywhere public, so
        # this is per commit, not a hit ratio.
        "crypto.verify_cache_hits_per_commit": ratio(
            perf["verify_signature_cache_hits"], commits
        ),
        "workload.batch_reuse_ratio": ratio(
            perf["batch_execution_cache_hits"],
            perf["batch_execution_cache_hits"] + perf["batch_executions"],
        ),
        "kernel.c_batch_share": ratio(perf["ckernel_batches_executed"], perf["batch_executions"]),
    }


def deployment_checkpoints(deployment):
    replicas = [node.replica for node in deployment.nodes]
    return (
        sum(getattr(replica, "checkpoints_sent", 0) for replica in replicas),
        sum(getattr(replica, "checkpoints_adopted", 0) for replica in replicas),
    )


def profile_metrics(profile, events: int, traced_s: float, untraced_s: float, retained: int) -> dict:
    profile.create_stats()
    self_s, calls = layers.attribute_profile(profile.stats)
    out = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.py_calls"] = calls[layer]
    out["py_calls_per_event"] = ratio(sum(calls.values()), events)
    out["retained_objects_per_event"] = ratio(retained, events)
    out["trace_overhead_ratio"] = ratio(traced_s, untraced_s)
    return out


def choose_seed(args, recorder: Recorder, workdir: str):
    """The warm-up rep, on the first seed of the chain that keeps making progress.

    On some seeds the simulated system stalls — the verifier's 2 s quorum
    timeout holds up a whole fault-free 3 s window, or ``geo-faults`` never
    commits again after its partition (README "Seeds") — and timing such a
    run would time the stall, not the program.  Safety is checked on every
    seed tried, rejected or not.  Returns the rep, its seed, the host seconds
    spent on rejected seeds and what was rejected.
    """
    tries = workloads.SEED_TRIES if args.spec_seed is None else 1
    first = args.spec_seed if args.spec_seed is not None else args.seed
    rejected_s = 0.0
    rejected = []
    for attempt in range(tries):
        spec_seed = first + attempt * workloads.SEED_STRIDE
        started = time.perf_counter()
        rep = Rep(workloads.run_spec(args.workload, spec_seed, args.quick), workdir, "warmup")
        recorder.operation(rep.safety())
        stalled = rep.liveness(args.workload, args.quick)
        if not stalled:
            return rep, spec_seed, rejected_s, rejected
        sys.stderr.write(
            f"[perfledger] {args.workload}: seed {spec_seed} rejected, trying the "
            f"next: {stalled[0]}\n"
        )
        rejected.append({"seed": spec_seed, "why": stalled})
        rejected_s += time.perf_counter() - started
        del rep
    raise RuntimeError(
        f"{args.workload}: no seed of {first}+k*{workloads.SEED_STRIDE} "
        f"(k<{tries}) made progress throughout"
    )


def run_single_point(args, recorder: Recorder, workdir: str) -> dict:
    import cProfile

    from repro import kernel

    wanted = workloads.KERNEL[args.workload]
    if kernel.active_variant() != wanted:
        raise RuntimeError(
            f"{args.workload} must run on the {wanted!r} kernel, "
            f"got {kernel.active_variant()!r} ({kernel.inactive_reason()})"
        )

    warm, spec_seed, rejected_s, rejected = choose_seed(args, recorder, workdir)
    setup_s = time.monotonic() - args.t0 - rejected_s
    warm.record_spans(recorder, "warmup")
    info = {
        "spec_seed": spec_seed,
        "rejected_seeds": rejected,
        "kernel": kernel.active_variant(),
        "digest": warm.digest,
        "setup_s": setup_s,
        "regions": {
            "client": warm.resolved["config"]["client_region"],
            "shim": warm.resolved["config"]["shim_region"],
            "verifier": warm.resolved["config"]["verifier_region"],
            "executors": warm.deployment.config.regions_for_executors(
                warm.deployment.catalog.names
            ),
        },
    }
    if args.mode == "setup":
        return info
    del warm

    spec = workloads.run_spec(args.workload, spec_seed, args.quick)
    min_reps = TRACE_REPS if args.trace else (2 if args.quick else MIN_REPS)
    reps = 0
    last = None
    window_start = time.perf_counter()
    while reps < MAX_REPS and (
        reps < min_reps or (not args.trace and time.perf_counter() - window_start < args.seconds)
    ):
        last = None  # drop the previous deployment before the next rep's gc.collect()
        last = Rep(spec, workdir, str(reps))
        violations = last.safety() + last.liveness(args.workload, args.quick)
        if last.digest != info["digest"]:
            violations.append(
                f"determinism: rep {reps} digest {last.digest[:16]} != "
                f"warm-up digest {info['digest'][:16]}"
            )
        recorder.operation(violations)
        last.record_spans(recorder, reps)
        if args.trace:
            for name, seconds in last.stage_seconds().items():
                recorder.sample(name, seconds)
        else:
            recorder.sample("point_s", last.point_s)
        reps += 1
    info["reps"] = reps

    if not args.trace:
        recorder.medians(["point_s"])
        recorder.metrics.update(simulated_metrics([last.result]))
        recorder.metrics["peak_rss_mb"] = peak_rss_mb()
        return info

    recorder.medians(STAGES)
    recorder.metrics.update(
        exact_counts([last.result], last.perf, deployment_checkpoints(last.deployment))
    )
    events = last.result.events_processed
    untraced_run_s = recorder.metrics["sim.run_s"]
    recorder.metrics["sim.engine.events_per_host_s"] = ratio(events, untraced_run_s)
    last = None

    gc.collect()
    objects_before = len(gc.get_objects())
    profile = cProfile.Profile()
    profile.enable()
    traced = Rep(spec, workdir, "traced")
    profile.disable()
    retained = len(gc.get_objects()) - objects_before
    violations = traced.safety() + traced.liveness(args.workload, args.quick)
    if traced.digest != info["digest"]:
        violations.append("determinism: the profiled rep changed the result digest")
    recorder.operation(violations)
    traced.record_spans(recorder, "traced")
    recorder.metrics.update(
        profile_metrics(
            profile, events, traced.stage_seconds()["sim.run_s"], untraced_run_s, retained
        )
    )
    record = traced.record
    del traced, profile

    recorder.metrics.update(layers.code_floors())
    sweep_floors(recorder, workloads.floor_sweep(args.seed), workdir, floor_source=[record])
    return info


# ---------------------------------------------------------------- sweeps


def run_pass(sweep_list, store, workers: int):
    """Every sweep of the list through ``run_sweep``; reports and wall times."""
    from repro.sweep import run_sweep

    reports, walls = [], []
    for sweep in sweep_list:
        started = time.perf_counter()
        reports.append(run_sweep(sweep, workers=workers, store=store))
        walls.append(time.perf_counter() - started)
    return reports, walls


def count_pass(recorder: Recorder, reports, what: str, expect_cached: bool = False) -> int:
    """Count each point of a pass as one operation; returns the point count."""
    points = 0
    for report in reports:
        for outcome in report.outcomes:
            points += 1
            violations = []
            if outcome.error is not None:
                violations.append(f"{what}: point {outcome.digest[:16]} failed: {outcome.error}")
            elif expect_cached and not outcome.cached:
                violations.append(f"{what}: point {outcome.digest[:16]} was re-simulated")
            recorder.operation(violations)
    return points


def cold_pass(recorder: Recorder, sweep_list, workdir: str, label):
    """One cold parallel pass: fresh pool, fresh sqlite store."""
    from repro.sweep.pool import discard_shared_pool

    discard_shared_pool()
    store = open_store(os.path.join(workdir, f"cold-{label}.db"))
    started = time.perf_counter()
    reports, _walls = run_pass(sweep_list, store, WORKERS)
    ended = time.perf_counter()
    recorder.span(label, "sweep.cold_pass", started, ended)
    points = count_pass(recorder, reports, f"cold pass {label}")
    return store, reports, points, ended - started


def pass_results(reports):
    return [outcome.result for report in reports for outcome in report.outcomes if outcome.ok]


def run_sweep_pipeline(args, recorder: Recorder, workdir: str) -> dict:
    from repro.sweep.pool import discard_shared_pool

    sweep_list = workloads.sweeps(args.seed, args.quick)
    info = {"spec_seed": args.seed, "kernel": "py", "setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        return info
    if args.trace:
        info["digest"] = trace_sweep_pipeline(recorder, sweep_list, workdir)
        return info

    first_store = None
    reports = []
    passes = 0
    worker_peak = 0.0
    window_start = time.perf_counter()
    min_passes = 1 if args.quick else MIN_PASSES
    while passes < MAX_PASSES and (
        passes < min_passes or time.perf_counter() - window_start < args.seconds
    ):
        store, reports, points, wall = cold_pass(recorder, sweep_list, workdir, passes)
        worker_peak = max(worker_peak, worker_peak_rss_mb())
        recorder.sample("point_s", wall / points)
        if first_store is None:
            first_store = store
        else:
            recorder.operation(
                oracle.check_store_pair(first_store, store, f"cold pass 0 vs {passes}")
            )
        passes += 1
    info["passes"] = passes
    info["points"] = points

    rerun, _walls = run_pass(sweep_list, store, WORKERS)
    count_pass(recorder, rerun, "cached re-run", expect_cached=True)
    recorder.operation(oracle.check_render_stable(store))
    discard_shared_pool()

    recorder.medians(["point_s"])
    recorder.metrics.update(simulated_metrics(pass_results(reports)))
    recorder.metrics["peak_rss_mb"] = max(peak_rss_mb(), worker_peak)
    info["digest"] = records_digest(store)
    return info


def records_digest(store) -> str:
    """One digest over a store's addressed fields (printed, never pinned)."""
    from repro.crypto.hashing import digest

    return digest({record["digest"]: oracle.addressed(record) for record in store.iter_records()})


def durability_check(sweep_list, path: str, reference_store):
    """Tear the JSONL store's last line; the re-run must repair exactly it."""
    with open(path, "rb") as handle:
        data = handle.read()
    last_line = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    with open(path, "wb") as handle:
        handle.write(data[: len(data) - len(last_line) // 2 - 1])
    torn = open_store(path)
    violations = []
    if torn.stat().torn_skips != 1:
        violations.append(
            f"durability: reopening the torn store reported {torn.stat().torn_skips} "
            f"torn record(s), expected exactly 1"
        )
    reports, _walls = run_pass(sweep_list, torn, 0)
    simulated = sum(report.simulated for report in reports)
    if simulated != 1:
        violations.append(f"durability: the re-run simulated {simulated} point(s), expected 1")
    violations += oracle.check_store_pair(reference_store, open_store(path), "durability")
    return violations


def sweep_floors(recorder: Recorder, sweep_list, workdir: str, floor_source=None) -> dict:
    """The ``sweep.*``, ``store.*`` and ``report.*`` floors on one sweep list.

    A cold parallel pass, a cached re-run, then phase B: the same points
    serially in this process into a JSONL store, checked against the parallel
    pass and torn and repaired.  The store floors run on records re-labelled
    from ``floor_source`` (default: the cold pass's own records).  Returns
    what the sweep workload's traced pass goes on to read.
    """
    from concurrent.futures import wait

    from repro.perf import PERF
    from repro.sweep.pool import discard_shared_pool, get_shared_pool

    metrics = recorder.metrics
    discard_shared_pool()
    started = time.perf_counter()
    pool = get_shared_pool(WORKERS)
    wait([pool.submit(os.getpid) for _ in range(WORKERS)])
    metrics["sweep.pool_spawn_s"] = time.perf_counter() - started

    store, _reports, points, wall = cold_pass(recorder, sweep_list, workdir, "traced")
    records = list(store.iter_records())
    busy = sum(sum(record["timing"].values()) for record in records)
    metrics["sweep.worker_busy_share"] = busy / (WORKERS * wall)
    metrics["sweep.overhead_per_point_s"] = (WORKERS * wall - busy) / points

    started = time.perf_counter()
    rerun, _walls = run_pass(sweep_list, store, WORKERS)
    metrics["sweep.cached_rerun_s"] = time.perf_counter() - started
    count_pass(recorder, rerun, "cached re-run", expect_cached=True)
    recorder.operation(oracle.check_render_stable(store))
    discard_shared_pool()

    # Phase B: no gc.collect() between points (that is what run_sweep does).
    serial_path = os.path.join(workdir, "serial.jsonl")
    serial_store = open_store(serial_path)
    gc.collect()
    rss_before = rss_mb()
    baseline = PERF.snapshot()
    started = time.perf_counter()
    serial_reports, serial_walls = run_pass(sweep_list, serial_store, 0)
    serial_wall = time.perf_counter() - started
    perf = PERF.delta_since(baseline)
    recorder.span("serial", "sweep.serial_pass", started, started + serial_wall)
    count_pass(recorder, serial_reports, "serial pass")
    metrics["sweep.serial_point_s"] = serial_wall / points
    metrics["sweep.serial_rss_growth_mb_per_point"] = (rss_mb() - rss_before) / points
    recorder.operation(oracle.check_store_pair(store, serial_store, "parallel vs serial"))
    recorder.operation(durability_check(sweep_list, serial_path, store))

    metrics.update(
        layers.floor_stores(layers.relabelled(floor_source or records, FLOOR_RECORDS), workdir)
    )
    return {
        "store": store,
        "records": records,
        "serial_records": list(serial_store.iter_records()),
        "serial_results": pass_results(serial_reports),
        "serial_walls": serial_walls,
        "perf": perf,
    }


def trace_sweep_pipeline(recorder: Recorder, sweep_list, workdir: str) -> str:
    """``sweep-pipeline``'s traced pass; returns its record set's digest.

    Stage medians and counts come from the serial pass of :func:`sweep_floors`,
    the profile from running the list's last sweep serially once more.
    """
    import cProfile

    from repro.report import render_markdown
    from repro.sweep import resolve_point
    from repro.sweep.spec import expand_replicates

    metrics = recorder.metrics
    measured = sweep_floors(recorder, sweep_list, workdir)
    store, records = measured["store"], measured["records"]

    for stage, key in (
        ("api.build_s", "setup_seconds"),
        ("sim.run_s", "simulate_seconds"),
        ("sweep.collect_s", "collect_seconds"),
    ):
        metrics[stage] = median(record["timing"][key] for record in measured["serial_records"])
    resolve_s = []
    for sweep in sweep_list:
        expanded = expand_replicates(sweep)
        for point in expanded.points:
            started = time.perf_counter()
            resolve_point(expanded, point)
            resolve_s.append(time.perf_counter() - started)
    metrics["api.resolve_s"] = median(resolve_s)
    put_store = open_store(os.path.join(workdir, "put.db"))
    put_s = []
    for record in records:
        started = time.perf_counter()
        put_store.put_record(record)
        put_s.append(time.perf_counter() - started)
    put_store.close()
    metrics["store.put_s"] = median(put_s)
    started = time.perf_counter()
    render_markdown(store)
    metrics["report.render_s"] = time.perf_counter() - started

    results = measured["serial_results"]
    checkpoints = tuple(
        int(sum(r.extra.get(key, 0.0) for r in results))
        for key in ("checkpoints_sent", "checkpoints_adopted")
    )
    metrics.update(exact_counts(results, measured["perf"], checkpoints))
    metrics["sim.engine.events_per_host_s"] = ratio(
        metrics["sim.engine.events"], sum(r.wall_clock_seconds for r in results)
    )

    gc.collect()
    objects_before = len(gc.get_objects())
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    traced_reports, _walls = run_pass(
        sweep_list[-1:], open_store(os.path.join(workdir, "traced.jsonl")), 0
    )
    profile.disable()
    traced_wall = time.perf_counter() - started
    retained = len(gc.get_objects()) - objects_before
    recorder.span("traced", "sweep.serial_pass", started, started + traced_wall)
    count_pass(recorder, traced_reports, "profiled pass")
    events = sum(result.events_processed for result in pass_results(traced_reports))
    metrics.update(
        profile_metrics(profile, events, traced_wall, measured["serial_walls"][-1], retained)
    )
    metrics.update(layers.code_floors())
    return records_digest(store)


# ---------------------------------------------------------------- entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spec-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--ext", default="")
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    if args.ext:
        preload_extension(args.ext)
    recorder = Recorder(args.workload, time.perf_counter())
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work)
    try:
        if args.workload == workloads.SWEEP:
            info = run_sweep_pipeline(args, recorder, workdir)
        else:
            info = run_single_point(args, recorder, workdir)
    finally:
        pool = sys.modules.get("repro.sweep.pool")
        if pool is not None:
            pool.discard_shared_pool()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = {
        name: {"n": len(values), "min": min(values), "max": max(values), "values": values}
        for name, values in recorder.samples.items()
    }
    print(
        json.dumps(
            {
                **info,
                "workload": args.workload,
                "seed": args.seed,
                "attempted": recorder.attempted,
                "failed": recorder.failed,
                "violations": recorder.violations,
                "metrics": recorder.metrics,
                "samples": samples,
                "spans": recorder.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
