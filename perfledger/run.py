"""perfledger: the repository's benchmark (see README.md beside this file).

    python3 perfledger/run.py [--workload NAME]... [--seed N] [--trace] [--json OUT]
    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfledger/run.py compare A.json B.json
    python3 perfledger/run.py selftest

The second form is the driver's: one workload, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A bare ``--trace`` runs both passes.

This process only orchestrates: every workload is measured in one fresh
child interpreter (``child.py``) with ``PYTHONHASHSEED=0``, an explicit
``REPRO_KERNEL`` and ``PYTHONPATH=src``, one child at a time while anything
is being timed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import compare  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170
REPORT_SCHEMA = 1


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to: measured a failure)."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- children


@functools.lru_cache(maxsize=None)
def build_extension() -> str:
    """Build ``repro._ckernel._impl`` under ``.build/`` and return the ``.so``.

    Keyed on the C sources, ``setup.py`` and the interpreter, so a stale
    build is never loaded; nothing is written under ``src/``, which leaves
    tier-1's "extension absent" state alone.  A build that yields no ``.so``
    is an error: ``default-point-c`` never falls back to Python silently.
    """
    sources = [os.path.join(ROOT, "setup.py")] + sorted(
        glob.glob(os.path.join(ROOT, "src", "repro", "_ckernel", "*.[ch]"))
    )
    key = hashlib.sha256(sys.version.encode("utf-8"))
    for path in sources:
        with open(path, "rb") as handle:
            key.update(handle.read())
    target = os.path.join(BUILD, key.hexdigest()[:16])
    pattern = os.path.join(target, "lib", "repro", "_ckernel", "_impl*.so")
    if not glob.glob(pattern):
        started = time.monotonic()
        done = subprocess.run(
            [
                sys.executable, "setup.py", "build_ext",
                "--build-lib", os.path.join(target, "lib"),
                "--build-temp", os.path.join(target, "tmp"),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        if not glob.glob(pattern):
            raise BenchmarkError(
                "the compiled kernel could not be built, so default-point-c cannot "
                "run (no silent Python fallback):\n" + (done.stderr or done.stdout)[-2000:]
            )
        sys.stderr.write(
            f"[perfledger] built the compiled kernel in {time.monotonic() - started:.1f}s\n"
        )
    return glob.glob(pattern)[0]


def spawn(name, seed, seconds, trace, quick, mode="full", spec_seed=None) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("REPRO_SHARD", None)
    env.update(
        PYTHONHASHSEED="0",
        REPRO_KERNEL=workloads.KERNEL[name],
        PYTHONPATH=os.path.join(ROOT, "src"),
    )
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--quick", str(int(quick)), "--mode", mode,
        "--work", WORK,
    ]
    if spec_seed is not None:
        command += ["--spec-seed", str(spec_seed)]
    if workloads.KERNEL[name] == "c":
        command += ["--ext", build_extension()]
    os.makedirs(WORK, exist_ok=True)
    command += ["--t0", repr(time.monotonic())]
    return subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def collect(process: subprocess.Popen) -> dict:
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchmarkError(f"a child ran past {CHILD_TIMEOUT_S}s and was killed")
    if process.returncode != 0:
        raise BenchmarkError(f"a child exited with code {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_pass(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One pass (untraced or traced) of one workload, set-up probes included.

    The main child runs alone.  After it, the untraced pass sets the program
    up twice more (both probes at once, one per core, nothing being timed
    beside them) so ``setup_s`` is a median of three, and each probe's digest
    must equal the main child's; ``default-point-c`` spends one of its probes
    on the Python kernel instead, for the digest both kernels must share.
    """
    entry = collect(spawn(name, seed, seconds, trace, quick))
    probes = []
    if not trace:
        probes = [name, name]
    if name == "default-point-c":
        probes = probes[:1] + ["default-point"]
    setups = [entry["setup_s"]]
    started = []
    try:
        for probe in probes:
            started.append(
                spawn(probe, seed, seconds, False, quick, mode="setup", spec_seed=entry["spec_seed"])
            )
        for probe, process in zip(probes, started):
            info = collect(process)
            if probe == name:
                setups.append(info["setup_s"])
            if "digest" not in info:
                continue  # sweep-pipeline's set-up ends before anything runs
            # A probe repeats the warm-up rep in another process (for
            # default-point-c: on the other kernel); its digest must match.
            entry["attempted"] += 1
            if info["digest"] != entry["digest"]:
                entry["failed"] += 1
                entry["violations"].append(
                    f"determinism: a {workloads.KERNEL[probe]}-kernel set-up probe's digest "
                    f"{info['digest'][:16]} != the measuring child's {entry['digest'][:16]}"
                )
    finally:
        for process in started:
            if process.poll() is None:
                process.kill()
                process.communicate()
    if not trace:
        entry["metrics"]["setup_s"] = statistics.median(setups)
        entry["samples"]["setup_s"] = {
            "n": len(setups), "min": min(setups), "max": max(setups), "values": setups,
        }
    return entry


def with_units(entry: dict, specs) -> dict:
    """The named metrics of one pass, each with its unit; all must exist."""
    missing = [spec["name"] for spec in specs if spec["name"] not in entry["metrics"]]
    if missing:
        raise BenchmarkError(f"{entry['workload']}: metrics not emitted: {missing}")
    return {
        spec["name"]: {"value": entry["metrics"][spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def run_workload(benchmark, name, seed, seconds, trace, quick) -> dict:
    """``trace`` is "0", "1" or "both"; returns the workload's report entry."""
    entry = None
    for traced in {"0": (False,), "1": (True,), "both": (False, True)}[trace]:
        specs = benchmark["per_layer"] if traced else benchmark["end_to_end"]
        done = run_pass(name, seed, seconds, traced, quick)
        done["metrics"] = with_units(done, specs)
        for span in done["spans"]:
            span["traced"] = traced
        if entry is None:
            entry = done
            continue
        if done["digest"] != entry["digest"]:
            done["failed"] += 1
            done["violations"].append("determinism: the traced pass changed the digest")
        for key in ("attempted", "failed"):
            entry[key] += done[key]
        entry["violations"] += done["violations"]
        entry["metrics"].update(done["metrics"])
        entry["samples"].update(done["samples"])
        entry["spans"] += done["spans"]
    entry["correct"] = entry["failed"] == 0
    return entry


# ---------------------------------------------------------------- output


def print_entry(entry: dict) -> None:
    print(
        f"== {entry['workload']}  seed {entry['seed']} (spec seed {entry['spec_seed']})  "
        f"kernel {entry['kernel']}  digest {entry.get('digest', '-')[:16]}  "
        f"failed {entry['failed']}/{entry['attempted']}"
    )
    for name, metric in entry["metrics"].items():
        sample = entry["samples"].get(name)
        detail = (
            f"  (median of {sample['n']}, min {sample['min']:.6g}, max {sample['max']:.6g})"
            if sample
            else ""
        )
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}{detail}")
    for rejected in entry.get("rejected_seeds", ()):
        print(f"  REJECTED SEED {rejected['seed']}: {rejected['why'][0]}")
    for violation in entry["violations"]:
        print(f"  VIOLATION {violation}")


def result_line(entry: dict) -> str:
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": entry["metrics"],
        }
    )


def run_report(benchmark, names, seed, seconds, trace, quick) -> dict:
    report = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "trace": trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for name in names:
        entry = run_workload(benchmark, name, seed, seconds, trace, quick)
        print_entry(entry)
        report["workloads"][name] = entry
    return report


# ---------------------------------------------------------------- selftest


def selftest(benchmark) -> int:
    """Seconds-long check of the harness itself, on shortened workloads."""
    failures = []

    def expect(condition: bool, what: str) -> None:
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    names = list(workloads.NAMES)
    first = run_report(benchmark, names, 1, 1.0, "both", True)
    again = run_report(benchmark, names, 1, 1.0, "0", True)
    other = run_report(benchmark, names, 2, 1.0, "0", True)
    wanted = {spec["name"]: spec["unit"] for spec in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name in names:
        a, b, c = (report["workloads"][name] for report in (first, again, other))
        emitted = {metric: value["unit"] for metric, value in a["metrics"].items()}
        expect(emitted == wanted, f"{name}: every BENCHMARK.json metric emitted with its unit")
        expect(a["correct"] and b["correct"], f"{name}: every check passes at seed 1")
        exact = [metric for metric in wanted if metric.startswith("sim_")]
        expect(
            all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in exact)
            and a["digest"] == b["digest"],
            f"{name}: simulated metrics and digest identical across two runs of seed 1",
        )
        expect(c["correct"], f"{name}: every check passes at seed 2")
        expect(c["digest"] != a["digest"], f"{name}: seed 2 changes the digest")
    calls = [first["workloads"][name]["metrics"]["py_calls_per_event"] for name in names]
    expect(all(value["value"] > 0 for value in calls), "py_calls_per_event measured everywhere")
    expect(
        first["workloads"]["default-point"]["digest"]
        == first["workloads"]["default-point-c"]["digest"],
        "default-point and default-point-c share one digest",
    )

    rows, code = compare.compare_reports(benchmark, first, first)
    expect(
        code == 0 and not any(row["verdict"] == "worse" for row in rows),
        "compare passes a report against itself",
    )
    bound = next(spec["bound"] for spec in benchmark["end_to_end"] if spec["name"] == "point_s")
    factor = 1.0 + 2.0 * bound
    slowed = copy.deepcopy(first)
    for entry in slowed["workloads"].values():
        entry["metrics"]["point_s"]["value"] *= factor
        entry["samples"]["point_s"]["values"] = [
            value * factor for value in entry["samples"]["point_s"]["values"]
        ]
    rows, code = compare.compare_reports(benchmark, first, slowed)
    flagged = [row for row in rows if row["metric"] == "point_s" and row["verdict"] == "worse"]
    expect(
        code != 0 and len(flagged) == len(names),
        f"compare flags point_s x {factor:g} (twice its bound) as worse on every workload",
    )
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------- entry


def main(argv) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(
            "perfledger: no src/repro beside perfledger/ — run from a checkout of the "
            "repository; nothing to measure here\n"
        )
        return 2
    benchmark = load_benchmark()

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write("usage: run.py compare A.json B.json\n")
            return 2
        reports = []
        for path in argv[1:]:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(json.load(handle))
        rows, code = compare.compare_reports(benchmark, *reports)
        print(compare.format_rows(rows))
        return code
    if argv[:1] == ["selftest"]:
        return selftest(benchmark)

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=workloads.NAMES,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="how long each workload's timed section measures")
    parser.add_argument("--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
                        help="0: end-to-end pass; 1: traced per-layer pass; bare flag: both")
    parser.add_argument("--json", metavar="OUT", help="write the full report (samples, spans) to OUT")
    parser.add_argument("--quick", action="store_true", help="shortened workloads (selftest's mode)")
    args = parser.parse_args(argv)

    names = args.workload or list(workloads.NAMES)
    report = run_report(benchmark, names, args.seed, args.seconds, args.trace, args.quick)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    entries = list(report["workloads"].values())
    if len(entries) == 1:
        print(result_line(entries[0]))
    else:
        failed = sum(entry["failed"] for entry in entries)
        attempted = sum(entry["attempted"] for entry in entries)
        print(f"perfledger: {len(entries)} workloads, failed {failed}/{attempted}")
    return 0 if all(entry["correct"] for entry in entries) else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchmarkError as error:
        sys.stderr.write(f"perfledger: {error}\n")
        sys.exit(1)
