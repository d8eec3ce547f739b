"""``run.py compare A.json B.json``: is B worse than A, metric by metric?

One row per (workload, end-to-end metric) against the bounds fixed in
``BENCHMARK.json``.  Simulated (``sim_*``) metrics are exact: when the two
reports used the same seed they compare with ``==``.  A timed metric whose
own spread (quartile distance over its samples, as a share of the median) is
wider than its bound is ``unresolved``, not ``ok``, unless every sample of B
reads better than every sample of A.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Tuple


def spread(values) -> float:
    """Quartile distance as a share of the median.

    0 with under 4 samples: ``setup_s`` has two or three, and quartiles of
    that few are an extrapolation, not a spread.
    """
    if len(values) < 4:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B reads than A, as a share of A (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def _samples(entry: Mapping[str, object], name: str) -> List[float]:
    sample = entry.get("samples", {}).get(name)
    return list(sample["values"]) if sample else [entry["metrics"][name]["value"]]


def compare_metric(spec: Mapping[str, object], a: Mapping, b: Mapping, same_seed: bool) -> dict:
    name, better, bound = spec["name"], spec["better"], spec["bound"]
    value_a, value_b = a["metrics"][name]["value"], b["metrics"][name]["value"]
    row = {
        "metric": name,
        "a": value_a,
        "b": value_b,
        "ratio": f"{value_b / value_a:.4f} x A" if value_a else "n/a",
        "bound": bound,
    }
    if name.startswith("sim_") and same_seed:
        row["verdict"] = "ok" if value_a == value_b else "worse"
        row["bound"] = "exact"
        return row
    worse_by = worsening(value_a, value_b, better)
    samples_a, samples_b = _samples(a, name), _samples(b, name)
    noisy = max(spread(samples_a), spread(samples_b)) > bound
    if better == "lower":
        clear_win = max(samples_b) < min(samples_a)
        overlap = min(samples_b) <= max(samples_a)
    else:
        clear_win = min(samples_b) > max(samples_a)
        overlap = max(samples_b) >= min(samples_a)
    if worse_by > bound:
        row["verdict"] = "unresolved" if noisy and overlap else "worse"
    else:
        row["verdict"] = "unresolved" if noisy and not clear_win else "ok"
    return row


def compare_reports(benchmark: Mapping, report_a: Mapping, report_b: Mapping) -> Tuple[List[dict], int]:
    """All rows, and the exit code (non-zero on ``worse`` or more failures)."""
    rows: List[dict] = []
    bad = 0
    same_seed = report_a.get("seed") == report_b.get("seed") and report_a.get(
        "quick"
    ) == report_b.get("quick")
    for workload, a in report_a["workloads"].items():
        b = report_b["workloads"].get(workload)
        if b is None:
            continue
        for spec in benchmark["end_to_end"]:
            row = {"workload": workload, **compare_metric(spec, a, b, same_seed)}
            rows.append(row)
            bad += row["verdict"] == "worse"
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "a": share_a,
                "b": share_b,
                "ratio": f"{share_b - share_a:+.4f} vs A",
                "bound": 0,
                "verdict": "worse" if share_b > share_a else "ok",
            }
        )
        bad += share_b > share_a
    return rows, 1 if bad else 0


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<22} {'A':>14} {'B':>14} {'B / A':>12} "
        f"{'bound':>6} verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<22} {row['a']:>14.6g} "
            f"{row['b']:>14.6g} {row['ratio']:>12} {str(row['bound']):>6} {row['verdict']}"
        )
    return "\n".join(lines)
