"""Percentiles, the latency tail rule, the run-to-run spread and the
``-X importtime`` breakdown."""

from __future__ import annotations

import statistics

#: The latency tail is p90 on every workload.  p99 and p99.9 moved with the
#: state of the shared host, not with the program: over ten runs of
#: certify_stream p99 spread (IQR/median) up to 0.26, p90 up to 0.14 (see
#: baseline.json).
TAIL_PERCENTILE = 90.0


def _rank(n: int, p: float) -> int:
    """ceil(p/100 * n) in integers, for p given to a tenth of a percent."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail(sorted_values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the latency tail."""
    p = TAIL_PERCENTILE
    return percentile(sorted_values, p), p, beyond(len(sorted_values), p)


def quartiles(values) -> list[float]:
    """[min, Q1, median, Q3, max] by nearest rank."""
    ordered = sorted(values)
    return [ordered[0]] + [percentile(ordered, p) for p in (25.0, 50.0, 75.0)] + [ordered[-1]]


def spread(values) -> dict:
    """Median, quartiles and (Q3 - Q1) / median of one metric over runs.

    Unlike ``percentile`` (nearest rank, for the samples of one run), the
    quartiles interpolate, as ``statistics.quantiles(values, n=4)`` does:
    that is the rule by which a metric's spread is held to its bound."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times in seconds by top-level package."""
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + int(fields[0]) * 1e-6
    return totals
