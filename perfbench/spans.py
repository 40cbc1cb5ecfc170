"""Pure helpers of the benchmark: metric names, percentiles, span self time.

Nothing here imports cogcn or numpy, so the helpers can be tested on their own
(``python3 -m unittest discover -s perfbench -p 'test_*.py'``).

A span is a tuple ``(name, start, end, parent, run_id)``: ``start`` and ``end``
are ``time.perf_counter`` seconds, ``parent`` is the index of the enclosing
span in the same list or -1, and ``run_id`` names the operation (one training
job, one inference request) the span belongs to.
"""

from __future__ import annotations

import math
import re

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# The tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10
TAIL_CAP = 99.0


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    Valid names are 1-64 characters of ``[A-Za-z0-9_.-]`` starting with a
    letter or digit.
    """
    if not isinstance(name, str) or not _METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile ``q`` (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile, capped at 99, with at least 10 of ``n`` samples beyond it.

    With 1000 or more samples this is the 99th percentile. With fewer it is
    100 * (n - 10) / n, and never below the median: a sample of 20 or fewer
    has no tail that ten samples can stand behind, so the median is reported.
    """
    if n < 1:
        raise ValueError("tail percentile of no samples")
    return min(TAIL_CAP, max(50.0, 100.0 * (n - TAIL_SAMPLES) / n))


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - union_length(clipped))
    return out


def span_stats(spans) -> dict[str, dict]:
    """Per span name: call count, busy and self seconds, per-call durations."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for (name, start, end, _, _), self_s in zip(spans, selfs):
        st = stats.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
        )
        st["calls"] += 1
        st["busy_s"] += end - start
        st["self_s"] += self_s
        st["durations"].append(end - start)
    return stats


def layer_metrics(stats: dict[str, dict], names) -> dict[str, float]:
    """Flatten ``span_stats`` output into ``<span>.<stat>`` metric values.

    Every span in ``names`` gets ``calls``, ``busy_s``, ``self_s``, ``p50_ms``,
    ``p99_ms`` (the percentile of ``tail_percentile``), ``p50_s`` and
    ``max_s``. A span that never ran reads 0 everywhere.
    """
    out: dict[str, float] = {}
    for name in names:
        st = stats.get(name)
        durations = st["durations"] if st else []
        out[f"{name}.calls"] = st["calls"] if st else 0
        out[f"{name}.busy_s"] = st["busy_s"] if st else 0.0
        out[f"{name}.self_s"] = st["self_s"] if st else 0.0
        if durations:
            p50 = percentile(durations, 50.0)
            tail = percentile(durations, tail_percentile(len(durations)))
            out[f"{name}.p50_ms"] = p50 * 1e3
            out[f"{name}.p99_ms"] = tail * 1e3
            out[f"{name}.p50_s"] = p50
            out[f"{name}.max_s"] = max(durations)
        else:
            for key in ("p50_ms", "p99_ms", "p50_s", "max_s"):
                out[f"{name}.{key}"] = 0.0
    return out

