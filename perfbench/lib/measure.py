"""The benchmark's own arithmetic: percentiles, open-loop timing, span
self-times and the result-file schema. Pure functions, pinned by
perfbench/tests/test_measure.py."""

import math
import statistics

# Percentiles a tail is reported at, from the highest down.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(p, n):
    """Nearest rank of percentile p among n samples, in exact integer
    arithmetic (p has at most three decimals): ceil(p * n / 100), >= 1."""
    return max(1, -(-round(p * 1000) * n // 100000))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND
    samples beyond it. Returns (p, value, sample_count), or None when even
    the median has fewer than MIN_BEYOND samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, percentile(values, p), n
    return None


def tail_name(prefix, p):
    """warm + 99.0 -> warm_p99; warm + 99.9 -> warm_p99.9."""
    text = ("%g" % p)
    return "%s_p%s" % (prefix, text)


def open_loop_due_times(start, rate_per_s):
    """Due times of an open-loop generator: one every 1/rate after start,
    computed from the start (never from the previous send), so a late
    request does not shift the ones after it."""
    period = 1.0 / rate_per_s
    k = 0
    while True:
        k += 1
        yield start + period * k


def open_loop_latencies(records):
    """records: (due, sent, done) per request of one synchronous
    connection, in send order. Latency runs from due time to reply, so a
    stall also delays every request due during it. Generator lateness is
    how late a request went out after the connection was free to send it:
    sent - max(due, previous done)."""
    latencies = []
    lateness = []
    previous_done = None
    for due, sent, done in records:
        if done < sent or (previous_done is not None and sent < previous_done):
            raise ValueError("records out of order")
        latencies.append(done - due)
        ready = due if previous_done is None else max(due, previous_done)
        lateness.append(max(0.0, sent - ready))
        previous_done = done
    return latencies, lateness


def span_self_times(spans):
    """spans: dicts with id, parent (0 = none), start_ns, end_ns. A span's
    self time is its duration minus the part of it its children cover
    (children of one span never overlap: one thread records them)."""
    by_id = {s["id"]: s for s in spans}
    covered = {s["id"]: 0 for s in spans}
    for s in spans:
        if s["parent"]:
            if s["parent"] not in by_id:
                raise ValueError("span %d has an unknown parent" % s["id"])
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    return {sid: (s["end_ns"] - s["start_ns"]) - covered[sid] for sid, s in by_id.items()}


def span_residual_pct(spans):
    """Share of the root spans' wall time that no leaf (layer) span covers:
    the self time of every span that has children, over the roots'
    duration, in percent."""
    parents = {s["parent"] for s in spans if s["parent"]}
    roots = [s for s in spans if not s["parent"]]
    wall = sum(s["end_ns"] - s["start_ns"] for s in roots)
    if wall <= 0:
        raise ValueError("no root span with a duration")
    self_times = span_self_times(spans)
    unattributed = sum(self_times[sid] for sid in parents) + sum(
        self_times[s["id"]] for s in roots if s["id"] not in parents)
    return 100.0 * unattributed / wall


def span_total_ns(spans, name):
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name)


def span_rep_median_ns(spans, rep_name, name):
    """Median over the spans called rep_name of the total duration of the
    spans called `name` inside each (at any depth)."""
    parent = {s["id"]: s["parent"] for s in spans}
    reps = {s["id"]: 0 for s in spans if s["name"] == rep_name}
    if not reps:
        raise ValueError("no %r spans" % rep_name)
    for s in spans:
        if s["name"] != name:
            continue
        ancestor = s["parent"]
        while ancestor and ancestor not in reps:
            ancestor = parent[ancestor]
        if ancestor:
            reps[ancestor] += s["end_ns"] - s["start_ns"]
    return median(list(reps.values()))


# ----------------------------------------------------------------- schema

RESULT_SCHEMA = "perfbench-result/1"
_RESULT_KEYS = {"schema", "workload", "seed", "trace", "seconds", "attribution",
                "correct", "attempted", "failed", "metrics", "notes"}
_ATTRIBUTION_KEYS = {"nproc", "cpu_model", "isa", "compiler", "build_type",
                     "git_commit", "comparable"}


def final_line(result):
    """The contract line: exactly correct/attempted/failed/metrics, each
    metric as value + unit."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }


def validate_result(result, expected_metrics):
    """Raises ValueError unless `result` is a well-formed result document
    carrying exactly `expected_metrics` ({name: unit})."""
    if set(result) != _RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(set(result) ^ _RESULT_KEYS))
    if result["schema"] != RESULT_SCHEMA:
        raise ValueError("schema %r" % result["schema"])
    if set(result["attribution"]) != _ATTRIBUTION_KEYS:
        raise ValueError("attribution keys %s" % sorted(set(result["attribution"])))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise ValueError("%s must be a non-negative int" % key)
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        raise ValueError("attempted/failed out of range")
    if set(result["metrics"]) != set(expected_metrics):
        raise ValueError("metrics %s" % sorted(set(result["metrics"]) ^ set(expected_metrics)))
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit", "samples"}:
            raise ValueError("metric %s keys %s" % (name, sorted(metric)))
        if metric["unit"] != expected_metrics[name]:
            raise ValueError("metric %s unit %r" % (name, metric["unit"]))
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s value %r" % (name, value))
        if not isinstance(metric["samples"], int) or metric["samples"] < 1:
            raise ValueError("metric %s samples %r" % (name, metric["samples"]))
