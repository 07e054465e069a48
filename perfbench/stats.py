"""Statistics and result-schema helpers of the dataspace benchmark.

The dsbench binary writes raw samples; these helpers turn them into the
reported metrics and build the one-line JSON result. perfbench/test_stats.py
is their self-test.
"""

import json
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# A tail percentile is reported only where at least this many samples lie
# beyond it.
TAIL_MARGIN = 10
# Median time (ms) of dsbench's host probe on the reference host. Every
# reported time is scaled to that host: raw time x REFERENCE_PROBE_MS /
# the run's median probe time (rates the other way round). The probe's
# inputs never change, so this cancels the host's speed, which on a shared
# machine drifts by 2-3x over hours, and keeps the program's own.
REFERENCE_PROBE_MS = 9.0
# End-to-end metrics that are times (scaled down on a slow host) and rates
# (scaled up); the rest are sizes and ratios, reported as measured.
TIMES = ("setup_s", "query_p99_ms", "restart_s")
RATES = ("queries_per_s",)


class MetricError(Exception):
    """A metric cannot be computed from the run's samples."""


def median(samples):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    values = sorted(samples)
    if not values:
        raise MetricError("median of no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def tail_percentile(samples, pct):
    """Nearest-rank percentile, capped so that at least TAIL_MARGIN samples
    lie beyond it.

    Returns (value, percentile_used). The percentile used is `pct` when the
    sample count allows it, else the highest percentile that keeps
    TAIL_MARGIN samples beyond. Raises MetricError when no percentile can.
    """
    values = sorted(samples)
    n = len(values)
    if n <= TAIL_MARGIN:
        raise MetricError(f"{n} samples: no percentile has {TAIL_MARGIN} beyond it")
    used = min(pct, 100.0 * (n - TAIL_MARGIN) / n)
    rank = max(1, math.ceil(used / 100.0 * n - 1e-9))
    # Samples strictly after the chosen rank.
    assert n - rank >= TAIL_MARGIN
    return values[rank - 1], used


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def _series(record, name):
    values = record.get("samples", {}).get(name, [])
    if not values:
        raise MetricError(f"no '{name}' samples")
    return values


def host_scale(record):
    """How much slower than the reference host this run's host was: the
    median of its probe samples over REFERENCE_PROBE_MS."""
    return median(_series(record, "host_probe")) / REFERENCE_PROBE_MS


def end_to_end(record):
    """The end-to-end metrics of a --trace 0 record, times and rates scaled
    to the reference host (see REFERENCE_PROBE_MS).

    Returns {name: (value, note)}; the note says how the value was taken and
    what it read before scaling.
    """
    metrics = raw_end_to_end(record)
    scale = host_scale(record)
    for name, (value, note) in metrics.items():
        if name in TIMES:
            metrics[name] = (value / scale, f"{note}; {value:.6g} on this host")
        elif name in RATES:
            metrics[name] = (value * scale, f"{note}; {value:.6g} on this host")
    return metrics


def raw_end_to_end(record):
    """The end-to-end metrics of a --trace 0 record as measured on this
    host. Returns {name: (value, note)}."""
    values = record.get("values", {})
    metrics = {}
    setups = _series(record, "setup_s")
    metrics["setup_s"] = (median(setups), f"median of {len(setups)} set-ups")
    elapsed = values.get("elapsed_s", 0)
    if elapsed <= 0 or values.get("queries", 0) <= 0:
        raise MetricError("no completed queries")
    metrics["queries_per_s"] = (
        values["queries"] / elapsed,
        f"{int(values['queries'])} queries in {elapsed:.2f} s",
    )
    queries = _series(record, "query")
    p99, used = tail_percentile(queries, 99.0)
    metrics["query_p99_ms"] = (p99, f"p{used:.2f} of {len(queries)} queries")
    for key in ("space_amp", "rss_mb"):
        if key not in values:
            raise MetricError(f"no '{key}' value")
        metrics[key] = (values[key], "")
    restarts = _series(record, "restart_s")
    metrics["restart_s"] = (median(restarts), f"median of {len(restarts)} opens")
    return metrics


def extras(record):
    """Figures printed next to the bounded metrics but not bounded: the
    p50 of each Table 4 query (uncached), the p50 time until a new note is
    searchable, the same for an edit, a document copy, a delete or a mail
    (desktop_sync only), the edit-vs-create gap, and the host scale. Times are scaled to the
    reference host like the bounded ones."""
    out = {}
    samples = record.get("samples", {})
    probes = samples.get("host_probe", [])
    if not probes:
        return out
    scale = host_scale(record)
    out["host_scale"] = (scale, f"median of {len(probes)} host probes / "
                                f"{REFERENCE_PROBE_MS} ms")
    series = [(f"Q{i}", f"q{i}_p50_ms", "runs") for i in range(1, 9)]
    series += [("create", "create_p50_ms", "writes"), ("edit", "edit_p50_ms", "writes"), ("copy", "copy_p50_ms", "writes"),
               ("delete", "delete_p50_ms", "writes"), ("mail", "mail_p50_ms", "writes")]
    for key, name, what in series:
        if samples.get(key):
            value = median(samples[key])
            out[name] = (value / scale, f"{len(samples[key])} {what}; "
                                        f"{value:.6g} on this host")
    if samples.get("create") and samples.get("edit"):
        out["edit_over_create"] = (
            median(samples["edit"]) / median(samples["create"]), "ratio of p50s")
    return out


def make_result(correct, attempted, failed, metrics, units):
    """The result object: metrics is {name: value}, units {name: unit}."""
    if attempted < 1:
        raise MetricError("attempted must be at least 1")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def parse_result(line):
    """Parses and validates a result line; raises ValueError when malformed."""
    result = json.loads(line)
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError(f"result keys must be exactly {RESULT_KEYS}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be an integer")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    for name, metric in result["metrics"].items():
        if not valid_name(name):
            raise ValueError(f"bad metric name {name!r}")
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} needs exactly value and unit")
        if not isinstance(metric["value"], (int, float)) or isinstance(metric["value"], bool):
            raise ValueError(f"metric {name} value must be a number")
        if not math.isfinite(metric["value"]):
            raise ValueError(f"metric {name} value must be finite")
        if not valid_unit(metric["unit"]):
            raise ValueError(f"bad unit {metric['unit']!r} for {name}")
    return result
