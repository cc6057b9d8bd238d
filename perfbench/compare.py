"""Read benchmark result sets and compare two of them.

A result set is the standard output of any number of benchmark runs,
concatenated: each run prints an info line ({"info": {...}}) and then
its result line ({"correct": ..., "metrics": {...}}).  Runs of the two
sets are paired in the order they appear, so record them alternately
(parent, change, parent, change, ...).

The verdict follows the benchmark's rules: a gain needs the change to
win at least nine tenths of the pairs and the medians to differ by more
than the parent's quartile spread; a regression is a median worse than
the parent's by more than the metric's bound; where the parent's own
spread exceeds the bound the metric is "unresolved", unless every run of
the change beats every run of the parent.  A change that fails more
operations than the parent gains nothing: its verdict is "more failures"
wherever it would otherwise read "better" or "within bound".
"""

import json
import statistics


def read_runs(lines):
    """Yield (info, result) for each run in an iterable of text lines."""
    info = None
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if "info" in record:
            info = record["info"]
        elif "metrics" in record and info is not None:
            yield info, record
            info = None


def collect(lines):
    """({(workload, trace): {metric: [values in run order]}},
    {(workload, trace): failed operations summed over runs})."""
    sets, failed = {}, {}
    for info, result in read_runs(lines):
        key = (info["workload"], int(info["trace"]))
        metrics = sets.setdefault(key, {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
        failed[key] = failed.get(key, 0) + int(result["failed"])
    return sets, failed


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def better(a, b, direction):
    """Is value b better than value a?"""
    return b < a if direction == "lower" else b > a


def pairs_won(parent, change, direction):
    """(wins, losses, ties) of the change over run-order pairs."""
    wins = losses = ties = 0
    for a, b in zip(parent, change):
        if a == b:
            ties += 1
        elif better(a, b, direction):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def verdict(parent, change, direction, bound, parent_failed=0,
            change_failed=0):
    """A short verdict on the change against the parent; bound None = no
    gate."""
    result = timing_verdict(parent, change, direction, bound)
    if change_failed > parent_failed and result in ("better", "within bound"):
        return "more failures"
    return result


def timing_verdict(parent, change, direction, bound):
    """verdict() before the failed operations are taken into account."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins, losses, ties = pairs_won(parent, change, direction)
    pairs = wins + losses + ties
    dominates = all(better(a, b, direction) for a in parent for b in change)
    gain = (pairs > 0 and wins >= 0.9 * pairs
            and abs(cmed - pmed) > (p3 - p1) and better(pmed, cmed, direction))
    if bound is None:
        return "better" if gain else "no bound"
    if dominates:
        return "better"
    if spread(parent) > bound:
        return "unresolved"
    worse_by = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if pmed and worse_by > bound * abs(pmed):
        return "worse"
    return "better" if gain else "within bound"


def compare(parent_lines, change_lines, benchmark):
    """Text report: one row per workload and metric."""
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in benchmark[kind]:
            specs[metric["name"]] = (metric["unit"], metric["better"],
                                     metric.get("bound"))
    parent, parent_failed = collect(parent_lines)
    change, change_failed = collect(change_lines)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        rows.append(f"{workload} (trace {trace}): failed operations "
                    f"parent {parent_failed[key]}, change {change_failed[key]}")
        for name in sorted(set(parent[key]) & set(change[key])):
            if name not in specs:
                continue
            unit, direction, bound = specs[name]
            a, b = parent[key][name], change[key][name]
            aq, bq = quartiles(a), quartiles(b)
            wins, losses, ties = pairs_won(a, b, direction)
            rows.append(
                f"  {name:34s} {unit:8s} parent {aq[1]:.6g} "
                f"[{aq[0]:.6g}, {aq[2]:.6g}] n={len(a)}  change "
                f"{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}  "
                f"won {wins}/{wins + losses + ties}  "
                + verdict(a, b, direction, bound, parent_failed[key],
                          change_failed[key]))
    return "\n".join(rows)
