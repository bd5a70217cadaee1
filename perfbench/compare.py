"""Medians, quartiles and verdicts over the end-to-end metrics of results files.

A results file holds one record per benchmark run (``runs``), each with a
workload, a seed and its metrics. Runs of one workload are pooled across
seeds. Quartiles are those of ``statistics.quantiles(values, n=4)`` and the
spread of a side is the distance between them as a share of its median.

``verdict`` applies the benchmark's bound for one metric:

* ``unresolved``: either side spreads wider than the bound, and neither
  side reads better in every run than the other does in every run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median beats A's by more than A's quartile distance and,
  where both files ran the same seeds, B wins at least nine tenths of the
  seed-matched pairs (ties count for neither);
* ``within bound``: none of the above.
"""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> str:
    """Verdict for B against A; ``a`` and ``b`` map seed -> metric value."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x is worse than y
    qa1, ma, qa3 = quartiles(a.values())
    _, mb, _ = quartiles(b.values())
    if max(spread(a.values()), spread(b.values())) > bound:
        if all(sign * (x - y) < 0 for x in b.values() for y in a.values()):
            return "better"
        if all(sign * (x - y) > 0 for x in b.values() for y in a.values()):
            return "worse"
        return "unresolved"
    if sign * (mb - ma) > bound * abs(ma):
        return "worse"
    if sign * (ma - mb) > qa3 - qa1:
        pairs = [(a[s], b[s]) for s in a.keys() & b.keys()]
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        if not pairs or wins >= 0.9 * len(pairs):
            return "better"
    return "within bound"


def _by_workload(doc: dict, metric: str) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    for run in doc["runs"]:
        if run["trace"] == 0 and metric in run["metrics"]:
            out.setdefault(run["workload"], {})[run["seed"]] = run["metrics"][metric]["value"]
    return out


def _cell(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare_table(doc_a: dict, doc_b: dict, metrics: list[dict]) -> tuple[str, bool]:
    """Text table of A vs B per workload and metric, and whether any is worse."""
    lines = [f"A: {doc_a['stamp'].get('git_sha')}  B: {doc_b['stamp'].get('git_sha')}",
             f"{'workload':<9} {'metric':<21} {'unit':<10} {'A median [q1, q3]':<32} "
             f"{'B median [q1, q3]':<32} {'B/A-1':>8} {'bound':>6}  verdict"]
    any_worse = False
    for m in metrics:
        a_all, b_all = _by_workload(doc_a, m["name"]), _by_workload(doc_b, m["name"])
        for workload in sorted(a_all.keys() & b_all.keys()):
            a, b = a_all[workload], b_all[workload]
            v = verdict(a, b, m["better"], m["bound"])
            any_worse |= v == "worse"
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            change = f"{mb / ma - 1:+.2%}" if ma else "-"
            lines.append(f"{workload:<9} {m['name']:<21} {m['unit']:<10} {_cell(a.values()):<32} "
                         f"{_cell(b.values()):<32} {change:>8} {m['bound']:>6}  {v}")
    return "\n".join(lines), any_worse


def spread_table(doc: dict, metrics: list[dict]) -> str:
    """Per workload and metric: median, quartile spread and how it sits against the bound."""
    lines = [f"{'workload':<9} {'metric':<22} {'median':>12} {'spread':>8} {'bound/3':>8}  n"]
    for m in metrics:
        for workload, values in sorted(_by_workload(doc, m["name"]).items()):
            s = spread(values.values())
            flag = "" if s < m["bound"] / 3 else "  WIDE"
            lines.append(f"{workload:<9} {m['name']:<22} {statistics.median(values.values()):>12.5g} "
                         f"{s:>8.2%} {m['bound'] / 3:>8.2%}  {len(values)}{flag}")
    return "\n".join(lines)
