"""Summarise many benchmark runs: spread between runs and pooled percentiles.

    python3 benchmarks/summarize.py [RESULT.json ...]

With no arguments it reads every record under .bench_work/results/.  For
each workload (traced runs are grouped as "traced") and metric it prints
the unit, the median of the per-run values, their quartiles and the spread
(Q3 - Q1) / median, then the sample count pooled over all runs (passes for
wall_s and peak_rss_mb, set-ups for setup_s) with the highest percentile
that has at least ten pooled samples beyond it.  A fail_ratio row per
group counts failed commands against attempted ones.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import high_percentile


def fmt(value: float) -> str:
    """Whole numbers (counts, and medians of counts) in full; others to 6 digits."""
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(Path(".bench_work/results").glob("*.json"))
    groups: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    commands: dict[str, list] = defaultdict(list)
    records: dict[str, int] = defaultdict(int)
    for path in files:
        record = json.loads(path.read_text())
        group = "traced" if record["env"]["trace"] else record["env"]["workload"]
        for name, metric in record["metrics"].items():
            groups[group][name].append(metric)
        commands[group] += record["commands"]
        records[group] += 1
    print(f"{'workload':<10} {'metric':<30} {'unit':<8} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'pooled':>6} {'p-high':>18}")
    for group, metrics in sorted(groups.items()):
        for name, runs in sorted(metrics.items()):
            values = [m["value"] for m in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = f"{(q3 - q1) / median:.2%}" if median else "n/a"
            pooled = [x for m in runs for x in m.get("samples", [])]
            hp = high_percentile(pooled)
            tail = f"p{hp[0]:.0f}={hp[1]:.6g}" if hp else "n/a"
            print(f"{group:<10} {name:<30} {runs[0]['unit']:<8} {len(values):>4} {fmt(median):>12} {fmt(q1):>12}"
                  f" {fmt(q3):>12} {spread:>8} {len(pooled):>6} {tail:>18}")
        failed = sum(1 for c in commands[group] if c["problem"])
        print(f"{group:<10} {'fail_ratio':<30} {'ratio':<8} {records[group]:>4}"
              f" {failed / len(commands[group]):>12.6g}  failed={failed} attempted={len(commands[group])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
